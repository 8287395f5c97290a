"""The six spine workloads, as data, and the known answer each is checked against.

A workload names a registry network, its parameters at full and ``--smoke``
size, the :class:`repro.verify.Modular` fields it runs under, why it was
chosen (which layer it stresses and which it bypasses) and its known answer.
Smoke sizes exist so the tests can drive every code path in seconds; their
numbers are never compared against full-size ones.

Known answers come from construction, never from the run under test:

* ``all_pass`` — the registry networks are correct by construction, so every
  node's initial, inductive and safety condition holds;
* ``only_edited_fails`` — the edit claims the edited node never has a route
  while its neighbours' interfaces promise it one: its initial condition
  holds (an aggregation node starts without a route), its inductive condition
  fails, and Algorithm 1's per-node fail-fast then skips its safety
  condition.  Every other node passes all three.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

#: The three condition kinds, in discharge order (``repro.core.conditions.CONDITION_KINDS``).
KINDS = ("initial", "inductive", "safety")

KNOWN_ANSWERS = ("all_pass", "only_edited_fails")


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: ``repro.networks.registry`` name and parameters (full size / smoke size).
    registry: str
    parameters: Mapping[str, Any]
    smoke_parameters: Mapping[str, Any]
    #: One line: why this workload is in the benchmark.
    why: str
    #: ``repro.verify.Modular`` keyword arguments (``store`` is filled in per sample).
    strategy: Mapping[str, Any] = field(default_factory=dict)
    #: One-node edits re-verified in the timed part (0 = one cold ``verify``).
    edits: int = 0
    smoke_edits: int = 0
    known_answer: str = "all_pass"
    #: Workload whose ``verify_s``/``verify_cpu_s`` this one is a ratio against.
    baseline: str | None = None

    def sized(self, smoke: bool) -> tuple[Mapping[str, Any], int]:
        """``(registry parameters, edit count)`` at the requested size."""
        if smoke:
            return self.smoke_parameters, self.smoke_edits
        return self.parameters, self.edits

    def node_count(self, smoke: bool) -> int:
        """The network's node count, from the construction's own formula."""
        parameters, _ = self.sized(smoke)
        if self.registry.startswith("fattree/"):
            pods = parameters["pods"]
            return 5 * pods * pods // 4
        return parameters["internal_routers"] + parameters["external_peers"]

    def expected_conditions(self, smoke: bool) -> int:
        """Conditions the known answer expects a verdict for, over one sample."""
        _, edits = self.sized(smoke)
        per_run = self.node_count(smoke) * len(KINDS)
        if self.known_answer == "only_edited_fails":
            per_run -= 1  # the edited node's safety condition is skipped
        return per_run * max(1, edits)


_FATTREE_12 = {"pods": 12}
_FATTREE_SMOKE = {"pods": 4}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sp_reach_cold",
        registry="fattree/reach",
        parameters=_FATTREE_12,
        smoke_parameters=_FATTREE_SMOKE,
        why="Fig. 14 single-destination point: clause shipping dominates, search is idle, peak memory",
    ),
    Workload(
        name="sp_length_search",
        registry="fattree/length",
        parameters={"pods": 8},
        smoke_parameters=_FATTREE_SMOKE,
        why="same pipeline, opposite balance: CDCL search dominates and shipping is small",
    ),
    Workload(
        name="wan_reach_build",
        registry="wan/reach",
        parameters={"internal_routers": 10, "external_peers": 120},
        smoke_parameters={"internal_routers": 10, "external_peers": 10},
        why="Internet2 shape, DSL-compiled policies, no symmetry: condition construction dominates",
    ),
    Workload(
        name="ap_reach_quotient",
        registry="fattree/reach",
        parameters={"pods": 12, "all_pairs": True},
        smoke_parameters={"pods": 4, "all_pairs": True},
        strategy={"symmetry": "classes"},
        why="all-pairs quotient: partition and canonicaliser dominate, 9 of 540 conditions reach a solver",
    ),
    Workload(
        name="sp_reach_edit_stream",
        registry="fattree/reach",
        parameters=_FATTREE_12,
        smoke_parameters=_FATTREE_SMOKE,
        strategy={"delta": "reuse"},
        edits=8,
        smoke_edits=2,
        known_answer="only_edited_fails",
        why="stream of one-node edits over a written store: fingerprints and store reads, the only SAT answers",
    ),
    Workload(
        name="sp_reach_parallel2",
        registry="fattree/reach",
        parameters=_FATTREE_12,
        smoke_parameters=_FATTREE_SMOKE,
        strategy={"parallel": 2},
        baseline="sp_reach_cold",
        why="sp_reach_cold on two workers: dispatch, fork and per-worker cold caches against the wall-time gain",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def draw_edits(candidates: Sequence[str], count: int, seed: int) -> list[str]:
    """The edited nodes: ``count`` candidates drawn without replacement by ``seed``."""
    return random.Random(seed).sample(sorted(candidates), count)


def expected_verdicts(
    known_answer: str, nodes: Sequence[str], edited: str | None = None
) -> dict[tuple[str, str], bool]:
    """The known answer of one ``verify`` call: ``(node, kind) -> holds``."""
    if known_answer not in KNOWN_ANSWERS:
        raise ValueError(f"unknown known answer {known_answer!r}; choose one of {KNOWN_ANSWERS}")
    expected = {(node, kind): True for node in nodes for kind in KINDS}
    if known_answer == "only_edited_fails":
        if edited is None:
            raise ValueError("the only_edited_fails answer needs the edited node")
        expected[(edited, "inductive")] = False
        del expected[(edited, "safety")]
    return expected


def count_failed(
    expected: Mapping[tuple[str, str], bool], reported: Mapping[tuple[str, str], bool]
) -> int:
    """Conditions whose verdict is wrong, missing, or not in the known answer."""
    wrong = sum(1 for key, holds in expected.items() if reported.get(key) is not holds)
    unexpected = sum(1 for key in reported if key not in expected)
    return wrong + unexpected
