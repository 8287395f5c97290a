"""Experiment runner: sweeps, timing collection and result records.

The harness turns the paper's evaluation into reproducible parameter sweeps.
An :class:`ExperimentResult` captures one (benchmark, size) point with the
four numbers the paper reports — Timepiece total wall time, per-node median
and 99th percentile, and the monolithic baseline's total time (or timeout) —
and the sweep functions return lists of such points, which
:mod:`repro.harness.tables` renders into the rows/series of Figures 1 and 14
and the Internet2 paragraph.

Engines are selected by :mod:`repro.verify` strategy objects: every sweep
takes a ``modular`` strategy and/or a ``monolithic`` strategy (``None``
skips that engine) and runs each point through a
:class:`~repro.verify.Session`, streaming per-condition events to an
optional ``on_event`` observer.  Benchmarks are constructed through
:mod:`repro.networks.registry`, the single validated build path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.results import ConditionResult, ModularReport, MonolithicReport
from repro.networks import registry
from repro.verify import Modular, Monolithic, Session

#: Streaming observer: called with every ConditionResult as it is produced.
EventObserver = Callable[[ConditionResult], None]


@dataclass
class ExperimentResult:
    """One data point of an experiment sweep."""

    experiment: str
    benchmark: str
    #: Topology size in nodes (the x-axis of Figures 1 and 14).
    nodes: int
    #: Extra parameters of this point (e.g. the fattree pod count ``k``).
    parameters: dict[str, object] = field(default_factory=dict)
    modular: ModularReport | None = None
    monolithic: MonolithicReport | None = None

    @property
    def modular_wall_time(self) -> float | None:
        return self.modular.wall_time if self.modular is not None else None

    @property
    def modular_median(self) -> float | None:
        return self.modular.median_node_time if self.modular is not None else None

    @property
    def modular_p99(self) -> float | None:
        return self.modular.p99_node_time if self.modular is not None else None

    @property
    def monolithic_wall_time(self) -> float | None:
        if self.monolithic is None:
            return None
        return self.monolithic.wall_time

    def as_row(self) -> dict[str, object]:
        """A flat dictionary used by the table printers."""
        return {
            "experiment": self.experiment,
            "benchmark": self.benchmark,
            "nodes": self.nodes,
            **self.parameters,
            "tp_total_s": _rounded(self.modular_wall_time),
            "tp_median_s": _rounded(self.modular_median),
            "tp_p99_s": _rounded(self.modular_p99),
            "tp_pass": None if self.modular is None else self.modular.passed,
            "tp_symmetry": None if self.modular is None else self.modular.symmetry,
            "tp_classes": None if self.modular is None else self.modular.symmetry_classes,
            "tp_discharged": None if self.modular is None else self.modular.conditions_discharged,
            "tp_conditions": None if self.modular is None else self.modular.conditions_checked,
            "tp_delta": None if self.modular is None else self.modular.delta,
            "tp_reused": None if self.modular is None else self.modular.conditions_reused,
            "tp_recheck": None if self.modular is None else self.modular.conditions_recheck,
            "tp_stopped": None if self.modular is None else self.modular.stopped_early,
            "tp_skipped": None if self.modular is None else self.modular.conditions_skipped,
            "ms_total_s": _rounded(self.monolithic_wall_time),
            "ms_outcome": self._monolithic_outcome(),
        }

    def to_json(self) -> dict[str, object]:
        """A JSON-serialisable record of this point, full reports included.

        The modular report's ``backend_cache`` counters ride along (both
        nested under ``modular`` and surfaced at the top level), so
        ``BENCH_*.json`` trajectories can track cache hit-rates across PRs.
        """
        return {
            "experiment": self.experiment,
            "benchmark": self.benchmark,
            "nodes": self.nodes,
            "parameters": dict(self.parameters),
            "row": self.as_row(),
            "modular": None if self.modular is None else self.modular.to_json(),
            "monolithic": None if self.monolithic is None else self.monolithic.to_json(),
            "backend_cache": None if self.modular is None else self.modular.backend_cache,
        }

    def _monolithic_outcome(self) -> str:
        return "skipped" if self.monolithic is None else self.monolithic.verdict


def _rounded(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


def results_to_json(results: Sequence[ExperimentResult]) -> list[dict[str, object]]:
    """The harness' machine-readable output: one record per sweep point."""
    return [result.to_json() for result in results]


#: The default strategies of every sweep (the paper's configuration).
DEFAULT_MODULAR = Modular()
DEFAULT_MONOLITHIC = Monolithic(timeout=60.0)


def run_point(
    experiment: str,
    benchmark_name: str,
    annotated: AnnotatedNetwork,
    nodes: int,
    modular: Modular | None = DEFAULT_MODULAR,
    monolithic: Monolithic | None = DEFAULT_MONOLITHIC,
    parameters: dict[str, object] | None = None,
    on_event: EventObserver | None = None,
    lint: str | None = None,
) -> ExperimentResult:
    """Run one (benchmark, size) point under the given strategies.

    Each non-``None`` strategy runs in its own :class:`Session`, and every
    engine's stream is routed through ``on_event`` — modular events arrive
    per condition as batches are discharged (live even for parallel runs),
    the monolithic baseline emits its single whole-network verdict event —
    so ``--progress`` consumers see baseline verdicts too.  ``lint``
    ("warn" | "strict") runs the static-analysis passes once, before the
    first engine dispatches (strict mode raises
    :class:`~repro.errors.AnalysisError` with zero solver work).
    """
    result = ExperimentResult(
        experiment=experiment,
        benchmark=benchmark_name,
        nodes=nodes,
        parameters=dict(parameters or {}),
    )
    if modular is not None:
        result.modular = _observed_run(annotated, modular, on_event, lint=lint)
        # Lint once per point: the network is the same for the baseline run.
        lint = None
    if monolithic is not None:
        result.monolithic = _observed_run(annotated, monolithic, on_event, lint=lint)
    return result


def _observed_run(annotated, strategy, on_event: EventObserver | None, lint: str | None = None):
    """One engine run with its event stream routed through the observer."""
    with Session(annotated, strategy) as session:
        for event in session.stream(lint=lint):
            if on_event is not None:
                on_event(event)
        return session.report


def sweep_fattree(
    policy: str,
    pod_counts: Sequence[int],
    all_pairs: bool = False,
    modular: Modular | None = DEFAULT_MODULAR,
    monolithic: Monolithic | None = DEFAULT_MONOLITHIC,
    experiment: str = "figure14",
    on_event: EventObserver | None = None,
    lint: str | None = None,
) -> list[ExperimentResult]:
    """Sweep one fattree benchmark over a list of pod counts ``k``."""
    results: list[ExperimentResult] = []
    for pods in pod_counts:
        benchmark = registry.build(f"fattree/{policy}", pods=pods, all_pairs=all_pairs)
        results.append(
            run_point(
                experiment,
                benchmark.name,
                benchmark.annotated,
                nodes=benchmark.node_count,
                modular=modular,
                monolithic=monolithic,
                parameters={"pods": pods},
                on_event=on_event,
                lint=lint,
            )
        )
    return results


def sweep_wan(
    peer_counts: Sequence[int],
    internal_routers: int = 10,
    modular: Modular | None = DEFAULT_MODULAR,
    monolithic: Monolithic | None = DEFAULT_MONOLITHIC,
    experiment: str = "internet2",
    on_event: EventObserver | None = None,
    lint: str | None = None,
) -> list[ExperimentResult]:
    """Sweep the BlockToExternal benchmark over external-peer counts."""
    results: list[ExperimentResult] = []
    for peers in peer_counts:
        benchmark = registry.build(
            "wan/block_to_external", internal_routers=internal_routers, external_peers=peers
        )
        results.append(
            run_point(
                experiment,
                benchmark.name,
                benchmark.annotated,
                nodes=benchmark.node_count,
                modular=modular,
                monolithic=monolithic,
                parameters={"internal": internal_routers, "external": peers},
                on_event=on_event,
                lint=lint,
            )
        )
    return results


def scaling_comparison(
    policy: str,
    pod_counts: Sequence[int],
    modular: Modular | None = DEFAULT_MODULAR,
    monolithic: Monolithic | None = DEFAULT_MONOLITHIC,
    on_event: EventObserver | None = None,
    lint: str | None = None,
) -> list[ExperimentResult]:
    """The Figure 1 sweep: modular vs monolithic time as the fattree grows."""
    return sweep_fattree(
        policy,
        pod_counts,
        all_pairs=False,
        modular=modular,
        monolithic=monolithic,
        experiment="figure1",
        on_event=on_event,
        lint=lint,
    )
