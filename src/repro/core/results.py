"""Result types and timing statistics for the modular checker.

The paper reports, for every benchmark, the total wall-clock time of the
modular run, the median per-node check time, the 99th-percentile per-node
check time and the monolithic baseline's total time.  The classes here carry
exactly those numbers so the benchmark harness can print Figure 14-style
rows directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.counterexample import Counterexample


@dataclass
class ConditionResult:
    """Outcome of one verification condition at one node."""

    node: str
    condition: str  # "initial" | "inductive" | "safety"
    holds: bool
    duration: float
    counterexample: Counterexample | None = None
    #: When this passing verdict was copied from the representative of a
    #: destination-quotient class instead of discharged, that representative.
    #: A query answered from the solver's answer memo is not a propagation
    #: (it counts in ``backend_cache["answer_hits"]``).
    propagated_from: str | None = None
    #: True when the delta re-verification layer reused a verdict from the
    #: persistent store (``Modular(delta="reuse")``) instead of discharging
    #: or propagating a fresh one this run.  Reused verdicts are always
    #: passes: failing conditions are re-discharged so counterexamples are
    #: fresh.
    reused: bool = False
    #: Symmetry provenance: ``"destination"`` when the node was checked as a
    #: member of a destination-permutation quotient class — a pass is the
    #: class's canonical instance, a failure the node's own raw condition;
    #: ``None`` otherwise.  See :mod:`repro.core.symmetry` and
    #: ``docs/DIAGNOSTICS.md``.
    quotient: str | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class NodeReport:
    """Outcome of all conditions checked at one node."""

    node: str
    results: list[ConditionResult]
    duration: float

    @property
    def passed(self) -> bool:
        return all(result.holds for result in self.results)

    @property
    def failures(self) -> list[ConditionResult]:
        return [result for result in self.results if not result.holds]

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"node {self.node!r}: {status} in {self.duration:.3f}s"]
        for failure in self.failures:
            if failure.counterexample is not None:
                lines.append(failure.counterexample.describe())
        return "\n".join(lines)


def _jsonable(value: object) -> object:
    """Recursively coerce evaluated model values to JSON-encodable shapes.

    Route payloads evaluate to dicts whose values may be frozensets (community
    sets), tuples, or nested records; JSON has no set type, so sets render as
    sorted lists.
    """
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` percentile (nearest-rank) of a non-empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ModularReport:
    """Outcome of a whole modular verification run."""

    node_reports: dict[str, NodeReport]
    wall_time: float
    parallelism: int = 1
    #: The symmetry mode the run used ("off" | "classes").
    symmetry: str = "off"
    #: Number of symmetry classes the nodes were partitioned into
    #: (``None`` when symmetry reduction was off).
    symmetry_classes: int | None = None
    #: Incremental-backend cache counters accumulated over the run
    #: (bit-blast and Tseitin hits/misses, SAT scopes, learned clauses —
    #: see ``IncrementalSolver.cache_statistics``).  Parallel runs sum the
    #: per-work-item deltas measured inside the workers.  ``None`` when the
    #: report was merged without counters.
    backend_cache: dict[str, int] | None = None
    #: True when run-level ``stop_on_failure`` halted scheduling after the
    #: first failing batch (see :class:`repro.verify.Modular`).
    stopped_early: bool = False
    #: Conditions without a verdict because the run stopped early: one per
    #: condition kind for every selected node that received none —
    #: nodes never scheduled, plus (in parallel runs) nodes whose in-flight
    #: batch was discarded when the pool was stopped.  Always 0 for runs
    #: that were not stopped.
    conditions_skipped: int = 0
    #: The delta re-verification mode the run used ("off" | "reuse").
    delta: str = "off"
    #: Static-analysis diagnostics attached by ``Session.run(lint="warn")``
    #: (:class:`repro.analysis.Diagnostic` objects; kept untyped here so the
    #: core result types stay import-independent of the analysis layer).
    #: Empty when the run did not lint.  Lint diagnostics never change the
    #: verdict — ``lint="strict"`` raises before a report exists.
    diagnostics: list = field(default_factory=list)
    #: Adaptive-scheduler statistics from the parallel dispatcher (``None``
    #: for ``parallel=1`` runs or when nothing was scheduled): ``workers``
    #: (distinct processes that checked classes) and ``window`` (histogram:
    #: prefetch-window size → number of class dispatches made at that
    #: window).  See :mod:`repro.core.parallel`.
    scheduler: dict | None = None

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.node_reports.values())

    @property
    def verdict(self) -> str:
        """The :class:`repro.verify.Report` verdict (``"pass"``/``"fail"``)."""
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict[str, object]:
        """A JSON-serialisable projection (the :class:`repro.verify.Report` shape).

        Carries the paper's headline numbers, the symmetry ablation counts,
        the per-node verdicts and the incremental-backend cache counters —
        the latter so ``BENCH_*.json`` trajectories can track cache
        hit-rates across PRs.
        """
        return {
            "engine": "modular",
            "verdict": self.verdict,
            "wall_time_s": self.wall_time,
            "parallelism": self.parallelism,
            "symmetry": self.symmetry,
            "symmetry_classes": self.symmetry_classes,
            "conditions_checked": self.conditions_checked,
            "conditions_discharged": self.conditions_discharged,
            "conditions_propagated": self.conditions_propagated,
            "conditions_skipped": self.conditions_skipped,
            "conditions_reused": self.conditions_reused,
            "conditions_recheck": self.conditions_recheck,
            "delta": self.delta,
            "stopped_early": self.stopped_early,
            "scheduler": self.scheduler,
            "median_node_time_s": self.median_node_time,
            "p99_node_time_s": self.p99_node_time,
            "max_node_time_s": self.max_node_time,
            "failed_nodes": self.failed_nodes,
            "backend_cache": self.backend_cache,
            "diagnostics": [diagnostic.to_json() for diagnostic in self.diagnostics],
            "nodes": {
                node: {
                    "passed": report.passed,
                    "duration_s": report.duration,
                    "results": [
                        {
                            "condition": result.condition,
                            "holds": result.holds,
                            "propagated_from": result.propagated_from,
                            "reused": result.reused,
                            "quotient": result.quotient,
                        }
                        for result in report.results
                    ],
                }
                for node, report in self.node_reports.items()
            },
        }

    @property
    def conditions_checked(self) -> int:
        """Total conditions with a verdict, discharged or propagated."""
        return sum(len(report.results) for report in self.node_reports.values())

    @property
    def conditions_discharged(self) -> int:
        """Conditions actually handed to the SMT backend."""
        return sum(
            1
            for report in self.node_reports.values()
            for result in report.results
            if result.propagated_from is None and not result.reused
        )

    @property
    def conditions_propagated(self) -> int:
        """Conditions whose verdict was reused from a class representative *this run*."""
        return sum(
            1
            for report in self.node_reports.values()
            for result in report.results
            if result.propagated_from is not None and not result.reused
        )

    @property
    def conditions_reused(self) -> int:
        """Conditions whose verdict came from the delta store, not this run."""
        return sum(
            1
            for report in self.node_reports.values()
            for result in report.results
            if result.reused
        )

    @property
    def conditions_recheck(self) -> int:
        """Conditions that received a fresh verdict this run (not store-reused)."""
        return self.conditions_checked - self.conditions_reused

    @property
    def failed_nodes(self) -> list[str]:
        return [node for node, report in self.node_reports.items() if not report.passed]

    @property
    def node_times(self) -> list[float]:
        return [report.duration for report in self.node_reports.values()]

    @property
    def total_node_time(self) -> float:
        """Sum of per-node check times (the sequential cost)."""
        return sum(self.node_times)

    @property
    def median_node_time(self) -> float:
        return percentile(self.node_times, 0.5)

    @property
    def p99_node_time(self) -> float:
        return percentile(self.node_times, 0.99)

    @property
    def max_node_time(self) -> float:
        return max(self.node_times, default=0.0)

    def counterexamples(self) -> list[Counterexample]:
        examples: list[Counterexample] = []
        for report in self.node_reports.values():
            for result in report.results:
                if result.counterexample is not None:
                    examples.append(result.counterexample)
        return examples

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failed_nodes)} nodes)"
        text = (
            f"modular check: {status}; wall {self.wall_time:.2f}s over "
            f"{len(self.node_reports)} nodes (median {self.median_node_time:.3f}s, "
            f"p99 {self.p99_node_time:.3f}s, max {self.max_node_time:.3f}s, "
            f"jobs={self.parallelism})"
        )
        if self.symmetry != "off":
            text += (
                f"; symmetry={self.symmetry}: {self.symmetry_classes} classes, "
                f"{self.conditions_discharged}/{self.conditions_checked} conditions discharged"
            )
        if self.scheduler is not None:
            text += (
                f"; scheduler: {self.scheduler.get('workers', 1)} workers, "
                f"windows {self.scheduler.get('window', {})}"
            )
        if self.delta != "off":
            text += (
                f"; delta={self.delta}: {self.conditions_reused}/{self.conditions_checked} "
                f"conditions reused, {self.conditions_recheck} rechecked"
            )
        if self.stopped_early:
            text += (
                f"; stopped early on failure ({self.conditions_skipped} conditions skipped)"
            )
        if self.diagnostics:
            by_severity: dict[str, int] = {}
            for diagnostic in self.diagnostics:
                severity = getattr(diagnostic, "severity", "info")
                by_severity[severity] = by_severity.get(severity, 0) + 1
            counts = ", ".join(f"{count} {severity}(s)" for severity, count in sorted(by_severity.items()))
            text += f"; lint: {counts}"
        return text


@dataclass
class MonolithicReport:
    """Outcome of the Minesweeper-style monolithic baseline."""

    passed: bool
    wall_time: float
    timed_out: bool = False
    counterexample: dict[str, object] | None = None
    symbolics: dict[str, object] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """The :class:`repro.verify.Report` verdict (``timeout`` beats ``fail``)."""
        if self.timed_out:
            return "timeout"
        return "pass" if self.passed else "fail"

    @property
    def backend_cache(self) -> dict[str, int] | None:
        """Always ``None``: the monolithic engine uses the stateless facade."""
        return None

    def to_json(self) -> dict[str, object]:
        """A JSON-serialisable projection (the :class:`repro.verify.Report` shape).

        Counterexample routes and symbolic values are evaluated model
        values, which include non-JSON types like frozen community sets;
        they are normalised so failing runs serialise as cleanly as
        passing ones.
        """
        return {
            "engine": "monolithic",
            "verdict": self.verdict,
            "wall_time_s": self.wall_time,
            "timed_out": self.timed_out,
            "counterexample": _jsonable(self.counterexample),
            "symbolics": _jsonable(self.symbolics),
            "backend_cache": self.backend_cache,
        }

    def summary(self) -> str:
        if self.timed_out:
            return f"monolithic check: TIMEOUT after {self.wall_time:.2f}s"
        status = "PASS" if self.passed else "FAIL"
        return f"monolithic check: {status} in {self.wall_time:.2f}s"


def merge_reports(
    reports: Iterable[NodeReport],
    wall_time: float,
    parallelism: int,
    symmetry: str = "off",
    symmetry_classes: int | None = None,
    backend_cache: dict[str, int] | None = None,
    stopped_early: bool = False,
    conditions_skipped: int = 0,
    delta: str = "off",
    scheduler: dict | None = None,
) -> ModularReport:
    """Assemble a :class:`ModularReport` from per-node reports.

    The report's node order is exactly the order of ``reports`` — callers
    pass nodes in their deterministic selection order, so report iteration,
    ``failed_nodes`` and counterexample enumeration are reproducible.
    """
    return ModularReport(
        node_reports={report.node: report for report in reports},
        wall_time=wall_time,
        parallelism=parallelism,
        symmetry=symmetry,
        symmetry_classes=symmetry_classes,
        backend_cache=backend_cache,
        stopped_early=stopped_early,
        conditions_skipped=conditions_skipped,
        delta=delta,
        scheduler=scheduler,
    )


def condition_verdicts(report: ModularReport) -> dict[str, list[tuple[str, bool]]]:
    """The per-node ``(condition, holds)`` pairs of a report.

    A timing-free projection of the report, used to compare runs that must
    agree on every verdict (e.g. every engine mode against the reference run).
    """
    return {
        node: [(result.condition, result.holds) for result in node_report.results]
        for node, node_report in report.node_reports.items()
    }
