"""One sample of one workload, measured in the process that runs this file.

``run.py`` starts this file in a fresh subprocess for every sample, because a
CLI user pays cold caches on every run: the process-wide bit-blaster and the
hash-consed term table survive ``reset_process_solver()``, so a second sample
in the same process would skip bit-blasting and interning and measure warm
caches instead.  The last line of standard output is the sample as JSON.

Everything before the timed ``verify(...)`` calls is set-up (importing
``repro``, building the network, drawing edits, the edit stream's cold
store-writing pass) and is reported as ``setup_s``.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from typing import Any, Sequence

SPINE = Path(__file__).resolve().parent
SRC = SPINE.parents[1] / "src"
for _entry in (str(SRC), str(SPINE)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import trace as spine_trace  # noqa: E402 - benchmarks/spine/trace.py, not the stdlib module
from workloads import BY_NAME, KINDS, Workload, count_failed, draw_edits, expected_verdicts  # noqa: E402


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children.

    ``getrusage`` rather than ``os.times()``: same clocks, microsecond instead
    of clock-tick resolution.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_sample(
    workload: Workload,
    *,
    workdir: str,
    smoke: bool = False,
    seed: int = 0,
    trace: bool = False,
    trace_out: str | None = None,
    started: float | None = None,
) -> dict[str, Any]:
    """Set up, run and check one sample of ``workload``; return its measurements."""
    started = time.perf_counter() if started is None else started
    from repro.networks import registry
    from repro.networks.benchmarks import inject_interface_failure
    from repro.smt.solver import GLOBAL_STATISTICS
    from repro.verify import Modular, verify

    tracer = spine_trace.install() if trace else None

    def span(name: str) -> Any:
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    try:
        parameters, edits = workload.sized(smoke)
        with span("networks.build"):
            instance = registry.build(workload.registry, **parameters)
            annotated = instance.annotated
        strategy = dict(workload.strategy)
        base_store = os.path.join(workdir, "base.json")
        work_store = os.path.join(workdir, "work.json")
        if edits:
            # Aggregation nodes in the destination's pod also fail their core
            # neighbours, so only the others have the one-node known answer.
            fattree, destination = instance.raw.fattree, instance.raw.destination
            candidates = [
                node
                for node in fattree.aggregation_nodes
                if fattree.pod_of(node) != fattree.pod_of(destination)
            ]
            cold = verify(annotated, Modular(**strategy, store=base_store))
            if not cold.passed:
                raise RuntimeError(f"cold store-writing pass failed at {cold.failed_nodes}")
            strategy["store"] = work_store
            runs = [
                (inject_interface_failure(annotated, node)[0], node)
                for node in draw_edits(candidates, edits, seed)
            ]
        else:
            runs = [(annotated, None)]
        modular = Modular(**strategy)
        setup_s = time.perf_counter() - started

        mark = tracer.mark() if tracer is not None else None
        statistics_before = GLOBAL_STATISTICS.snapshot()
        verify_s = verify_cpu_s = 0.0
        reports = []
        for target, edited in runs:
            if edited is not None:
                shutil.copyfile(base_store, work_store)
            cpu_before, wall_before = _cpu_seconds(), time.perf_counter()
            with span("session.run"):
                report = verify(target, modular)
            verify_s += time.perf_counter() - wall_before
            verify_cpu_s += _cpu_seconds() - cpu_before
            reports.append(report)
        statistics = GLOBAL_STATISTICS.since(statistics_before)
    finally:
        if tracer is not None:
            tracer.remove()

    attempted = failed = 0
    for (_, edited), report in zip(runs, reports):
        expected = expected_verdicts(workload.known_answer, annotated.nodes, edited)
        reported = {
            (result.node, result.condition): result.holds
            for node_report in report.node_reports.values()
            for result in node_report.results
        }
        attempted += len(expected)
        failed += count_failed(expected, reported)

    # Counts that need no wrapper, so every sample (traced or not) reports them
    # and run.py can check that they repeat exactly.
    counts: dict[str, float] = {
        "tseitin.clauses": statistics.clauses,
        "tseitin.vars": statistics.variables,
        "sat.conflicts": statistics.conflicts,
        "sat.decisions": statistics.decisions,
        "sat.propagations": statistics.propagations,
        "incremental.checks": statistics.checks,
    }
    if reports[0].symmetry_classes is not None:
        counts["symmetry.classes"] = reports[0].symmetry_classes
    if edits:
        counts["store.recheck_conditions"] = sum(r.conditions_recheck for r in reports) / edits

    sample: dict[str, Any] = {
        "workload": workload.name,
        "smoke": smoke,
        "seed": seed,
        "traced": trace,
        "verify_s": verify_s,
        "verify_cpu_s": verify_cpu_s,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
    }
    if tracer is not None:
        sample["layers"] = _layer_metrics(
            tracer, mark, reports, counts, verify_s, len(annotated.nodes), base_store if edits else None
        )
        if trace_out is not None:
            tracer.write_chrome_trace(trace_out)
    sample["peak_rss_mb"] = (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )
    return sample


def _layer_metrics(
    tracer: spine_trace.Tracer,
    mark: Any,
    reports: Sequence[Any],
    counts: dict[str, float],
    verify_s: float,
    nodes: int,
    store_path: str | None,
) -> dict[str, float]:
    """The per-layer metrics of one traced sample (timed part only, by name).

    ``*_s`` values are self times, so they sum to ``session.run_s``; metrics
    of layers the workload does not exercise are left out.
    """
    from repro.core.results import percentile
    from repro.smt.incremental import add_cache_statistics

    since, leaves_before = mark

    cache: dict[str, int] = {}
    for report in reports:
        cache = add_cache_statistics(cache, report.backend_cache or {})
    discharged = sum(report.conditions_discharged for report in reports)
    checked = sum(report.conditions_checked for report in reports)
    reused = sum(report.conditions_reused for report in reports)

    condition_calls = len(tracer.named("conditions.node_conditions", since))
    canonical_calls = len(tracer.named("conditions.canonical_node_conditions", since))
    checks = tracer.named("incremental.check", since)
    solves = tracer.named("sat.solve", since)
    roots = tracer.named("session.run", since)
    clauses_shipped, load_s = tracer.leaf("sat.load", leaves_before)
    solve_ms = [span.duration * 1e3 for span in solves]
    # Per-node check time the way the paper plots it: the summed durations of
    # the conditions a node had discharged this run.
    node_ms = []
    for report in reports:
        for node_report in report.node_reports.values():
            fresh = [
                result.duration
                for result in node_report.results
                if not result.reused and result.propagated_from is None
            ]
            if fresh:
                node_ms.append(sum(fresh) * 1e3)
    run_s = sum(span.duration for span in roots)
    session_self_s = sum(span.self_s for span in roots)

    layers: dict[str, float] = dict(counts)
    layers.update(
        {
            "networks.build_s": tracer.named("networks.build")[0].duration,
            "networks.nodes": nodes,
            "conditions.build_s": tracer.self_seconds("conditions.", since),
            "conditions.calls": condition_calls + canonical_calls,
            # node_conditions builds all three kinds on every call.
            "conditions.built": condition_calls * len(KINDS),
            "conditions.built_per_discharged": _share(condition_calls * len(KINDS), discharged),
            "bitblast.blast_s": tracer.self_seconds("bitblast.", since),
            "bitblast.calls": len(tracer.named("bitblast.blast", since)),
            "bitblast.hit_share": _share(
                cache.get("bitblast_hits", 0),
                cache.get("bitblast_hits", 0) + cache.get("bitblast_misses", 0),
            ),
            "tseitin.encode_s": tracer.self_seconds("tseitin.", since),
            "tseitin.hit_share": _share(
                cache.get("tseitin_hits", 0),
                cache.get("tseitin_hits", 0) + cache.get("tseitin_misses", 0),
            ),
            "incremental.check_s": sum(span.duration for span in checks),
            "incremental.self_s": sum(span.self_s for span in checks),
            "incremental.scopes": cache.get("scopes", 0),
            "incremental.guard_hit_share": _share(
                cache.get("guard_hits", 0),
                cache.get("guard_hits", 0) + cache.get("guard_misses", 0),
            ),
            "incremental.clauses_shipped": clauses_shipped,
            "incremental.clauses_shipped_per_check": _share(clauses_shipped, len(checks)),
            "sat.load_s": load_s,
            "sat.solve_s": tracer.self_seconds("sat.solve", since),
            "sat.solves": len(solves),
            "sat.learned": cache.get("clauses_learned", 0),
            "sat.solve_p90_ms": percentile(solve_ms, 0.9),
            "sat.solve_max_ms": max(solve_ms, default=0.0),
            "checker.check_s": tracer.self_seconds("checker.", since),
            "checker.node_check_p50_ms": percentile(node_ms, 0.5),
            "checker.node_check_p90_ms": percentile(node_ms, 0.9),
            "checker.node_check_max_ms": max(node_ms, default=0.0),
            "session.run_s": run_s,
            "session.self_s": session_self_s,
            "session.unattributed_share": _share(session_self_s, run_s),
        }
    )
    if reports[0].symmetry_classes is not None:
        layers["symmetry.partition_s"] = tracer.self_seconds("symmetry.", since)
        layers["symmetry.discharged_share"] = _share(discharged, checked)
    if store_path is not None:
        layers["fingerprint.deps_s"] = tracer.self_seconds("fingerprint.", since)
        layers["fingerprint.calls"] = sum(
            1 for span in tracer.spans[since:] if span.name.startswith("fingerprint.")
        )
        layers["store.open_s"] = tracer.self_seconds("store.open", since)
        layers["store.save_s"] = tracer.self_seconds("store.save", since)
        layers["store.bytes"] = os.path.getsize(store_path)
        layers["store.reused_share"] = _share(reused, checked)
    workers = reports[0].parallelism
    if workers > 1:
        scheduler = reports[0].scheduler or {}
        busy_s = sum(
            result.duration
            for report in reports
            for node_report in report.node_reports.values()
            for result in node_report.results
        )
        layers["parallel.workers"] = workers
        # Node batches are one work item per re-checked node; class batches
        # record every dispatch in the scheduler's window histogram.
        layers["parallel.items"] = (
            sum(scheduler["window"].values()) if scheduler else len(node_ms)
        )
        layers["parallel.classes_stolen"] = scheduler.get("classes_stolen", 0)
        layers["parallel.worker_busy_share"] = _share(busy_s, workers * verify_s)
    return layers


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one spine sample in this process")
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--workdir", required=True, help="existing scratch directory for the store")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None, help="write a Chrome-trace JSON here")
    arguments = parser.parse_args(argv)
    sample = run_sample(
        BY_NAME[arguments.workload],
        workdir=arguments.workdir,
        smoke=arguments.smoke,
        seed=arguments.seed,
        trace=arguments.trace,
        trace_out=arguments.trace_out,
        started=_PROCESS_STARTED,
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
