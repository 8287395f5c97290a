"""Figure 1: modular vs monolithic verification time as the fattree grows.

The paper's Figure 1 plots Timepiece against a Minesweeper-style monolithic
encoding for fattrees of increasing size, showing the monolithic curve
blowing up (and timing out) while the modular curve grows gently.  This
benchmark regenerates that series (at scaled-down sizes) and prints it as a
table; the pytest-benchmark timings record the modular and monolithic runs
separately for the smallest sweep point.
"""

from __future__ import annotations

from repro.core import condition_verdicts
from repro.harness import (
    cache_statistics_table,
    scaling_comparison,
    scaling_table,
    symmetry_table,
)
from repro.networks import registry
from repro.smt.incremental import reset_process_solver
from repro.verify import Modular, Monolithic, verify


def test_figure1_series(benchmark, bench_pods, bench_timeout, bench_jobs, capsys):
    """Regenerate the Figure 1 data series (printed as a table)."""
    modular = Modular(parallel=bench_jobs)
    monolithic = Monolithic(timeout=bench_timeout)
    results = benchmark.pedantic(
        lambda: scaling_comparison("reach", bench_pods, modular=modular, monolithic=monolithic),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print("\n[Figure 1] modular vs monolithic verification time (policy: reach)")
        print(scaling_table(results))
    for point in results:
        assert point.modular is not None and point.modular.passed
        assert point.monolithic is not None
        assert point.monolithic.passed or point.monolithic.timed_out


def test_figure1_symmetry_scaling(bench_pods, bench_jobs, capsys):
    """Scaling comparison: per-node checking with and without the class partition.

    At every sweep point the two modes must agree on every verdict, and the
    conditions that reach the SAT core are bounded by a constant rather than
    the node count: single-destination Reach poses six distinct queries per
    condition kind (five at pods=2, where the destination's pod has no other
    edge switch), and the incremental solver's answer memo answers each once
    per worker, whatever ``1.25·k²`` grows to.  That is what makes the curve
    flat.
    """
    points = {"off": [], "classes": []}
    for mode in points:
        modular = Modular(symmetry=mode, parallel=bench_jobs)
        reset_process_solver()
        points[mode] = scaling_comparison("reach", bench_pods, modular=modular, monolithic=None)
        reset_process_solver()

    with capsys.disabled():
        print("\n[Figure 1b] per-node checking without and with the class partition (policy: reach)")
        for mode, results in points.items():
            print(f"\nsymmetry={mode}")
            print(symmetry_table(results))
        print()
        print(cache_statistics_table(points["classes"]))

    for off_point, classes_point in zip(points["off"], points["classes"]):
        assert condition_verdicts(off_point.modular) == condition_verdicts(classes_point.modular)
        report = classes_point.modular
        # 6 distinct queries × 3 condition kinds, once per worker's memo.
        answers = report.conditions_discharged - report.backend_cache["answer_hits"]
        assert answers <= 18 * bench_jobs


def test_benchmark_modular_smallest_point(benchmark, bench_pods):
    instance = registry.build("fattree/reach", pods=bench_pods[0])
    report = benchmark(lambda: verify(instance.annotated))
    assert report.passed


def test_benchmark_monolithic_smallest_point(benchmark, bench_pods, bench_timeout):
    instance = registry.build("fattree/reach", pods=bench_pods[0])
    report = benchmark(lambda: verify(instance.annotated, Monolithic(timeout=bench_timeout)))
    assert report.passed or report.timed_out
