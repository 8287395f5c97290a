"""Tests for the class scheduler: the run split, skew, teardown.

The destination quotient collapses all-pairs benchmarks into a handful of
classes — fewer classes than workers, and wildly uneven sizes.  These tests
pin the scheduler semantics on a *synthetic* skewed partition (one giant
class plus singletons over a cheap path network), independent of the
quotient itself: a class is the only work item, so the pool never has more
workers than classes, and report order, verdicts, per-node truncation and
the crash / stop-on-failure / degrade contracts of the dispatcher hold when
more workers are requested than there are classes.
"""

import multiprocessing
import os

import pytest

from repro import core
import repro.core.parallel as parallel_module
from repro.core.parallel import RUNS_PER_WORKER, SchedulerStats, split_runs
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.routing import path_topology, shortest_path_network
from repro.smt import reset_process_solver
from repro.verify import Modular, verify


def _assert_no_orphaned_workers():
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


def _verdicts(reports):
    return [
        (report.node, [(result.condition, result.holds) for result in report.results])
        for report in reports
    ]


class TestRunSplit:
    @pytest.mark.parametrize("count", [0, 1, 3, 7, 8, 9, 17, 80, 180, 2000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_runs_are_contiguous_and_cover_every_class_once_in_order(self, count, workers):
        runs = split_runs(count, workers)
        assert [index for run in runs for index in run] == list(range(count))
        assert all(run.step == 1 and len(run) > 0 for run in runs)
        assert len(runs) <= RUNS_PER_WORKER * workers

    @pytest.mark.parametrize("count, workers", [(180, 2), (2000, 2), (9, 2), (80, 3)])
    def test_runs_are_even_up_to_a_shorter_last_run(self, count, workers):
        runs = split_runs(count, workers)
        size = -(-count // (RUNS_PER_WORKER * workers))
        assert [len(run) for run in runs[:-1]] == [size] * (len(runs) - 1)
        assert 0 < len(runs[-1]) <= size

    def test_a_worker_gets_several_runs_once_classes_outnumber_them(self):
        assert len(split_runs(180, 2)) == RUNS_PER_WORKER * 2
        assert len(split_runs(5, 2)) == 5


class TestSkewedPartition:
    """End-to-end scheduler runs over a synthetic one-giant-class partition."""

    def _annotated(self, length=6):
        topology = path_topology(length)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        return core.annotate(network, interfaces)

    def _skewed_classes(self, annotated):
        # One giant class of the interior nodes (same in-degree, so the
        # class is structurally plausible) plus the endpoint singletons —
        # the shape the destination quotient produces on all-pairs runs.
        return [
            ("n1", "n2", "n3", "n4"),
            ("n0",),
            ("n5",),
        ]

    def test_more_workers_than_classes_keeps_report_order(self, monkeypatch, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        pool_sizes = []
        original = parallel_module._open_pool

        def record(active, processes):
            pool_sizes.append(processes)
            return original(active, processes)

        monkeypatch.setattr(parallel_module, "_open_pool", record)
        stats = SchedulerStats()
        reports, totals = check_classes(annotated, classes, jobs=4, stats=stats)
        # Deterministic report order: class order, members in member order.
        assert [report.node for report in reports] == [
            member for cls in classes for member in cls
        ]
        # A class is the only work item: 4 requested workers over 3 classes
        # make a pool of 3, and each class is dispatched once.
        assert pool_sizes == [len(classes)]
        assert sum(stats.window.values()) == len(classes)
        assert 1 <= len(stats.worker_pids) <= len(classes)
        assert os.getpid() not in stats.worker_pids
        assert totals is not None
        _assert_no_orphaned_workers()

    def test_more_workers_than_classes_agree_with_one_worker_per_class(self, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        wide, _ = check_classes(annotated, classes, jobs=4)
        exact, _ = check_classes(annotated, classes, jobs=len(classes))
        assert _verdicts(wide) == _verdicts(exact)
        _assert_no_orphaned_workers()

    def test_more_workers_than_classes_stop_each_node_at_its_first_failure(
        self, check_classes
    ):
        # The interior nodes claim a route at time 0, so their initial
        # condition fails: inductive and safety are never discharged.
        annotated = self._annotated()
        interfaces = {node: annotated.interface(node) for node in annotated.nodes}
        for node in ("n1", "n2", "n3", "n4"):
            interfaces[node] = core.globally(lambda r: r.is_some)
        annotated = core.annotate(annotated.network, interfaces)
        classes = self._skewed_classes(annotated)
        wide, _ = check_classes(annotated, classes, jobs=4)
        exact, _ = check_classes(annotated, classes, jobs=len(classes))
        assert _verdicts(wide) == _verdicts(exact)
        interior = [report for report in wide if report.node in classes[0]]
        assert [(r.condition, r.holds) for report in interior for r in report.results] == [
            (core.INITIAL, False)
        ] * len(classes[0])
        _assert_no_orphaned_workers()

    def test_adaptive_runs_are_reproducible(self, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        first, _ = check_classes(annotated, classes, jobs=4)
        second, _ = check_classes(annotated, classes, jobs=4)
        assert _verdicts(first) == _verdicts(second)
        _assert_no_orphaned_workers()

    def test_crash_propagates_with_more_workers_than_classes(self, check_classes):
        topology = path_topology(6)
        network = shortest_path_network(topology, "n0")

        def exploding_predicate(route):
            raise RuntimeError("worker exploded")

        annotated = core.annotate(
            network,
            {node: core.globally(exploding_predicate) for node in topology.nodes},
        )
        classes = self._skewed_classes(annotated)
        with pytest.raises(RuntimeError, match="worker exploded"):
            check_classes(annotated, classes, jobs=4)
        _assert_no_orphaned_workers()

    def test_degraded_run_reports_the_pool_run_histogram(self, request, check_classes):
        """The one-worker degrade path records the runs the pool dispatches:
        the same ``window`` histogram of classes per run."""
        annotated = self._annotated(length=24)
        classes = [(node,) for node in annotated.nodes]
        pooled_stats = SchedulerStats()
        pooled, _ = check_classes(annotated, classes, jobs=2, stats=pooled_stats)
        _assert_no_orphaned_workers()

        request.getfixturevalue("no_process_pool")
        degraded_stats = SchedulerStats()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            degraded, _ = check_classes(annotated, classes, jobs=2, stats=degraded_stats)
        assert _verdicts(degraded) == _verdicts(pooled)
        # 24 classes on 2 workers: 8 runs of 3.
        assert pooled_stats.window == degraded_stats.window == {3: 8}
        assert degraded_stats.worker_pids == {os.getpid()}


class TestSchedulerReportPlumbing:
    def test_stop_on_failure_and_scheduler_stats_in_report(self):
        topology = path_topology(4)
        network = shortest_path_network(topology, "n0")
        # Every interface claims the node never has a route: the source's
        # initial condition fails immediately.
        annotated = core.annotate(
            network, {node: core.globally(lambda r: r.is_none) for node in topology.nodes}
        )
        report = verify(
            annotated, Modular(symmetry="classes", parallel=2, stop_on_failure=True)
        )
        assert not report.passed
        assert report.stopped_early
        assert report.conditions_skipped > 0
        assert report.scheduler is not None
        assert set(report.scheduler) == {"window", "workers"}
        assert "stopped early" in report.summary()
        assert "scheduler" in report.summary()
        _assert_no_orphaned_workers()

    def test_one_class_never_forks(self, reference_report):
        """A run with one class left (here: a one-node selection, which
        symmetry="off" makes a singleton partition) runs in the calling
        process whatever the requested worker count."""
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        annotated = core.annotate(network, interfaces)
        _assert_no_orphaned_workers()
        report = verify(annotated, Modular(parallel=2), nodes=["n1"])
        assert report.scheduler == {"window": {1: 1}, "workers": 1}
        assert multiprocessing.active_children() == []
        reference = reference_report(annotated, nodes=["n1"])
        assert core.condition_verdicts(report) == core.condition_verdicts(reference)

    def test_sequential_run_reports_no_scheduler(self):
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        annotated = core.annotate(network, interfaces)
        report = verify(annotated, Modular(symmetry="classes"))
        assert report.passed
        assert report.scheduler is None


class TestFailureInsideARun:
    """A failing node in the middle of a several-class run reports exactly as
    on the one-worker schedule, whether or not the run stops at it."""

    @pytest.fixture(scope="class")
    def poisoned(self):
        annotated = registry.build("fattree/reach", pods=8).annotated
        # 80 singleton classes on 2 workers: runs of 10; class 15 sits in
        # the middle of the second.
        run = next(run for run in split_runs(len(annotated.nodes), 2) if 15 in run)
        assert run.start < 15 < run.stop - 1
        return inject_interface_failure(annotated, annotated.nodes[15])

    def _failures(self, report):
        return [
            (node, result.condition, result.counterexample)
            for node, node_report in report.node_reports.items()
            for result in node_report.failures
        ]

    def _runs(self, annotated, stop_on_failure):
        # Each schedule starts from an empty solver, so neither inherits the
        # other's answers (forked workers would).
        reports = []
        for parallel in (2, 1):
            reset_process_solver()
            reports.append(
                verify(annotated, Modular(parallel=parallel, stop_on_failure=stop_on_failure))
            )
        _assert_no_orphaned_workers()
        return reports

    def test_a_full_run_matches_the_one_worker_schedule(self, poisoned):
        annotated, node = poisoned
        pooled, sequential = self._runs(annotated, stop_on_failure=False)
        assert pooled.scheduler["window"] == {10: 8}
        assert pooled.failed_nodes == sequential.failed_nodes == [node]
        assert tuple(pooled.node_reports) == tuple(sequential.node_reports) == annotated.nodes
        assert core.condition_verdicts(pooled) == core.condition_verdicts(sequential)
        assert self._failures(pooled) == self._failures(sequential)
        assert self._failures(pooled)[0][2] is not None

    def test_a_stopped_run_keeps_reports_the_full_run_agrees_with(self, poisoned):
        annotated, node = poisoned
        full = verify(annotated, Modular())
        expected = core.condition_verdicts(full)
        for report in self._runs(annotated, stop_on_failure=True):
            assert report.stopped_early
            assert report.failed_nodes == [node]
            kept = core.condition_verdicts(report)
            assert list(kept) == [member for member in annotated.nodes if member in kept]
            assert all(kept[member] == expected[member] for member in kept)
            assert self._failures(report) == self._failures(full)
            assert report.conditions_skipped == len(core.CONDITION_KINDS) * (
                len(annotated.nodes) - len(kept)
            )
