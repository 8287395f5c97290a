"""Tests for the adaptive class scheduler: windows, work-stealing, skew.

The destination quotient collapses all-pairs benchmarks into a handful of
classes — fewer classes than workers, and wildly uneven sizes.  These tests
pin the scheduler semantics on a *synthetic* skewed partition (one giant
class plus singletons over a cheap path network), independent of the
quotient itself: the split plan is deterministic, splits keep multiple
workers busy, verdicts and report order match the unsplit plan, and the
crash / stop-on-failure / degrade contracts of the dispatcher hold on a
split plan too.
"""

import multiprocessing
import os

import pytest

from repro import core
from repro.core.parallel import (
    MAX_WINDOW,
    SchedulerStats,
    _class_work_items,
    _window_size,
)
from repro.core.symmetry import SymmetryClass
from repro.routing import path_topology, shortest_path_network
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


class TestWindowSize:
    def test_decays_to_one_at_the_tail(self):
        assert _window_size(1, 4) == 1
        assert _window_size(4, 4) == 1
        assert _window_size(0, 4) == 1

    def test_grows_with_backlog_up_to_the_cap(self):
        assert _window_size(8, 4) == 2
        assert _window_size(9, 4) == 3
        assert _window_size(1000, 4) == MAX_WINDOW

    def test_degenerate_worker_counts(self):
        assert _window_size(10, 0) == 1
        assert _window_size(10, -1) == 1


def _classes(*groups):
    return [SymmetryClass(key=index, members=tuple(group)) for index, group in enumerate(groups)]


class TestSplitPlan:
    def test_splits_largest_class_in_place_until_workers_covered(self):
        classes = _classes(("a", "b", "c", "d"), ("e",))
        stats = SchedulerStats()
        items = _class_work_items(classes, 4, stats)
        # The giant class splits into one item per condition kind, at its
        # original position, so dispatch order still follows class order.
        assert items == [(0, kind) for kind in core.CONDITION_KINDS] + [(1, None)]
        assert stats.classes_stolen == 1

    def test_plan_is_deterministic_on_ties(self):
        classes = _classes(("a", "b"), ("c", "d"), ("e", "f"))
        first = _class_work_items(classes, 8, SchedulerStats())
        second = _class_work_items(classes, 8, SchedulerStats())
        assert first == second
        # Ties break to the earliest class.
        assert first[0] == (0, core.CONDITION_KINDS[0])

    def test_enough_classes_or_a_single_job_never_split(self):
        classes = _classes(("a", "b", "c", "d"), ("e",))
        # jobs == len(classes) is the unsplit plan; so is the one-worker schedule.
        for jobs in (len(classes), 1):
            stats = SchedulerStats()
            items = _class_work_items(classes, jobs, stats)
            assert items == [(0, None), (1, None)]
            assert stats.classes_stolen == 0

    def test_spot_check_classes_are_never_split(self):
        classes = [
            SymmetryClass(key=0, members=("a", "b", "c", "d"), spot_member="b"),
            SymmetryClass(key=1, members=("e",)),
        ]
        stats = SchedulerStats()
        items = _class_work_items(classes, 8, stats)
        # Only the splittable singleton can be stolen; the spot-check class
        # must stay whole (its extra member is compared against the full
        # verdict vector in one place).
        assert (0, None) in items
        assert all(index != 0 or sub is None for index, sub in items)


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
            SymmetryClass(key="interior", members=("n1", "n2", "n3", "n4")),
            SymmetryClass(key="head", members=("n0",)),
            SymmetryClass(key="tail", members=("n5",)),
        ]

    def test_work_stealing_keeps_multiple_workers_busy(self, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        stats = SchedulerStats()
        reports, totals = check_classes(annotated, classes, jobs=4, stats=stats)
        # Deterministic report order: class order, members in member order.
        assert [report.node for report in reports] == [
            member for cls in classes for member in cls.members
        ]
        # 3 classes < 4 workers forced a split of the giant class...
        assert stats.classes_stolen >= 1
        # ...which kept at least two distinct worker processes busy.
        assert len(stats.worker_pids) >= 2
        assert sum(stats.window.values()) >= len(classes)
        assert totals is not None
        _assert_no_orphaned_workers()

    def test_split_and_unsplit_plans_agree_on_verdicts(self, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        split_stats, whole_stats = SchedulerStats(), SchedulerStats()
        split, _ = check_classes(annotated, classes, jobs=4, stats=split_stats)
        whole, _ = check_classes(annotated, classes, jobs=len(classes), stats=whole_stats)
        assert split_stats.classes_stolen >= 1
        assert whole_stats.classes_stolen == 0
        assert _verdicts(split) == _verdicts(whole)
        _assert_no_orphaned_workers()

    def test_split_plan_stops_each_node_at_its_first_failure(self, check_classes):
        # The interior nodes claim a route at time 0, so their initial
        # condition fails: the merged per-kind items must drop inductive and
        # safety exactly as an unsplit check does.
        annotated = self._annotated()
        interfaces = {node: annotated.interface(node) for node in annotated.nodes}
        for node in ("n1", "n2", "n3", "n4"):
            interfaces[node] = core.globally(lambda r: r.is_some)
        annotated = core.annotate(annotated.network, interfaces)
        classes = self._skewed_classes(annotated)
        split_stats = SchedulerStats()
        split, _ = check_classes(annotated, classes, jobs=4, stats=split_stats)
        whole, _ = check_classes(annotated, classes, jobs=len(classes))
        assert split_stats.classes_stolen >= 1
        assert _verdicts(split) == _verdicts(whole)
        interior = [report for report in split if report.node in classes[0].members]
        assert [(r.condition, r.holds) for report in interior for r in report.results] == [
            (core.INITIAL, False)
        ] * len(classes[0].members)
        _assert_no_orphaned_workers()

    def test_adaptive_runs_are_reproducible(self, check_classes):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        first, _ = check_classes(annotated, classes, jobs=4)
        second, _ = check_classes(annotated, classes, jobs=4)
        assert _verdicts(first) == _verdicts(second)
        _assert_no_orphaned_workers()

    def test_crash_propagates_through_split_plan(self, check_classes):
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

    def test_degraded_run_matches_pool_window_accounting(self, request, check_classes):
        """Satellite contract: the one-worker degrade path records the same
        adaptive window accounting the pool path would have used."""
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        pooled_stats = SchedulerStats()
        pooled, _ = check_classes(annotated, classes, jobs=4, stats=pooled_stats)

        request.getfixturevalue("no_process_pool")
        degraded_stats = SchedulerStats()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            degraded, _ = check_classes(annotated, classes, jobs=4, stats=degraded_stats)
        assert _verdicts(degraded) == _verdicts(pooled)
        assert degraded_stats.window == pooled_stats.window
        assert degraded_stats.classes_stolen == pooled_stats.classes_stolen
        assert degraded_stats.worker_pids == {os.getpid()}
        _assert_no_orphaned_workers()


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
        assert set(report.scheduler) == {"classes_stolen", "window", "workers"}
        assert "stopped early" in report.summary()
        assert "scheduler" in report.summary()
        _assert_no_orphaned_workers()

    def test_narrow_node_selection_splits_like_a_narrow_partition(self, reference_report):
        """symmetry="off" is the singleton partition: fewer selected nodes
        than workers get the per-kind split, with the reference verdicts."""
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        annotated = core.annotate(network, interfaces)
        reference = reference_report(annotated, nodes=("n1", "n2"))
        report = verify(annotated, Modular(parallel=4), nodes=("n1", "n2"))
        assert report.symmetry_classes is None
        assert report.scheduler is not None and report.scheduler["classes_stolen"] >= 1
        assert core.condition_verdicts(report) == core.condition_verdicts(reference)
        assert tuple(report.node_reports) == ("n1", "n2")
        _assert_no_orphaned_workers()

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
