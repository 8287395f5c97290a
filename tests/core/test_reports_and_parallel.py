"""Tests for counterexample rendering, report aggregation and the parallel runner."""

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.counterexample import Counterexample
from repro.core.parallel import iter_class_batches
from repro.core.results import (
    ConditionResult,
    ModularReport,
    MonolithicReport,
    NodeReport,
    merge_reports,
    percentile,
)
from repro import core
from repro.core.symmetry import partition_nodes, singleton_classes
from repro.routing import path_topology, shortest_path_network
from repro.smt.incremental import reset_process_solver
from repro.verify import Modular, verify


class TestCounterexampleRendering:
    def test_describe_mentions_all_parts(self):
        counterexample = Counterexample(
            node="v",
            condition="inductive",
            time=3,
            neighbor_routes={"w": {"lp": 100, "len": 1}, "n": None},
            route={"lp": 100, "len": 2},
            symbolics={"dest": 4},
        )
        text = counterexample.describe()
        assert "node 'v'" in text
        assert "t = 3" in text
        assert "'w' sends ⟨lp=100, len=1⟩" in text
        assert "'n' sends ∞" in text
        assert "symbolic 'dest' = 4" in text
        assert str(counterexample) == text

    def test_describe_for_initial_condition(self):
        counterexample = Counterexample(node="d", condition="initial", time=0, route=None)
        text = counterexample.describe()
        assert "initial" in text and "∞" in text


class TestReports:
    def _result(self, node, holds, duration=0.1):
        return ConditionResult(node=node, condition="initial", holds=holds, duration=duration)

    def test_node_report_aggregation(self):
        passing = NodeReport("a", [self._result("a", True)], duration=0.2)
        failing = NodeReport(
            "b",
            [
                self._result("b", True),
                ConditionResult(
                    "b",
                    "safety",
                    False,
                    0.1,
                    Counterexample(node="b", condition="safety"),
                ),
            ],
            duration=0.3,
        )
        assert passing.passed and bool(passing.results[0])
        assert not failing.passed
        assert len(failing.failures) == 1
        assert "FAIL" in failing.describe()

        merged = merge_reports([passing, failing], wall_time=0.5, parallelism=2)
        assert not merged.passed
        assert merged.failed_nodes == ["b"]
        assert merged.total_node_time == 0.5
        assert len(merged.counterexamples()) == 1
        assert "FAIL" in merged.summary()

    def test_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.5) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_monolithic_report_summaries(self):
        assert "PASS" in MonolithicReport(passed=True, wall_time=1.0).summary()
        assert "FAIL" in MonolithicReport(passed=False, wall_time=1.0).summary()
        assert "TIMEOUT" in MonolithicReport(passed=False, wall_time=1.0, timed_out=True).summary()

    def test_empty_modular_report(self):
        report = ModularReport(node_reports={}, wall_time=0.0)
        assert report.passed
        assert report.max_node_time == 0.0


class TestParallelRunner:
    def _annotated(self):
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(("n0", "n1", "n2"))
        }
        return core.annotate(network, interfaces)

    def test_parallel_runner_returns_one_report_per_node(self, check_classes, assert_scopes_follow_size):
        # Forked workers inherit this process's solver and its answers: start
        # from none, so the workers really solve.
        reset_process_solver()
        annotated = self._annotated()
        reports, totals = check_classes(annotated, singleton_classes(annotated.nodes), jobs=2)
        # Reports come back in node order regardless of completion order,
        # and the workers' cache deltas are summed for the caller.
        assert tuple(report.node for report in reports) == annotated.nodes
        assert all(report.passed for report in reports)
        assert totals is not None and totals["guard_hits"] + totals["guard_misses"] > 0
        assert_scopes_follow_size(totals)

    def test_single_job_runs_in_process(self, check_classes, assert_scopes_follow_size):
        annotated = self._annotated()
        reports, totals = check_classes(annotated, singleton_classes(("n1",)), jobs=1)
        assert len(reports) == 1 and reports[0].node == "n1"
        assert totals is not None
        assert_scopes_follow_size(totals)
        assert multiprocessing.active_children() == []

    def test_counterexamples_survive_the_process_boundary(self):
        topology = path_topology(2)
        network = shortest_path_network(topology, "n0")
        annotated = core.annotate(
            network, {node: core.globally(lambda r: r.is_some) for node in topology.nodes}
        )
        report = verify(annotated, Modular(parallel=2))
        assert not report.passed
        assert report.counterexamples()

    def test_pool_setup_failure_warns_and_degrades_to_sequential(
        self, no_process_pool, check_classes, assert_scopes_follow_size
    ):
        reset_process_solver()  # no earlier answers: the degraded run really solves
        annotated = self._annotated()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            reports, totals = check_classes(
                annotated, singleton_classes(annotated.nodes), jobs=2
            )
        assert sorted(report.node for report in reports) == sorted(annotated.nodes)
        assert all(report.passed for report in reports)
        # The degraded run executed in-process, where the cache counters are
        # observable — it must report deltas exactly like the pool path.
        assert totals is not None
        assert_scopes_follow_size(totals)
        # Guard-table lookups happen on every assertion, so a degraded run
        # always reports activity (tseitin counters can be all-hits-elsewhere
        # when an earlier run in this process already encoded the terms).
        assert totals["guard_hits"] + totals["guard_misses"] > 0

    def test_degraded_parallel_run_still_reports_backend_cache(
        self, no_process_pool, assert_scopes_follow_size
    ):
        """A parallel>1 engine run that silently degrades to sequential must
        not lose the cache statistics the in-process run can observe."""
        annotated = self._annotated()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = verify(annotated, Modular(parallel=2))
        assert report.passed
        assert report.backend_cache is not None
        assert_scopes_follow_size(report.backend_cache)

    def test_worker_crashes_propagate_instead_of_rerunning_sequentially(self, check_classes):
        # A crashing interface used to be swallowed by a blanket
        # ``except Exception`` that silently reran everything sequentially —
        # which would crash again, but only after masking where the error
        # came from (and retrying work that was never going to succeed).
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")

        def exploding_predicate(route):
            raise RuntimeError("worker exploded")

        annotated = core.annotate(
            network,
            {node: core.globally(exploding_predicate) for node in topology.nodes},
        )
        with pytest.raises(RuntimeError, match="worker exploded"):
            check_classes(annotated, singleton_classes(annotated.nodes), jobs=2)
        _assert_no_orphaned_workers()


def _assert_no_orphaned_workers():
    """Every pool worker must be reaped once the dispatcher winds down."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


class TestStreamingDispatcher:
    def _annotated(self, length=6):
        topology = path_topology(length)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        return core.annotate(network, interfaces)

    def _batches(self, annotated, classes):
        return iter_class_batches(annotated, classes, delay=0, jobs=2)

    def test_batches_carry_submission_indices_and_deltas(self, assert_scopes_follow_size):
        reset_process_solver()  # workers inherit no answers, so each batch solves
        annotated = self._annotated()
        batches = list(self._batches(annotated, singleton_classes(annotated.nodes)))
        assert sorted(index for index, _, _ in batches) == list(range(len(annotated.nodes)))
        for index, reports, delta in batches:
            assert [report.node for report in reports] == [annotated.nodes[index]]
            assert delta["guard_hits"] + delta["guard_misses"] > 0
            assert_scopes_follow_size(delta)
        _assert_no_orphaned_workers()

    def test_closing_the_stream_stops_dispatch_without_orphans(self):
        annotated = self._annotated(length=8)
        batches = self._batches(annotated, singleton_classes(annotated.nodes))
        next(batches)
        batches.close()
        _assert_no_orphaned_workers()

    def test_class_batches_drain_in_class_order(self, check_classes, assert_scopes_follow_size):
        """Draining class batches returns member reports in class order with
        summed worker deltas."""
        annotated = self._annotated()
        classes = partition_nodes(annotated, annotated.nodes, delay=0)
        reports, totals = check_classes(annotated, classes, jobs=2)
        expected = [member for cls in classes for member in cls]
        assert [report.node for report in reports] == expected
        assert totals is not None
        assert_scopes_follow_size(totals)
        _assert_no_orphaned_workers()

    def test_crash_propagates_from_streaming_engine_run(self):
        """A crashing batch surfaces through verify() too, with no silent
        sequential rerun and no leaked pool."""
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")

        def exploding_predicate(route):
            raise RuntimeError("worker exploded")

        annotated = core.annotate(
            network,
            {node: core.globally(exploding_predicate) for node in topology.nodes},
        )
        with pytest.raises(RuntimeError, match="worker exploded"):
            verify(annotated, Modular(parallel=2))
        _assert_no_orphaned_workers()

    def test_event_order_within_a_batch_is_stable(self):
        """Whole-stream order depends on completion timing, but each node's
        events stay contiguous and in canonical condition order."""
        annotated = self._annotated()
        for _ in range(2):
            from repro.verify import Session

            with Session(annotated, Modular(parallel=2)) as session:
                events = list(session.stream())
            seen = []
            for event in events:
                if not seen or seen[-1] != event.node:
                    seen.append(event.node)
            # Contiguous: each node appears exactly once in the arrival order.
            assert len(seen) == len(set(seen)) == len(annotated.nodes)
            by_node = {}
            for event in events:
                by_node.setdefault(event.node, []).append(event.condition)
            for conditions in by_node.values():
                assert conditions == list(core.CONDITION_KINDS)


def _run_script(script, *arguments, **popen_options):
    """Start ``script`` in a fresh interpreter that can import ``repro``."""
    source = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), *sys.path])}
    return subprocess.Popen(
        [sys.executable, "-c", script, *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=environment,
        **popen_options,
    )


class TestPoolTeardown:
    """How the pool ends: an early stop never kills, an interrupt always exits."""

    def test_early_stop_lets_workers_exit_on_their_own(self, one_failing_node_annotated):
        annotated = one_failing_node_annotated()
        batches = iter_class_batches(annotated, singleton_classes(annotated.nodes), delay=0, jobs=2)
        next(batches)
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        batches.close()
        # A SIGTERMed worker would report -15.
        assert [worker.exitcode for worker in workers] == [0, 0]
        _assert_no_orphaned_workers()

    # Killing workers on an early stop deadlocks ``Pool.terminate()`` when the
    # signal lands on a worker inside one of the pool's queue locks: about one
    # stop in a hundred on this network.  Probabilistic by nature — against a
    # terminating teardown this times out roughly every other run.
    STOP_LOOP = """
from repro import core
from repro.routing import path_topology, shortest_path_network
from repro.verify import Modular, verify

topology = path_topology(5)
has_route = core.globally(lambda r: r.is_some)
interfaces = {node: core.finally_(1, has_route) for node in topology.nodes}
interfaces["n2"] = has_route
annotated = core.annotate(shortest_path_network(topology, "n2"), interfaces)
for _ in range(100):
    assert verify(annotated, Modular(parallel=2, stop_on_failure=True)).stopped_early
"""

    def test_a_hundred_early_stops_never_deadlock_the_pool(self):
        process = _run_script(self.STOP_LOOP)
        try:
            assert process.wait(timeout=120) == 0
        finally:
            process.kill()

    # The terminal sends Ctrl-C to the whole foreground process group, so
    # the workers get the signal too.
    INTERRUPTED_RUN = """
import sys, time
from repro.networks import registry
from repro.verify import Modular, Session

annotated = registry.build("fattree/reach", pods=8).annotated
with Session(annotated, Modular(parallel=2)) as session:
    for _ in session.stream():
        print("running", flush=True)
        time.sleep(float(sys.argv[1]))
print("finished", flush=True)
"""

    @pytest.mark.parametrize("consumer_pause", ["0", "0.05"], ids=["waiting", "consuming"])
    def test_interrupting_the_process_group_ends_the_run(self, consumer_pause):
        """Whether the signal finds the parent waiting for a completion or in
        the consumer's own code, the run exits and leaves no process behind."""
        process = _run_script(self.INTERRUPTED_RUN, consumer_pause, start_new_session=True)
        try:
            assert process.stdout.readline() == "running\n"
            os.killpg(process.pid, signal.SIGINT)
            output, _ = process.communicate(timeout=30)
            assert process.returncode == -signal.SIGINT
            assert "finished" not in output
            # The session leader is gone; so must be the rest of its group.
            with pytest.raises(ProcessLookupError):
                os.killpg(process.pid, 0)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


    # An interface predicate that SIGKILLs whichever worker evaluates it, as
    # the OOM killer would; the parent builds nothing itself here.
    KILLED_WORKER = """
import multiprocessing, os, signal
from concurrent.futures.process import BrokenProcessPool
from repro import core
from repro.routing import path_topology, shortest_path_network
from repro.verify import Modular, verify

PARENT = os.getpid()

def kill_the_worker(route):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return route.is_some

topology = path_topology(12)
has_route = core.globally(lambda r: r.is_some)
interfaces = {node: core.finally_(index, has_route) for index, node in enumerate(topology.nodes)}
interfaces["n6"] = core.finally_(6, core.globally(kill_the_worker))
annotated = core.annotate(shortest_path_network(topology, "n0"), interfaces)
try:
    verify(annotated, Modular(parallel=2))
except BrokenProcessPool as error:
    print(f"BrokenProcessPool: {error}", flush=True)
    print(f"children: {len(multiprocessing.active_children())}", flush=True)
else:
    print("finished", flush=True)
"""

    def test_a_killed_worker_is_an_error_not_a_hang(self):
        process = _run_script(self.KILLED_WORKER, start_new_session=True)
        try:
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            lines = output.splitlines()
            assert lines[0].startswith("BrokenProcessPool: a worker of the 2-process pool died")
            assert lines[1:] == ["children: 0"]
            # Nothing of the run outlives it: its process group is empty.
            with pytest.raises(ProcessLookupError):
                os.killpg(process.pid, 0)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestReportJson:
    def test_failing_monolithic_report_serialises(self):
        import json

        report = MonolithicReport(
            passed=False,
            wall_time=1.0,
            counterexample={
                "node": {"communities": frozenset({"down", "up"}), "lp": 100, "path": (1, 2)}
            },
            symbolics={"hijack": frozenset({"x"})},
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["verdict"] == "fail"
        assert payload["counterexample"]["node"]["communities"] == ["down", "up"]
        assert payload["symbolics"]["hijack"] == ["x"]
