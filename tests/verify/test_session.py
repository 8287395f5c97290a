"""Tests for :class:`repro.verify.Session`: streaming, reports, persistence."""

import multiprocessing

import pytest

from repro import core
from repro.core.results import condition_verdicts
from repro.errors import VerificationError
from repro.networks import registry
from repro.routing import build_running_example, path_topology, shortest_path_network
from repro.smt.incremental import reset_process_solver
from repro.verify import (
    Modular,
    Monolithic,
    Report,
    Session,
    Strawperson,
    is_report,
    verify,
)


@pytest.fixture(autouse=True)
def _isolate_process_solver():
    reset_process_solver()
    yield
    reset_process_solver()


def _figure8_annotated():
    example = build_running_example("symbolic")
    no_route = lambda r: r.is_none  # noqa: E731
    tagged = lambda r: r.is_some & r.payload.tag & (r.payload.lp == 100)  # noqa: E731
    interfaces = {
        "n": core.always_true(),
        "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
        "v": core.until(1, no_route, core.globally(tagged)),
        "d": core.until(2, no_route, core.globally(tagged)),
        "e": core.finally_(3, core.globally(lambda r: r.is_some)),
    }
    return core.annotate(example.network, interfaces)


class TestByteIdenticalVerdicts:
    def test_session_matches_reference_mode_on_k4_spreach(self, reference_report):
        """Acceptance: Session(Modular(symmetry="classes")) ≡ the reference."""
        benchmark = registry.build("fattree/reach", pods=4)
        reference = reference_report(benchmark.annotated)
        with Session(benchmark.annotated, Modular(symmetry="classes")) as session:
            modern = session.run()
        assert condition_verdicts(reference) == condition_verdicts(modern)
        assert reference.passed and modern.passed
        # No destination marker: every node is its own class.
        assert reference.symmetry_classes is None and modern.symmetry_classes == 20
        assert tuple(modern.node_reports) == tuple(reference.node_reports)

    @pytest.mark.parametrize("pinned", [False, True], ids=["process", "session"])
    def test_solvers_agree_with_the_reference(self, reference_report, pinned):
        benchmark = registry.build("fattree/reach", pods=4)
        solver = _small_scope_solver() if pinned else None
        with Session(benchmark.annotated, Modular(), solver=solver) as session:
            report = session.run()
        assert condition_verdicts(report) == condition_verdicts(reference_report(benchmark.annotated))


def _small_scope_solver():
    """A session solver whose scopes rotate (by size) every few nodes of a k=4 fattree."""
    from repro.smt.incremental import IncrementalSolver

    return IncrementalSolver(max_scope_clauses=2000)


class TestPersistentSessions:
    def test_persistent_second_run_encodes_nothing_new(self):
        benchmark = registry.build("fattree/reach", pods=4)
        with Session(benchmark.annotated, Modular(), solver=_small_scope_solver()) as session:
            session.run()
            second = session.run()
        # All encoding work was done in run 1; run 2 is pure cache hits.
        assert second.backend_cache["tseitin_misses"] == 0
        assert second.backend_cache["guard_misses"] == 0

    def test_supplied_solver_rejected_for_facade_engines(self):
        from repro.smt.incremental import IncrementalSolver

        benchmark = registry.build("ghost/reach")
        for strategy in (Monolithic(), Strawperson()):
            with pytest.raises(VerificationError, match="does not use a session solver"):
                Session(benchmark.annotated, strategy, solver=IncrementalSolver())

    def test_supplied_solver_rejected_for_parallel_runs(self):
        from repro.smt.incremental import IncrementalSolver

        benchmark = registry.build("fattree/reach", pods=4)
        with pytest.raises(VerificationError, match="worker processes"):
            Session(
                benchmark.annotated, Modular(parallel=2), solver=IncrementalSolver()
            ).run()

    def test_supplied_solver_is_pinned_for_incremental_backend(self):
        from repro.smt.incremental import IncrementalSolver

        benchmark = registry.build("ghost/reach")
        solver = IncrementalSolver()
        with Session(benchmark.annotated, Modular(), solver=solver) as session:
            report = session.run()
        assert report.passed
        # The run's encoding work landed on the supplied solver, and the
        # report's counters were measured from it.
        statistics = solver.cache_statistics()
        assert statistics["tseitin_misses"] > 0
        assert report.backend_cache["tseitin_misses"] == statistics["tseitin_misses"]

    def test_backend_cache_is_the_whole_run_delta_of_the_pinned_solver(self):
        """Summed per-item deltas equal after-minus-before on every key, across
        size-triggered rotations and compactions of the encoding mid-run; a
        repeat run is answered from the solver's answer memo alone."""
        from repro.smt.incremental import IncrementalSolver, subtract_cache_statistics

        benchmark = registry.build("fattree/reach", pods=4)
        solver = IncrementalSolver(max_scope_clauses=2000, max_variables=500)
        with Session(benchmark.annotated, Modular(), solver=solver) as session:
            caches = []
            for _ in range(2):
                before = solver.cache_statistics()
                checks = solver.statistics.checks
                report = session.run()
                after = solver.cache_statistics()
                assert report.backend_cache == subtract_cache_statistics(after, before)
                caches.append((report.backend_cache, solver.statistics.checks - checks))
        (first, first_checks), (repeat, repeat_checks) = caches
        assert first["compactions"] > 0
        assert repeat_checks == 0 and repeat["clauses_shipped"] == 0
        assert repeat["answer_hits"] == first_checks + first["answer_hits"]

    def test_closed_session_rejects_runs(self):
        benchmark = registry.build("ghost/reach")
        session = Session(benchmark.annotated, Modular(), solver=_small_scope_solver())
        session.run()
        session.close()
        with pytest.raises(VerificationError, match="closed"):
            session.run()

    def test_crash_recovery_keeps_later_runs_sound(self, monkeypatch, reference_report):
        from repro.smt.sat.solver import CdclSolver

        benchmark = registry.build("fattree/reach", pods=4)
        baseline = reference_report(benchmark.annotated)
        calls = {"n": 0}
        original = CdclSolver.solve

        def explode_once(self, *args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("interrupted mid-solve")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CdclSolver, "solve", explode_once)
        with Session(benchmark.annotated, Modular(), solver=_small_scope_solver()) as session:
            with pytest.raises(RuntimeError, match="interrupted mid-solve"):
                session.run()
            report = session.run()
        assert condition_verdicts(report) == condition_verdicts(baseline)


class TestStreaming:
    def test_stream_yields_every_condition_then_finalizes(self):
        annotated = _figure8_annotated()
        with Session(annotated) as session:
            events = list(session.stream())
            report = session.report
        assert len(events) == report.conditions_checked
        assert {event.node for event in events} == set(annotated.nodes)
        assert all(event.condition in core.CONDITION_KINDS for event in events)

    def test_stream_supports_early_exit_on_failure(self):
        example = build_running_example("symbolic")
        interfaces = {
            node: core.globally(lambda r: r.is_none) for node in example.network.topology.nodes
        }
        annotated = core.annotate(example.network, interfaces)
        with Session(annotated) as session:
            for event in session.stream():
                if not event.holds:
                    break
            else:  # pragma: no cover - the run must fail
                pytest.fail("expected a failing event")
            # Abandoning the stream leaves no finalized report.
            with pytest.raises(VerificationError, match="no completed run"):
                session.report

    def test_symmetry_streams_propagated_events(self):
        benchmark = registry.build("fattree/reach", pods=4, all_pairs=True)
        with Session(benchmark.annotated, Modular(symmetry="classes")) as session:
            events = list(session.stream())
        propagated = [event for event in events if event.propagated_from is not None]
        assert propagated, "class members should receive propagated verdicts"

    def test_new_run_cancels_an_abandoned_stream(self):
        benchmark = registry.build("ghost/reach")
        with Session(benchmark.annotated, Modular(), solver=_small_scope_solver()) as session:
            abandoned = session.stream()
            next(abandoned)
            # Starting a new run cancels the in-flight one deterministically
            # (no waiting for garbage collection) instead of corrupting the
            # shared solver state by interleaving.
            report = session.run()
            assert report.passed and session.runs == 1
            with pytest.raises(StopIteration):
                next(abandoned)

    def test_runs_counter_tracks_completed_runs(self):
        benchmark = registry.build("ghost/reach")
        with Session(benchmark.annotated) as session:
            assert session.runs == 0
            session.run()
            assert session.runs == 1
            session.run()
            assert session.runs == 2

    def test_abandoned_stream_recovers_the_pinned_solver(self, reference_report):
        """Regression: abandoning a stream (GeneratorExit) used to leave the
        session's pinned solver with the abandoned batch's SAT scope open;
        the next run on the same session must start from a clean scope with
        byte-identical verdicts."""
        benchmark = registry.build("fattree/reach", pods=4)
        expected = condition_verdicts(reference_report(benchmark.annotated))
        with Session(benchmark.annotated, Modular(), solver=_small_scope_solver()) as session:
            stream = session.stream()
            for _ in range(4):
                next(stream)
            scopes = session._solver.scopes
            stream.close()  # the consumer walks away mid-run
            # Abandonment recovered the pinned solver: assertion frames are
            # back at the root and a fresh scope was rotated in.
            assert len(session._solver._frames) == 1
            assert session._solver.scopes == scopes + 1
            assert session._solver._sat.num_clauses == 0
            first = session.run()
            second = session.run()
        assert condition_verdicts(first) == expected
        assert condition_verdicts(second) == expected


class TestLiveParallelStreaming:
    def test_parallel_stream_is_live_not_barrier(self):
        """Acceptance: a Modular(parallel=2) stream yields its first
        ConditionResult before the last worker batch completes.

        Deterministic handshake: one node's interface blocks inside its
        worker until the parent has *consumed* an event from another batch.
        A barrier-style engine deadlocks here (no event is released before
        the pool completes, and the pool cannot complete unreleased) and
        fails via the worker's timeout."""
        context = multiprocessing.get_context("fork")
        release = context.Event()

        def gated(route):
            if not release.wait(timeout=60):
                raise RuntimeError(
                    "no event reached the consumer while workers were still "
                    "running: the stream is barrier-style, not live"
                )
            return route.is_some

        topology = path_topology(4)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        # The gated node is dispatched last (window = 2 workers, 4 items).
        interfaces["n3"] = core.finally_(3, core.globally(gated))
        annotated = core.annotate(network, interfaces)

        events = []
        with Session(annotated, Modular(parallel=2)) as session:
            for event in session.stream():
                events.append(event)
                release.set()
            report = session.report
        assert report.passed
        assert len(events) == report.conditions_checked
        assert tuple(report.node_reports) == annotated.nodes

    def test_parallel_streaming_matches_sequential_run(self, assert_scopes_follow_size):
        """Verdicts and ordering are completion-order independent, and the
        parallel run aggregates worker cache deltas into backend_cache."""
        benchmark = registry.build("fattree/reach", pods=4)
        sequential = verify(benchmark.annotated, Modular(parallel=1))
        reset_process_solver()
        parallel = verify(benchmark.annotated, Modular(parallel=2))
        assert condition_verdicts(sequential) == condition_verdicts(parallel)
        assert tuple(parallel.node_reports) == tuple(sequential.node_reports)
        assert parallel.backend_cache is not None
        # Measured inside the workers; scopes follow size, not node batches.
        assert parallel.backend_cache["clauses_shipped"] > 0
        assert_scopes_follow_size(parallel.backend_cache)


class TestStopOnFailure:
    def test_stop_on_failure_checks_strictly_fewer_conditions(self, one_failing_node_annotated):
        """Acceptance: a failure-injected stop-on-failure run checks strictly
        fewer conditions than the full run and reports the same failing
        condition."""
        annotated = one_failing_node_annotated()
        full = verify(annotated, Modular())
        stopped = verify(annotated, Modular(stop_on_failure=True))

        def failing_conditions(report):
            return {
                (result.node, result.condition)
                for node_report in report.node_reports.values()
                for result in node_report.results
                if not result.holds
            }

        assert not full.passed and not stopped.passed
        assert stopped.stopped_early and not full.stopped_early
        assert stopped.conditions_checked < full.conditions_checked
        assert stopped.conditions_skipped > 0
        # The stop run's failing conditions are exactly the first failing
        # batch — present in the full run's failure set too.
        assert failing_conditions(stopped) <= failing_conditions(full)
        assert ("n2", "inductive") in failing_conditions(stopped)

    def test_stop_on_failure_skip_accounting(self, one_failing_node_annotated):
        annotated = one_failing_node_annotated(length=6, failing="n2")
        report = verify(annotated, Modular(stop_on_failure=True))
        # Sequential scheduling stops right after n2: n3..n5 never checked.
        assert sorted(report.node_reports) == ["n0", "n1", "n2"]
        assert report.conditions_skipped == 3 * len(core.CONDITION_KINDS)
        assert report.to_json()["stopped_early"] is True
        assert report.to_json()["conditions_skipped"] == report.conditions_skipped
        assert "stopped early" in report.summary()

    def test_stop_on_failure_parallel_stops_dispatch_and_pool(self, one_failing_node_annotated):
        annotated = one_failing_node_annotated(length=10, failing="n1")
        full = verify(annotated, Modular())
        report = verify(annotated, Modular(parallel=2, stop_on_failure=True))
        assert report.stopped_early and not report.passed
        # Completion order decides *which* failing batch stops the run (the
        # poisoned node's own in-flight batch may be discarded), but every
        # reported failure must be one the full run reports too.
        assert report.failed_nodes
        assert set(report.failed_nodes) <= set(full.failed_nodes)
        # Queued nodes were never dispatched once the failing batch arrived.
        assert len(report.node_reports) < 10
        assert report.conditions_skipped > 0
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []

    def test_stop_on_failure_with_symmetry_classes(self, one_failing_node_annotated):
        annotated = one_failing_node_annotated()
        full = verify(annotated, Modular(symmetry="classes"))
        stopped = verify(annotated, Modular(symmetry="classes", stop_on_failure=True))
        assert not full.passed and not stopped.passed
        assert stopped.stopped_early
        assert stopped.conditions_checked <= full.conditions_checked

    def test_passing_run_is_unaffected_by_stop_on_failure(self):
        benchmark = registry.build("ghost/reach")
        baseline = verify(benchmark.annotated, Modular())
        enabled = verify(benchmark.annotated, Modular(stop_on_failure=True))
        assert enabled.passed and not enabled.stopped_early
        assert enabled.conditions_skipped == 0
        assert condition_verdicts(enabled) == condition_verdicts(baseline)


class TestOtherEngines:
    def test_monolithic_session(self):
        annotated = _figure8_annotated()
        with Session(annotated, Monolithic(timeout=60)) as session:
            events = list(session.stream())
            report = session.report
        assert report.passed and not report.timed_out
        assert len(events) == 1 and events[0].condition == "monolithic"

    def test_strawperson_with_explicit_interfaces(self):
        from repro.symbolic import SymBool

        example = build_running_example("symbolic")
        spurious = lambda r: r.is_some & (r.payload.lp == 200) & ~r.payload.tag  # noqa: E731
        interfaces = {
            "n": lambda r: SymBool.true(),
            "w": lambda r: r.is_some & (r.payload.lp == 100),
            "v": spurious,
            "d": spurious,
            "e": lambda r: r.is_none,
        }
        report = verify(example.network, Strawperson(interfaces=interfaces))
        assert report.passed  # the §2.2 unsoundness, reproduced via the new API

    def test_strawperson_defaults_to_erased_interfaces(self):
        annotated = _figure8_annotated()
        with Session(annotated, Strawperson()) as session:
            events = list(session.stream())
            report = session.report
        assert {event.node for event in events} == set(annotated.nodes)
        assert set(report.node_results) == set(annotated.nodes)

    def test_strawperson_without_annotations_needs_interfaces(self):
        example = build_running_example("symbolic")
        with pytest.raises(VerificationError, match="AnnotatedNetwork"):
            verify(example.network, Strawperson())


class TestReportProtocol:
    def test_all_reports_satisfy_the_protocol(self):
        annotated = _figure8_annotated()
        modular = verify(annotated)
        monolithic = verify(annotated, Monolithic(timeout=60))
        strawperson = verify(annotated, Strawperson())
        for report in (modular, monolithic, strawperson):
            assert is_report(report), type(report).__name__
            assert isinstance(report, Report)
            assert report.verdict in ("pass", "fail", "timeout")
            assert report.wall_time >= 0
            payload = report.to_json()
            assert payload["verdict"] == report.verdict
            assert "backend_cache" in payload

    def test_timeout_verdict(self):
        benchmark = registry.build("fattree/reach", pods=4)
        with Session(benchmark.annotated, Monolithic(timeout=0.001)) as session:
            events = list(session.stream())
            report = session.report
        assert report.verdict == "timeout"
        assert report.to_json()["timed_out"] is True
        # The streamed event distinguishes a timeout from a counterexample.
        assert events[0].condition == "monolithic (timeout)"

    def test_modular_to_json_round_trips(self):
        import json

        benchmark = registry.build("ghost/reach")
        report = verify(benchmark.annotated, Modular(symmetry="classes"))
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["engine"] == "modular"
        assert payload["symmetry"] == "classes"
        assert set(payload["nodes"]) == set(benchmark.annotated.nodes)


class TestSessionValidation:
    def test_non_strategy_rejected(self):
        benchmark = registry.build("ghost/reach")
        with pytest.raises(TypeError, match="Strategy"):
            Session(benchmark.annotated, strategy="modular")

    def test_unknown_node_rejected(self):
        benchmark = registry.build("ghost/reach")
        with pytest.raises(VerificationError, match="unknown node"):
            verify(benchmark.annotated, nodes=["nope"])

    @pytest.mark.parametrize("name, node", [("ghost/reach", "nw"), ("fattree/reach", "core-0")])
    def test_bare_string_nodes_rejected(self, name, node):
        benchmark = registry.build(name, **({"pods": 4} if name.startswith("fattree/") else {}))
        with pytest.raises(VerificationError, match="sequence of node names"):
            verify(benchmark.annotated, nodes=node)

    def test_empty_selection_rejected(self):
        # Checking nothing must not report "pass".
        benchmark = registry.build("ghost/reach")
        with pytest.raises(VerificationError, match="nodes=None"):
            verify(benchmark.annotated, Modular(), nodes=[])

    def test_duplicate_nodes_rejected(self):
        benchmark = registry.build("ghost/reach")
        node = benchmark.annotated.nodes[0]
        with pytest.raises(VerificationError, match=f"more than once.*{node}"):
            verify(benchmark.annotated, nodes=(node, node))

    def test_monolithic_rejects_node_subsets(self):
        benchmark = registry.build("ghost/reach")
        with pytest.raises(VerificationError, match="whole network"):
            verify(benchmark.annotated, Monolithic(), nodes=["nope"])
