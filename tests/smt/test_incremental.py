"""Tests for the persistent incremental SMT backend."""

import pytest

from repro import core, smt
from repro.errors import SolverError
from repro.smt.incremental import IncrementalSolver, process_solver, reset_process_solver
from repro.smt.sat.solver import CdclSolver, SatStatus
from repro.verify import Modular, verify


@pytest.fixture(autouse=True)
def _isolate_process_solver():
    reset_process_solver()
    yield
    reset_process_solver()


class TestIncrementalSolverBasics:
    def test_simple_sat_and_model(self):
        solver = IncrementalSolver()
        x = smt.bv_var("x", 4)
        solver.add(smt.bv_ult(x, smt.bv_const(4, 4)), smt.bv_ugt(x, smt.bv_const(2, 4)))
        result = solver.check()
        assert result.is_sat
        assert result.model()["x"] == 3

    def test_unsat(self):
        solver = IncrementalSolver()
        a = smt.bool_var("a")
        solver.add(a, smt.not_(a))
        assert solver.check().is_unsat

    def test_trivially_true_and_false(self):
        solver = IncrementalSolver()
        assert solver.check().is_sat  # no assertions at all
        solver.add(smt.true())
        assert solver.check().is_sat
        solver.push()
        solver.add(smt.false())
        assert solver.check().is_unsat
        solver.pop()
        assert solver.check().is_sat

    def test_push_pop_restores_assertions(self):
        solver = IncrementalSolver()
        a, b = smt.bool_var("a"), smt.bool_var("b")
        solver.add(a)
        solver.push()
        solver.add(smt.not_(a))
        assert solver.check().is_unsat
        solver.pop()
        result = solver.check(b)
        assert result.is_sat
        assert result.model()["a"] is True
        assert result.model()["b"] is True

    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            IncrementalSolver().pop()

    def test_non_boolean_assertion_rejected(self):
        solver = IncrementalSolver()
        with pytest.raises(SolverError):
            solver.add(smt.bv_var("x", 4))
        with pytest.raises(SolverError):
            solver.check(smt.bv_const(1, 2))

    def test_reasserting_a_term_is_free(self):
        solver = IncrementalSolver()
        x = smt.bv_var("reused", 8)
        formula = smt.bv_ult(smt.bv_add(x, smt.bv_const(3, 8)), smt.bv_const(100, 8))
        solver.push()
        solver.add(formula)
        assert solver.check().is_sat
        solver.pop()
        encoded = solver.statistics.variables
        assert encoded > 0
        for _ in range(3):
            solver.push()
            solver.add(formula)
            assert solver.check().is_sat
            solver.pop()
        # Re-checking the identical (hash-consed) term encodes nothing new.
        assert solver.statistics.variables == encoded

    def test_shared_subterms_encoded_once(self):
        solver = IncrementalSolver()
        x = smt.bv_var("shared", 8)
        base = smt.bv_ult(x, smt.bv_const(200, 8))
        first = smt.and_(base, smt.bv_ugt(x, smt.bv_const(3, 8)))
        second = smt.and_(base, smt.bv_ugt(x, smt.bv_const(7, 8)))
        solver.push()
        solver.add(first)
        assert solver.check().is_sat
        solver.pop()
        after_first = solver.statistics.variables
        solver.push()
        solver.add(second)
        assert solver.check().is_sat
        solver.pop()
        delta = solver.statistics.variables - after_first
        # The second query pays only for its unshared comparison, which is
        # far smaller than a full re-encoding.
        assert 0 < delta < after_first / 2

    def test_prove_matches_facade(self):
        solver = IncrementalSolver()
        x = smt.bv_var("p", 6)
        bound = smt.bv_const(10, 6)
        valid_goal = smt.implies(smt.bv_ult(x, bound), smt.bv_ule(x, bound))
        invalid_goal = smt.bv_ult(x, bound)
        assert smt.prove(valid_goal, solver=solver).valid
        assert smt.prove(valid_goal).valid
        incremental = smt.prove(invalid_goal, solver=solver)
        fresh = smt.prove(invalid_goal)
        assert not incremental.valid and not fresh.valid
        # Counterexamples may differ, but both must refute the goal.
        assert incremental.counterexample.evaluate(invalid_goal) is False
        assert fresh.counterexample.evaluate(invalid_goal) is False
        # The backend is left balanced: nothing asserted.
        assert solver.assertions == ()

    def test_check_sat_with_reusable_backend(self):
        solver = IncrementalSolver()
        a = smt.bool_var("q")
        assert smt.check_sat(a, solver=solver).is_sat
        assert smt.check_sat(smt.and_(a, smt.not_(a)), solver=solver).is_unsat
        assert solver.assertions == ()

    def test_new_scope_preserves_answers(self):
        solver = IncrementalSolver()
        x = smt.bv_var("scoped", 5)
        formula = smt.bv_ugt(x, smt.bv_const(17, 5))
        solver.add(formula)
        first = solver.check()
        assert first.is_sat
        solver.new_scope()
        second = solver.check()
        assert second.is_sat
        assert second.model()["scoped"] > 17

    def test_scope_rotation_is_automatic_beyond_the_clause_bound(self):
        solver = IncrementalSolver(max_scope_clauses=1)
        x = smt.bv_var("rotated", 6)
        for bound in (10, 20, 30):
            result = solver.check(smt.bv_ult(x, smt.bv_const(bound, 6)))
            assert result.is_sat
            assert result.model()["rotated"] < bound

    def test_compaction_rebuilds_encoding_state(self):
        solver = IncrementalSolver(max_variables=1)
        x = smt.bv_var("compact", 6)
        formula = smt.bv_ult(x, smt.bv_const(13, 6))
        assert smt.prove(smt.implies(formula, smt.bv_ule(x, smt.bv_const(13, 6))), solver=solver).valid
        assert solver.compactions >= 1
        # Still fully functional after the rebuild.
        result = smt.check_sat(formula, solver=solver)
        assert result.is_sat and result.model()["compact"] < 13

    def test_timeout_reports_unknown_not_a_model_error(self):
        result = smt.CheckResult(SatStatus.UNKNOWN, None)
        with pytest.raises(SolverError, match="unknown"):
            result.model()


class TestAnswerMemo:
    """``check`` answers each distinct query once, whatever happened in between."""

    def test_a_repeat_query_is_a_hit_that_moves_no_solver_counter(self):
        solver = IncrementalSolver()
        x = smt.bv_var("memo", 5)
        formula = smt.bv_ugt(x, smt.bv_const(9, 5))
        first = solver.check(formula)
        statistics = solver.cache_statistics()
        checks, global_before = solver.statistics.checks, smt.GLOBAL_STATISTICS.snapshot()
        assert solver.check(formula) is first
        after = solver.cache_statistics()
        assert after.pop("answer_hits") == statistics.pop("answer_hits") + 1
        assert after == statistics
        assert solver.statistics.checks == checks
        assert smt.GLOBAL_STATISTICS.since(global_before) == smt.SolverStatistics()

    def test_unknown_is_never_memoised(self, monkeypatch):
        solver = IncrementalSolver()
        x = smt.bv_var("undecided", 5)
        formula = smt.bv_ult(x, smt.bv_const(3, 5))
        solve = CdclSolver.solve
        calls = []

        def times_out_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return SatStatus.UNKNOWN
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(CdclSolver, "solve", times_out_once)
        assert solver.check(formula).status == SatStatus.UNKNOWN
        second = solver.check(formula)
        assert second.is_sat and second.model()["undecided"] < 3
        assert len(calls) == 2 and solver.answer_hits == 0
        assert solver.check(formula) is second
        assert len(calls) == 2 and solver.answer_hits == 1

    def test_nothing_is_memoised_when_a_solve_raises(self, monkeypatch):
        solver = IncrementalSolver()
        formula = smt.bool_var("raising")

        def raises(self, *args, **kwargs):
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patched:
            patched.setattr(CdclSolver, "solve", raises)
            with pytest.raises(RuntimeError):
                solver.check(formula)
        solver.recover()
        assert solver.check(formula).is_sat
        assert solver.answer_hits == 0

    def test_a_hit_survives_rotation_recovery_and_compaction(self):
        solver = IncrementalSolver(max_variables=1)
        x = smt.bv_var("durable", 6)
        goal = smt.implies(smt.bv_ult(x, smt.bv_const(13, 6)), smt.bv_ule(x, smt.bv_const(13, 6)))
        assert smt.prove(goal, solver=solver).valid
        assert solver.compactions == 1
        solved = solver.statistics.checks
        for disturb in (lambda: None, solver.new_scope, solver.recover):
            disturb()
            assert smt.prove(goal, solver=solver).valid
        assert solver.answer_hits == 3 and solver.statistics.checks == solved
        assert solver.compactions == 1  # a hit encodes nothing, so nothing grows

    def test_memoised_counterexamples_refute_their_own_conditions(self):
        """A failing answer reached by a hit is evaluated through the hitting
        node's own routes, and the model satisfies that node's query."""
        from repro.core.conditions import node_conditions
        from repro.networks import registry
        from repro.networks.benchmarks import inject_interface_failure

        benchmark = registry.build("fattree/reach", pods=4).raw
        # Poisoned alike, the core switches pose one failing query per kind.
        annotated = benchmark.annotated
        for core in benchmark.fattree.core_nodes:
            annotated, _ = inject_interface_failure(annotated, core)
        solver = IncrementalSolver()
        replayed = 0
        for node in annotated.nodes:
            for condition in node_conditions(annotated, node):
                hits = solver.answer_hits
                result = condition.check(solver)
                if result.holds or solver.answer_hits == hits:
                    continue
                proof = smt.prove(condition.goal.term, condition.assumptions.term, solver=solver)
                model = proof.counterexample
                assert model.evaluate(condition.assumptions.term) is True
                assert model.evaluate(condition.goal.term) is False
                assert result.counterexample.node == node
                assert set(result.counterexample.neighbor_routes) == set(condition.neighbor_routes)
                replayed += 1
        assert replayed > 0

    def test_different_root_assertions_never_alias(self):
        solver = IncrementalSolver()
        x = smt.bv_var("rooted", 4)
        query = smt.bv_ugt(x, smt.bv_const(5, 4))
        assert solver.check(query).is_sat
        solver.add(smt.bv_ult(x, smt.bv_const(3, 4)))
        assert solver.check(query).is_unsat
        solver.push()
        solver.add(smt.bv_ult(x, smt.bv_const(3, 4)))
        assert solver.check(query).is_unsat
        solver.pop()
        assert solver.answer_hits == 0
        assert solver.check(query).is_unsat and solver.answer_hits == 1


class TestProcessSolver:
    def test_shared_instance_per_process(self):
        first = process_solver()
        assert process_solver() is first
        reset_process_solver()
        assert process_solver() is not first


_condition_verdicts = core.condition_verdicts


class TestVerificationConditionReuse:
    """Solver reuse across each node's three conditions matches fresh solvers."""

    def test_fattree_verdicts_match_fresh(self, reference_report):
        from repro.networks import registry

        instance = registry.build("fattree/reach", pods=4)
        fresh = reference_report(instance.annotated)
        incremental = verify(instance.annotated, Modular())
        assert fresh.passed and incremental.passed
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)

    def test_fattree_failing_property_matches_fresh(self, reference_report):
        from repro.networks import registry

        instance = registry.build("fattree/reach", pods=4)
        annotated = instance.annotated
        # Break one node's interface so a counterexample must be produced.
        broken = core.annotate(
            annotated.network,
            {
                node: (
                    core.globally(lambda route: route.is_none)
                    if index == 0
                    else annotated.interface(node)
                )
                for index, node in enumerate(annotated.nodes)
            },
        )
        fresh = reference_report(broken)
        incremental = verify(broken, Modular())
        assert not fresh.passed and not incremental.passed
        assert fresh.failed_nodes == incremental.failed_nodes
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)
        assert incremental.counterexamples()

    def test_wan_verdicts_match_fresh(self, reference_report):
        from repro.config import WanParameters
        from repro.networks import build_wan_benchmark

        params = WanParameters(internal_routers=4, external_peers=4)
        benchmark = build_wan_benchmark(params)
        fresh = reference_report(benchmark.annotated)
        incremental = verify(benchmark.annotated, Modular())
        assert fresh.passed and incremental.passed
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)

    def test_buggy_wan_counterexamples_match_fresh(self, reference_report):
        from repro.config import WanParameters
        from repro.networks import build_wan_benchmark

        params = WanParameters(internal_routers=4, external_peers=4, buggy=True)
        benchmark = build_wan_benchmark(params)
        fresh = reference_report(benchmark.annotated)
        incremental = verify(benchmark.annotated, Modular())
        assert not fresh.passed and not incremental.passed
        assert fresh.failed_nodes == incremental.failed_nodes

    def test_reserved_vc_prefix_is_rejected_for_network_symbolics(self):
        from repro.errors import VerificationError
        from repro.routing import path_topology, shortest_path_network
        from repro.routing.algebra import SymbolicVariable
        from repro.symbolic import SymBool

        topology = path_topology(2)
        network = shortest_path_network(topology, "n0").with_symbolics(
            SymbolicVariable("vc$time", SymBool.fresh("clash"))
        )
        annotated = core.annotate(
            network, {node: core.globally(lambda r: r.is_some) for node in topology.nodes}
        )
        with pytest.raises(VerificationError, match="reserved prefix"):
            verify(annotated)

    def test_awkward_node_names_do_not_alias_query_routes(self, reference_report):
        # Names differing only in characters the fresh-name sanitiser used to
        # collapse (and names containing the bit-separator '#') must stay
        # distinct under the deterministic vc$ naming scheme.
        from repro.core.conditions import inductive_condition
        from repro.routing import shortest_path_network
        from repro.routing.topology import Topology

        topology = Topology(nodes=["a:b", "a;b", "a#b"])
        topology.add_undirected_edge("a:b", "a;b")
        topology.add_undirected_edge("a;b", "a#b")
        network = shortest_path_network(topology, "a:b")
        annotated = core.annotate(
            network,
            {
                node: core.finally_(index, core.globally(lambda r: r.is_some))
                for index, node in enumerate(("a:b", "a;b", "a#b"))
            },
        )
        condition = inductive_condition(annotated, "a;b")
        route_names = set(condition.neighbor_routes)
        assert route_names == {"a:b", "a#b"}
        report = verify(annotated)
        assert report.passed
        fresh = reference_report(annotated)
        assert _condition_verdicts(fresh) == _condition_verdicts(report)

    def test_incremental_encodes_fewer_variables(self, reference_report):
        from repro.networks import registry

        instance = registry.build("fattree/reach", pods=4)
        fresh_before = smt.GLOBAL_STATISTICS.snapshot()
        reference_report(instance.annotated)
        fresh_stats = smt.GLOBAL_STATISTICS.since(fresh_before)

        incremental_before = smt.GLOBAL_STATISTICS.snapshot()
        verify(instance.annotated, Modular())
        verify(instance.annotated, Modular())
        incremental_stats = smt.GLOBAL_STATISTICS.since(incremental_before)

        # Two full incremental runs encode fewer CNF variables than one
        # fresh run: the second run is pure cache hits.
        assert 0 < incremental_stats.variables < fresh_stats.variables

