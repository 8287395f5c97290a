"""Tests for the persistent incremental SMT backend."""

import pytest

from repro import core, smt
from repro.errors import SolverError
from repro.smt.incremental import IncrementalSolver, process_solver, reset_process_solver
from repro.smt.sat.solver import SatStatus
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


class TestProcessSolver:
    def test_shared_instance_per_process(self):
        first = process_solver()
        assert process_solver() is first
        reset_process_solver()
        assert process_solver() is not first


_condition_verdicts = core.condition_verdicts


class TestVerificationConditionReuse:
    """Solver reuse across each node's three conditions matches fresh solvers."""

    def test_fattree_verdicts_match_fresh(self):
        from repro.networks import registry

        instance = registry.build("fattree/reach", pods=4)
        fresh = verify(instance.annotated, Modular(backend="fresh"))
        incremental = verify(instance.annotated, Modular(backend="incremental"))
        assert fresh.passed and incremental.passed
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)

    def test_fattree_failing_property_matches_fresh(self):
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
        fresh = verify(broken, Modular(backend="fresh"))
        incremental = verify(broken, Modular(backend="incremental"))
        assert not fresh.passed and not incremental.passed
        assert fresh.failed_nodes == incremental.failed_nodes
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)
        assert incremental.counterexamples()

    def test_wan_verdicts_match_fresh(self):
        from repro.config import WanParameters
        from repro.networks import build_wan_benchmark

        params = WanParameters(internal_routers=4, external_peers=4)
        benchmark = build_wan_benchmark(params)
        fresh = verify(benchmark.annotated, Modular(backend="fresh"))
        incremental = verify(benchmark.annotated, Modular(backend="incremental"))
        assert fresh.passed and incremental.passed
        assert _condition_verdicts(fresh) == _condition_verdicts(incremental)

    def test_buggy_wan_counterexamples_match_fresh(self):
        from repro.config import WanParameters
        from repro.networks import build_wan_benchmark

        params = WanParameters(internal_routers=4, external_peers=4, buggy=True)
        benchmark = build_wan_benchmark(params)
        fresh = verify(benchmark.annotated, Modular(backend="fresh"))
        incremental = verify(benchmark.annotated, Modular(backend="incremental"))
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

    def test_awkward_node_names_do_not_alias_query_routes(self):
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
        fresh = verify(annotated, Modular(backend="fresh"))
        assert _condition_verdicts(fresh) == _condition_verdicts(report)

    def test_incremental_encodes_fewer_variables(self):
        from repro.networks import registry

        instance = registry.build("fattree/reach", pods=4)
        fresh_before = smt.GLOBAL_STATISTICS.snapshot()
        verify(instance.annotated, Modular(backend="fresh"))
        fresh_stats = smt.GLOBAL_STATISTICS.since(fresh_before)

        incremental_before = smt.GLOBAL_STATISTICS.snapshot()
        verify(instance.annotated, Modular(backend="incremental"))
        verify(instance.annotated, Modular(backend="incremental"))
        incremental_stats = smt.GLOBAL_STATISTICS.since(incremental_before)

        # Two full incremental runs encode fewer CNF variables than one
        # fresh run: the second run is pure cache hits.
        assert 0 < incremental_stats.variables < fresh_stats.variables


class TestLearnedClausePersistence:
    def test_learned_units_carry_across_scopes(self):
        solver = IncrementalSolver(persist_learned=True)
        a = smt.bool_var("carry_a")
        solver.add(a)
        assert solver.check().is_sat
        # Conflict analysis stores length-1 resolvents in the CDCL core's
        # pending-units list (assertions themselves are guarded decisions,
        # so nothing else reaches the root trail); plant one to pin down
        # the harvest path deterministically.
        # ``carry_a`` is the first variable a new solver's CNF allocates.
        local = solver.local_variable(1)
        assert local is not None
        solver._sat._pending_units.append(local)
        solver.new_scope()
        assert solver.cache_statistics()["learned_carry_size"] > 0
        # Re-checking the same structure maps the variable again, so the
        # carried unit becomes relevant and is injected into the new scope.
        assert solver.check().is_sat
        assert solver.cache_statistics()["learned_carried"] > 0

    def test_carried_clauses_never_change_answers(self):
        plain = IncrementalSolver()
        persistent = IncrementalSolver(persist_learned=True)
        x = smt.bv_var("carry_x", 5)
        queries = [
            smt.bv_ult(x, smt.bv_const(9, 5)),
            smt.and_(smt.bv_ult(x, smt.bv_const(9, 5)), smt.bv_ugt(x, smt.bv_const(20, 5))),
            smt.bv_ugt(x, smt.bv_const(3, 5)),
        ]
        for query in queries:
            for solver in (plain, persistent):
                solver.new_scope()
            assert plain.check(query).status == persistent.check(query).status
