"""Branching restricted to the active cone: soundness, completeness, scope lifetime.

A SAT scope now outlives the work item that opened it, and a search may only
decide variables of its active assertions' cones.  UNSAT answers never
depended on the branching set; these tests pin the SAT side — a shared,
never-rotated instance answers like a fresh one and its models satisfy every
active assertion — the completeness of the branching set, the engine-level
case where the one SAT answer lands in a full shared scope, and the
machine-independent count gates for "ship a clause once".
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.core import condition_verdicts
from repro.core.checker import check_class
from repro.core.symmetry import singleton_classes
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.smt.incremental import (
    GAUGE_STATISTICS,
    IncrementalSolver,
    add_cache_statistics,
    reset_process_solver,
    subtract_cache_statistics,
)
from repro.smt.sat import CdclSolver, SatStatus
from repro.verify import Modular, Session, verify

REFERENCE = Modular(symmetry="off", backend="fresh", parallel=1)


@pytest.fixture(autouse=True)
def _isolate_process_solver():
    reset_process_solver()
    yield
    reset_process_solver()


# -- random assertion sequences ------------------------------------------------

_BOOLS = [smt.bool_var(f"cone_b{index}") for index in range(4)]
_WIDTH = 3
_VECTORS = [smt.bv_var(f"cone_v{index}", _WIDTH) for index in range(2)]

_vector = st.recursive(
    st.sampled_from(_VECTORS) | st.integers(0, (1 << _WIDTH) - 1).map(lambda v: smt.bv_const(v, _WIDTH)),
    lambda inner: st.tuples(inner, inner).map(lambda pair: smt.bv_add(*pair)),
    max_leaves=3,
)
_atom = (
    st.sampled_from(_BOOLS)
    | st.tuples(_vector, _vector).map(lambda pair: smt.bv_ult(*pair))
    | st.tuples(_vector, _vector).map(lambda pair: smt.eq(*pair))
)
_formula = st.recursive(
    _atom,
    lambda inner: (
        inner.map(smt.not_)
        | st.tuples(inner, inner).map(lambda pair: smt.and_(*pair))
        | st.tuples(inner, inner).map(lambda pair: smt.or_(*pair))
        | st.tuples(inner, inner, inner).map(lambda triple: smt.ite(*triple))
    ),
    max_leaves=6,
)
_step = (
    st.tuples(st.just("add"), _formula)
    | st.tuples(st.just("check"), st.lists(_formula, max_size=2))
    | st.tuples(st.sampled_from(("push", "pop")), st.none())
)


def _cone_variables(solver, terms):
    """Scope numbers of every variable in a clause of the active cones (the oracle)."""
    variables = set()
    for term in terms:
        entry = solver._guards[term.term_id]
        if isinstance(entry, str):
            continue
        for start, end in entry[1]:
            literals, _ = solver._cnf.span(start, end)
            variables.update(solver.local_variable(abs(literal)) for literal in literals)
    return variables


class TestSharedScopeAnswersLikeFreshInstances:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=14))
    def test_status_models_and_branch_sets(self, steps):
        shared = IncrementalSolver()
        frames = [[]]
        branch_sets = []
        solve = CdclSolver.solve

        def recording(self, assumptions=None, timeout=None, branch=None):
            if self is shared._sat:  # not the fresh facade's instances
                branch_sets.append(branch)
            return solve(self, assumptions, timeout, branch)

        with mock.patch.object(CdclSolver, "solve", recording):
            for action, argument in steps:
                if action == "push":
                    shared.push()
                    frames.append([])
                elif action == "pop":
                    if len(frames) > 1:
                        shared.pop()
                        frames.pop()
                elif action == "add":
                    shared.add(argument)
                    frames[-1].append(argument)
                else:
                    active = [term for frame in frames for term in frame] + argument
                    empty_scope = shared._sat.num_vars == 0
                    solved = len(branch_sets)
                    result = shared.check(*argument)
                    fresh = smt.Solver()
                    fresh.add(*active)
                    assert result.status == fresh.check().status
                    if result.is_sat:
                        model = result.model()
                        assert all(model.evaluate(term) is True for term in active)
                    for branch in branch_sets[solved:]:
                        assert branch is not None and len(set(branch)) == len(branch)
                        # Complete: nothing in a clause of an active cone is left out ...
                        assert _cone_variables(shared, active) <= set(branch)
                        if empty_scope:
                            # ... and in a scope holding nothing else, that is everything.
                            assert sorted(branch) == list(range(1, shared._sat.num_vars + 1))
        # One instance served the whole sequence.
        assert shared.scopes == 1

    def test_stale_cones_are_not_branched_on(self):
        shared = IncrementalSolver()
        x, y = smt.bv_var("stale_x", 6), smt.bv_var("stale_y", 6)
        first = smt.bv_ult(smt.bv_add(x, smt.bv_const(3, 6)), smt.bv_const(40, 6))
        second = smt.bv_ugt(y, smt.bv_const(9, 6))
        assert shared.check(first).is_sat
        whole = shared.cache_statistics()
        assert whole["branch_variables"] == whole["scope_variables"] > 0
        result = shared.check(second)
        assert result.is_sat and result.model()["stale_y"] > 9
        after = subtract_cache_statistics(shared.cache_statistics(), whole)
        # The second search saw its own cone only, a strict part of the scope.
        assert 0 < after["branch_variables"] < after["scope_variables"]
        assert after["scope_variables"] == shared._sat.num_vars
        assert shared.scopes == 1

    def test_counters_are_cumulative_not_gauges(self):
        assert not {"branch_variables", "scope_variables"} & set(GAUGE_STATISTICS)
        delta = {"branch_variables": 3, "scope_variables": 10}
        assert add_cache_statistics(delta, delta) == {"branch_variables": 6, "scope_variables": 20}


class TestSolveBranchArgument:
    def test_sat_needs_only_the_branch_set_assigned(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([4, 5])
        assert solver.solve(branch=[1, 2]) == SatStatus.SAT
        model = solver.model()
        assert model[1] or model[2]
        # Propagated outside the set or not touched at all, never decided.
        assert set(model) <= {1, 2, 3}
        assert solver.solve() == SatStatus.SAT
        assert sorted(solver.model()) == [1, 2, 3, 4, 5]

    def test_unsat_is_found_whenever_the_branch_set_covers_the_core(self):
        for branch in (None, [1, 2], [2, 1, 4]):
            solver = CdclSolver()
            for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2], [3, 4]):
                solver.add_clause(clause)
            assert solver.solve(branch=branch) == SatStatus.UNSAT


# -- engine level -----------------------------------------------------------------


def _model_checking_prove(prove):
    """``smt.prove`` that also holds every counterexample to its own query."""

    def checked(term, *assumptions, **options):
        proof = prove(term, *assumptions, **options)
        if not proof.valid and not proof.unknown:
            model = proof.counterexample
            assert all(model.evaluate(assumption) is True for assumption in assumptions)
            assert model.evaluate(term) is False
        return proof

    return checked


class TestFailureInASharedScope:
    @pytest.mark.parametrize("position", [-1, 0], ids=["last", "first"])
    @pytest.mark.parametrize("backend, parallel", [("incremental", 1), ("incremental", 2), ("persistent", 1)])
    def test_injected_failure_matches_the_reference(
        self, monkeypatch, assert_scopes_follow_size, backend, parallel, position
    ):
        base = registry.build("fattree/reach", pods=4).annotated
        # Singleton batches run in node order, so the last node's SAT answer
        # is found in the scope every other node's cone was shipped into.
        annotated, poisoned = inject_interface_failure(base, base.nodes[position])
        reference = verify(annotated, REFERENCE)
        assert poisoned in reference.failed_nodes
        monkeypatch.setattr(smt, "prove", _model_checking_prove(smt.prove))
        report = verify(annotated, Modular(backend=backend, parallel=parallel))
        assert condition_verdicts(report) == condition_verdicts(reference)
        assert tuple(report.node_reports) == tuple(reference.node_reports)
        assert report.failed_nodes == reference.failed_nodes
        if parallel == 1:
            cache = report.backend_cache
            assert_scopes_follow_size(cache)
            assert cache["branch_variables"] < cache["scope_variables"]

    def test_a_scope_survives_from_one_run_to_the_next(self):
        annotated = registry.build("fattree/reach", pods=2).annotated
        first = verify(annotated, Modular())
        second = verify(annotated, Modular())
        assert first.backend_cache["clauses_shipped"] > 0
        assert second.backend_cache["clauses_shipped"] == 0
        assert second.backend_cache["scopes"] == 0
        assert condition_verdicts(first) == condition_verdicts(second)


class TestLearnedClausesAcrossSizeTriggeredRotations:
    def test_harvest_and_inject_round_trip(self, assert_scopes_follow_size):
        annotated = registry.build("fattree/length", pods=4).annotated
        solver = IncrementalSolver(persist_learned=True, max_scope_clauses=4000)
        with Session(annotated, Modular(backend="persistent"), solver=solver) as session:
            report = session.run()
        cache = report.backend_cache
        # Only size rotates a scope; what the retired ones learned came along.
        assert cache["scopes"] > 0
        assert_scopes_follow_size(cache, bound=solver.max_scope_clauses)
        assert cache["learned_carry_size"] > 0 and cache["learned_carried"] > 0
        assert condition_verdicts(report) == condition_verdicts(verify(annotated, REFERENCE))


# -- machine-independent count gates ----------------------------------------------


def _run(annotated, rotate_every_item):
    """Every node on one fresh solver: its cache statistics and the search counts."""
    solver = IncrementalSolver()
    before = smt.GLOBAL_STATISTICS.snapshot()
    for singleton in singleton_classes(annotated.nodes):
        if rotate_every_item:
            solver.new_scope()
        assert all(report.passed for report in check_class(annotated, singleton, solver=solver))
    return solver.cache_statistics(), smt.GLOBAL_STATISTICS.since(before)


class TestCountGates:
    def test_a_clause_ships_at_most_1_6_times(self, assert_scopes_follow_size):
        annotated = registry.build("fattree/reach", pods=8).annotated
        before = smt.GLOBAL_STATISTICS.snapshot()
        report = verify(annotated, Modular())
        encoded = smt.GLOBAL_STATISTICS.since(before).clauses
        cache = report.backend_cache
        assert report.passed
        assert cache["clauses_shipped"] <= 1.6 * encoded
        assert_scopes_follow_size(cache)

    @pytest.mark.parametrize(
        "name, parameters",
        [
            ("wan/reach", {"internal_routers": 10, "external_peers": 40}),
            ("fattree/length", {"pods": 4}),
        ],
    )
    def test_a_shared_scope_does_not_make_the_search_wander(self, name, parameters):
        annotated = registry.build(name, **parameters).annotated
        shared_cache, shared = _run(annotated, rotate_every_item=False)
        rotated_cache, rotated = _run(annotated, rotate_every_item=True)
        assert shared_cache["scopes"] < rotated_cache["scopes"] == len(annotated.nodes) + 1
        assert shared_cache["clauses_shipped"] < rotated_cache["clauses_shipped"]
        # Branching on stale variables is what made naive sharing lose.
        assert shared.decisions <= 1.5 * rotated.decisions
