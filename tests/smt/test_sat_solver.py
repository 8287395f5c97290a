"""Tests for the CDCL SAT core (unit tests plus a brute-force fuzz oracle)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt.sat import BruteForceSolver, CdclSolver, SatStatus
from repro.smt.sat.heap import ActivityHeap
from repro.smt.sat.solver import luby


class TestLuby:
    def test_first_elements(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_rejects_non_positive(self):
        with pytest.raises(SolverError):
            luby(0)

    def test_values_are_powers_of_two(self):
        for index in range(1, 200):
            value = luby(index)
            assert value & (value - 1) == 0


class TestActivityHeap:
    def test_pop_returns_highest_activity(self):
        activity = [0.0, 1.0, 5.0, 3.0]
        heap = ActivityHeap(activity)
        for variable in (1, 2, 3):
            heap.push(variable)
        assert heap.pop() == 2
        assert heap.pop() == 3
        assert heap.pop() == 1

    def test_push_is_idempotent(self):
        activity = [0.0, 1.0]
        heap = ActivityHeap(activity)
        heap.push(1)
        heap.push(1)
        assert len(heap) == 1

    def test_update_after_bump(self):
        activity = [0.0, 1.0, 2.0, 3.0]
        heap = ActivityHeap(activity)
        for variable in (1, 2, 3):
            heap.push(variable)
        activity[1] = 10.0
        heap.update(1)
        assert heap.pop() == 1

    def test_contains(self):
        heap = ActivityHeap([0.0, 0.0])
        assert 1 not in heap
        heap.push(1)
        assert 1 in heap


class TestCdclBasics:
    def test_empty_problem_is_sat(self):
        assert CdclSolver().solve() == SatStatus.SAT

    def test_single_unit_clause(self):
        solver = CdclSolver()
        solver.add_clause([1])
        assert solver.solve() == SatStatus.SAT
        assert solver.model()[1] is True

    def test_conflicting_units(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == SatStatus.UNSAT

    def test_empty_clause_is_unsat(self):
        solver = CdclSolver()
        solver.add_clause([1, -1])  # tautology, dropped
        solver.add_clause([])
        assert solver.solve() == SatStatus.UNSAT

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            CdclSolver().add_clause([0])

    def test_simple_implication_chain(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() == SatStatus.SAT
        model = solver.model()
        assert model[1] and model[2] and model[3]

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve() == SatStatus.SAT
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_pigeonhole_3_into_2_unsat(self):
        # Variables p[i][j]: pigeon i sits in hole j.
        def var(pigeon, hole):
            return pigeon * 2 + hole + 1

        solver = CdclSolver()
        for pigeon in range(3):
            solver.add_clause([var(pigeon, 0), var(pigeon, 1)])
        for hole in range(2):
            for first in range(3):
                for second in range(first + 1, 3):
                    solver.add_clause([-var(first, hole), -var(second, hole)])
        assert solver.solve() == SatStatus.UNSAT

    def test_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SatStatus.SAT
        assert solver.model()[2] is True
        assert solver.solve(assumptions=[-1, -2]) == SatStatus.UNSAT
        # The problem itself is still satisfiable afterwards.
        assert solver.solve() == SatStatus.SAT

    def test_timeout_returns_unknown_or_answer(self):
        solver = CdclSolver()
        for clause in ([1, 2], [-1, 2], [1, -2], [-1, -2, 3]):
            solver.add_clause(list(clause))
        result = solver.solve(timeout=10.0)
        assert result in (SatStatus.SAT, SatStatus.UNKNOWN)

    def test_statistics_populated(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([1, -2])
        solver.add_clause([-1, -2, 3])
        solver.solve()
        assert solver.statistics["decisions"] >= 1


class TestAssumptionBacktracking:
    """Regressions for the assumption-state corruption bug.

    ``solve`` used to return UNSAT without unwinding the trail when a later
    assumption was falsified by an earlier assumption's propagation, leaving
    the solver at a nonzero decision level — any subsequent ``add_clause``
    raised and later ``solve`` calls saw a polluted trail.
    """

    def test_failed_assumption_backtracks_to_level_zero(self):
        solver = CdclSolver()
        solver.add_clause([-1, 2])  # 1 implies 2
        # Assuming 1 propagates 2, so the later assumption -2 is falsified.
        assert solver.solve(assumptions=[1, -2]) == SatStatus.UNSAT
        assert solver.decision_level == 0

    def test_add_clause_works_after_failed_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[1, -2]) == SatStatus.UNSAT
        solver.add_clause([3])  # raised SolverError before the fix
        assert solver.solve() == SatStatus.SAT
        assert solver.model()[3] is True

    def test_resolve_after_failed_assumptions_sees_clean_trail(self):
        solver = CdclSolver()
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[1, -2]) == SatStatus.UNSAT
        # The earlier assumption must not linger: -1 alone is satisfiable.
        assert solver.solve(assumptions=[-1]) == SatStatus.SAT
        assert solver.model()[1] is False
        assert solver.solve(assumptions=[1]) == SatStatus.SAT
        assert solver.model()[2] is True

    def test_solver_is_reusable_after_sat(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SatStatus.SAT
        assert solver.decision_level == 0
        solver.add_clause([-2, 3])  # adding clauses after SAT must work too
        assert solver.solve(assumptions=[-1]) == SatStatus.SAT
        model = solver.model()
        assert model[2] and model[3]

    def test_late_clause_falsified_by_root_assignments(self):
        # A clause whose literals are all false at level 0 when it arrives
        # must be detected even though propagation never revisits them.
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([2])
        assert solver.solve() == SatStatus.SAT
        solver.add_clause([-1, -2])
        assert solver.solve() == SatStatus.UNSAT

    def test_assumption_failure_does_not_poison_the_database(self):
        solver = CdclSolver()
        solver.add_clause([-1, 2])
        solver.add_clause([-1, -2])  # 1 is contradictory, 2 free otherwise
        assert solver.solve(assumptions=[1]) == SatStatus.UNSAT
        # The database itself is satisfiable; failure under assumptions must
        # not have set the permanent unsatisfiable flag.
        assert solver.solve() == SatStatus.SAT
        assert solver.model()[1] is False


class TestLearnedClauseDeletion:
    def _hard_random_clauses(self, rng, num_vars=14, num_clauses=60):
        # Random 3-SAT near the phase transition: enough conflicts that the
        # tiny max_learned budgets below actually trigger deletion.
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([rng.choice([1, -1]) * v for v in variables])
        return clauses

    def test_aggressive_deletion_does_not_change_answers(self):
        rng = random.Random(20260729)
        total_deleted = 0
        for _ in range(30):
            clauses = self._hard_random_clauses(rng)
            aggressive = CdclSolver(max_learned=4)
            brute = BruteForceSolver()
            for clause in clauses:
                aggressive.add_clause(list(clause))
                brute.add_clause(list(clause))
            expected = brute.solve()
            actual = aggressive.solve()
            assert actual == expected, f"disagreement on {clauses}"
            if actual == SatStatus.SAT:
                model = aggressive.model()
                for clause in clauses:
                    assert any(model[abs(lit)] == (lit > 0) for lit in clause)
            total_deleted += aggressive.statistics["deleted"]
        # The tiny budget must actually have exercised the deletion path.
        assert total_deleted > 0

    def test_deletion_under_assumptions(self):
        rng = random.Random(4242)
        for _ in range(15):
            clauses = self._hard_random_clauses(rng)
            assumptions = [rng.choice([1, -1]) * rng.randint(1, 14) for _ in range(2)]
            aggressive = CdclSolver(max_learned=2)
            brute = BruteForceSolver()
            for clause in clauses:
                aggressive.add_clause(list(clause))
                brute.add_clause(list(clause))
            for literal in assumptions:
                brute.add_clause([literal])
            expected = brute.solve()
            actual = aggressive.solve(assumptions=assumptions)
            assert actual == expected, f"disagreement on {clauses} under {assumptions}"
            # Reusable afterwards: the unassumed database answer still agrees.
            plain_brute = BruteForceSolver()
            for clause in clauses:
                plain_brute.add_clause(list(clause))
            assert aggressive.solve() == plain_brute.solve()


def _random_clauses(rng, max_vars=10, max_clauses=40):
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, 3)
        clause = [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(size)]
        clauses.append(clause)
    return clauses


class TestAgainstBruteForce:
    def test_seeded_fuzz(self):
        rng = random.Random(20230615)
        for _ in range(150):
            clauses = _random_clauses(rng)
            cdcl = CdclSolver()
            brute = BruteForceSolver()
            for clause in clauses:
                cdcl.add_clause(list(clause))
                brute.add_clause(list(clause))
            expected = brute.solve()
            actual = cdcl.solve()
            assert actual == expected, f"disagreement on {clauses}"
            if actual == SatStatus.SAT:
                model = cdcl.model()
                for clause in clauses:
                    assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=6).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_equivalence_with_brute_force(self, clauses):
        cdcl = CdclSolver()
        brute = BruteForceSolver()
        for clause in clauses:
            cdcl.add_clause(list(clause))
            brute.add_clause(list(clause))
        assert cdcl.solve() == brute.solve()


def _flat(clauses):
    """``clauses`` in the back-to-back layout :meth:`CdclSolver.add_clauses` loads."""
    literals, ends = [], []
    for clause in clauses:
        literals.extend(clause)
        ends.append(len(literals))
    return literals, ends


class TestBulkLoader:
    def test_matches_the_per_clause_path(self):
        clauses = [[1, -2, 3], [-1, 2], [4], [2, 3, -4, 5], [-5, -1]]
        bulk, single = CdclSolver(), CdclSolver()
        bulk.add_clauses(*_flat(clauses))
        for clause in clauses:
            single.add_clause_unchecked(list(clause))
        assert bulk.num_vars == single.num_vars == 5
        assert bulk.num_clauses == single.num_clauses == 4  # the unit is not attached
        assert bulk._clauses == single._clauses
        assert bulk._pending_units == single._pending_units == [4]
        assert dict(bulk._watches) == dict(single._watches)
        assert bulk.solve() == single.solve() == SatStatus.SAT
        assert bulk.model() == single.model()
        assert bulk.statistics == single.statistics

    def test_units_take_the_checked_path(self):
        solver = CdclSolver()
        solver.add_clauses(*_flat([[1], [-1, 2], [-2]]))
        assert solver.num_clauses == 1
        assert solver.solve() == SatStatus.UNSAT

    def test_empty_clauses_prove_unsat(self):
        solver = CdclSolver()
        solver.add_clauses([], [0])  # one clause, no literals
        assert solver.solve() == SatStatus.UNSAT
        mixed = CdclSolver()
        mixed.add_clauses(*_flat([[1, 2], [], [-1, 2]]))
        assert mixed.num_clauses == 2
        assert mixed.solve() == SatStatus.UNSAT

    def test_loading_nothing_is_a_no_op(self):
        solver = CdclSolver()
        solver.add_clauses([], [])
        assert solver.num_vars == 0 and solver.num_clauses == 0
        assert solver.solve() == SatStatus.SAT

    def test_root_trail_simplifies_bulk_loaded_clauses(self):
        solver = CdclSolver()
        solver.add_clause([1])
        assert solver.solve() == SatStatus.SAT  # 1 now sits on the root trail
        # [-1, 2] must lose its false literal (propagation never revisits -1,
        # so attaching it as is would leave 2 unforced); [1, 3] is satisfied
        # at level 0 and dropped; [-1, -2, 4] shrinks to a binary clause.
        solver.add_clauses(*_flat([[-1, 2], [1, 3], [-1, -2, 4]]))
        assert solver.num_clauses == 1
        assert solver._pending_units == [2]
        assert solver.solve() == SatStatus.SAT
        model = solver.model()
        assert model[2] is True and model[4] is True
        # All false at the root: detected on arrival.
        solver.add_clauses(*_flat([[-1, -2]]))
        assert solver.solve() == SatStatus.UNSAT

    def test_loading_between_solve_calls(self):
        solver = CdclSolver()
        solver.add_clauses(*_flat([[1, 2], [-1, 3]]))
        assert solver.solve(assumptions=[1]) == SatStatus.SAT
        assert solver.model()[3] is True
        assert solver.decision_level == 0
        solver.add_clauses(*_flat([[-3, 4], [-4, -1, 5]]))
        assert solver.num_vars == 5 and solver.num_clauses == 4
        assert solver.solve(assumptions=[1]) == SatStatus.SAT
        model = solver.model()
        assert model[3] and model[4] and model[5]
        solver.add_clauses(*_flat([[-5, -3]]))
        assert solver.solve(assumptions=[1]) == SatStatus.UNSAT
        assert solver.solve() == SatStatus.SAT

    def test_growth_keeps_arrays_and_heap_consistent(self):
        solver = CdclSolver()
        solver.add_clauses(*_flat([[1, -7], [3, 7]]))
        assert solver.solve() == SatStatus.SAT  # pops variables off the heap
        solver.add_clauses(*_flat([[-3, 12], [9, -12, 2]]))
        assert solver.num_vars == 12
        for array in (solver._assignment, solver._level, solver._reason, solver._activity, solver._phase):
            assert len(array) == 13
        solver.ensure_vars(5)  # never shrinks
        assert solver.num_vars == 12
        assert solver.solve() == SatStatus.SAT
        # Every variable, old or new, was reachable for branching.
        assert sorted(solver.model()) == list(range(1, 13))
        heap = solver._heap
        assert sorted(heap._heap) == list(range(1, 13))
        assert all(heap._heap[position] == variable for variable, position in heap._positions.items())

    def test_bulk_growth_equals_one_variable_at_a_time(self):
        bulk, stepwise = CdclSolver(), CdclSolver()
        bulk.ensure_vars(6)
        for count in range(1, 7):
            stepwise.ensure_vars(count)
        assert bulk._heap._heap == stepwise._heap._heap
        assert bulk._heap._positions == stepwise._heap._positions
        assert bulk._assignment == stepwise._assignment and bulk._phase == stepwise._phase

    def test_rejected_above_decision_level_zero(self):
        solver = CdclSolver()
        solver.add_clauses(*_flat([[1, 2]]))
        # No public call leaves the solver above level 0; open one by hand.
        solver._trail_limits.append(len(solver._trail))
        solver._enqueue(1, None)
        with pytest.raises(SolverError, match="decision level 0"):
            solver.add_clauses(*_flat([[-1, 2]]))
        assert solver.num_clauses == 1

    @given(
        st.lists(
            st.lists(st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v))), max_size=4, unique_by=abs),
            max_size=20,
        ),
        st.integers(0, 20),
    )
    @settings(max_examples=120, deadline=None)
    def test_split_loads_agree_with_brute_force(self, clauses, cut):
        cdcl, brute = CdclSolver(), BruteForceSolver()
        cdcl.add_clauses(*_flat(clauses[:cut]))
        cdcl.solve()  # may leave a root trail for the second load to respect
        cdcl.add_clauses(*_flat(clauses[cut:]))
        for clause in clauses:
            brute.add_clause(list(clause))
        assert cdcl.solve() == brute.solve()
