"""Tests for the CNF container, DIMACS helpers and the Tseitin encoder."""

import pytest

from repro import smt
from repro.errors import SolverError
from repro.smt import dimacs
from repro.smt.cnf import Cnf
from repro.smt.sat import BruteForceSolver, CdclSolver, SatStatus
from repro.smt.tseitin import TseitinEncoder
from repro.smt.walker import evaluate


class TestCnf:
    def test_variable_allocation(self):
        cnf = Cnf()
        first = cnf.new_var("a")
        second = cnf.new_var()
        assert (first, second) == (1, 2)
        assert cnf.var_for_name("a") == 1
        assert cnf.var_for_name("b") == 3

    def test_duplicate_names_rejected(self):
        cnf = Cnf()
        cnf.new_var("a")
        with pytest.raises(SolverError):
            cnf.new_var("a")

    def test_add_clause_drops_tautologies_and_duplicates(self):
        cnf = Cnf()
        cnf.new_var("a")
        cnf.new_var("b")
        cnf.add_clause([1, -1])
        assert cnf.num_clauses == 0
        cnf.add_clause([1, 1, 2])
        assert cnf.clauses == [[1, 2]]

    def test_out_of_range_literal_rejected(self):
        cnf = Cnf()
        with pytest.raises(SolverError):
            cnf.add_clause([1])
        cnf.new_var()
        with pytest.raises(SolverError):
            cnf.add_clause([0])

    def test_dimacs_output(self):
        cnf = Cnf()
        cnf.new_var()
        cnf.new_var()
        cnf.add_clause([1, -2])
        text = cnf.to_dimacs()
        assert "p cnf 2 1" in text
        assert "1 -2 0" in text


    def test_clauses_view_over_flat_storage(self):
        cnf = Cnf()
        for _ in range(4):
            cnf.new_var()
        for clause in ([1, -2], [3], [-1, 2, 4], []):
            cnf.add_clause(clause)
        view = cnf.clauses
        assert len(view) == cnf.num_clauses == 4
        assert view[0] == [1, -2] and view[-1] == [] and view[-2] == [-1, 2, 4]
        assert view[1:3] == [[3], [-1, 2, 4]]
        assert list(view) == [[1, -2], [3], [-1, 2, 4], []]
        assert view == [[1, -2], [3], [-1, 2, 4], []] and view != [[1, -2]]
        assert [3] in view and [2] not in view
        with pytest.raises(IndexError):
            view[4]
        # Read-only: clauses come out as copies and the view has no mutators.
        view[0].append(99)
        assert cnf.clauses[0] == [1, -2]
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = [1]
        # The view is live: later clauses show up.
        cnf.add_clause([4, 4, -3])
        assert view[-1] == [4, -3]
        assert list(cnf.literals) == [1, -2, 3, -1, 2, 4, 4, -3]
        assert list(cnf.offsets) == [0, 2, 3, 6, 6, 8]

    def test_span_is_a_slice_with_relative_clause_ends(self):
        cnf = Cnf()
        for _ in range(4):
            cnf.new_var()
        for clause in ([1, -2], [3], [-1, 2, 4], [4, -3]):
            cnf.add_clause(clause)
        literals, ends = cnf.span(1, 3)
        assert list(literals) == [3, -1, 2, 4] and ends == [1, 4]
        literals, ends = cnf.span(0, 4)
        assert list(literals) == list(cnf.literals) and ends == [2, 3, 6, 8]
        literals, ends = cnf.span(2, 2)
        assert list(literals) == [] and ends == []


class TestDimacs:
    def test_flat_storage_round_trip_with_units_and_empty_clause(self):
        cnf = Cnf()
        for _ in range(5):
            cnf.new_var()
        clauses = [[1, -2, 5], [3], [], [-4, 2], [-5]]
        for clause in clauses:
            cnf.add_clause(clause)
        text = dimacs.dumps(cnf)
        assert text == cnf.to_dimacs()
        assert text.splitlines() == ["p cnf 5 5", "1 -2 5 0", "3 0", " 0", "-4 2 0", "-5 0"]
        parsed = dimacs.loads(text)
        assert parsed.num_vars == 5
        assert parsed.clauses == clauses
        assert dimacs.dumps(parsed) == text

    def test_round_trip(self):
        cnf = Cnf()
        cnf.new_var()
        cnf.new_var()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        text = dimacs.dumps(cnf, comments=["round trip"])
        parsed = dimacs.loads(text)
        assert parsed.num_vars == 2
        assert parsed.clauses == [[1, 2], [-1, 2]]

    def test_loads_requires_header(self):
        with pytest.raises(SolverError):
            dimacs.loads("1 2 0\n")

    def test_file_round_trip(self, tmp_path):
        cnf = Cnf()
        cnf.new_var()
        cnf.add_clause([1])
        path = tmp_path / "problem.cnf"
        dimacs.dump_file(cnf, str(path))
        loaded = dimacs.load_file(str(path))
        assert loaded.clauses == [[1]]


def _solve_with_tseitin(term):
    """Encode a boolean term and return (status, model-evaluated-term)."""
    cnf = Cnf()
    encoder = TseitinEncoder(cnf)
    encoder.assert_term(term)
    solver = CdclSolver()
    solver.ensure_vars(cnf.num_vars)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    status = solver.solve()
    if status != SatStatus.SAT:
        return status, None
    assignment = solver.model()
    env = {name: assignment.get(var, False) for name, var in cnf.name_to_var.items()}
    return status, evaluate(term, env)


class TestTseitin:
    def test_satisfiable_formula_model_satisfies_original(self):
        a, b, c = (smt.bool_var(name) for name in "abc")
        formula = smt.and_(smt.or_(a, b), smt.or_(smt.not_(a), c), smt.eq(b, c))
        status, value = _solve_with_tseitin(formula)
        assert status == SatStatus.SAT
        assert value is True

    def test_unsatisfiable_formula(self):
        a = smt.bool_var("a")
        formula = smt.and_(smt.eq(a, smt.bool_var("b")), a, smt.not_(smt.bool_var("b")))
        status, _ = _solve_with_tseitin(formula)
        assert status == SatStatus.UNSAT

    def test_ite_encoding(self):
        c, a, b = (smt.bool_var(name) for name in "cab")
        formula = smt.and_(smt.ite(c, a, b), smt.not_(a))
        status, value = _solve_with_tseitin(formula)
        assert status == SatStatus.SAT
        assert value is True

    def test_agrees_with_brute_force_on_small_formulas(self):
        a, b, c, d = (smt.bool_var(name) for name in "abcd")
        formulas = [
            smt.and_(smt.or_(a, b, c), smt.or_(smt.not_(a), smt.not_(b)), d),
            smt.eq(smt.and_(a, b), smt.or_(c, d)),
            smt.and_(a, smt.not_(a)),
            smt.or_(smt.and_(a, b), smt.and_(smt.not_(a), smt.not_(b))),
        ]
        for formula in formulas:
            cnf = Cnf()
            encoder = TseitinEncoder(cnf)
            encoder.assert_term(formula)
            cdcl = CdclSolver()
            brute = BruteForceSolver()
            cdcl.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                cdcl.add_clause(list(clause))
                brute.add_clause(list(clause))
            assert cdcl.solve() == brute.solve()
