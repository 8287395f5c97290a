"""A self-contained finite-domain SMT solver.

This package stands in for Z3 (unavailable in this offline environment).  It
provides a typed term language over booleans and fixed-width bitvectors,
simplifying term constructors, an eager bit-blaster, a Tseitin CNF encoder
and a CDCL SAT core, wrapped in two solvers with one protocol
(``add``/``push``/``pop``/``check``):

* :class:`~repro.smt.incremental.IncrementalSolver` (and the shared
  :func:`~repro.smt.incremental.process_solver`) — the engine's one path; it
  amortises encoding, SAT scopes and learned clauses across queries.
* :class:`~repro.smt.solver.Solver` — the stateless facade, one fresh SAT
  instance per ``check``; the monolithic and strawperson baselines use it,
  and the test suite's reference run checks the engine against it.

Typical usage::

    from repro import smt

    x = smt.bv_var("x", 8)
    goal = smt.implies(smt.bv_ult(x, smt.bv_const(10, 8)),
                       smt.bv_ule(x, smt.bv_const(10, 8)))
    assert smt.prove(goal).valid
"""

from repro.smt.builder import (
    and_,
    bool_const,
    bool_var,
    bv_add,
    bv_const,
    bv_max,
    bv_min,
    bv_saturating_add,
    bv_sub,
    bv_uge,
    bv_ugt,
    bv_ule,
    bv_ult,
    bv_var,
    distinct,
    eq,
    false,
    iff,
    implies,
    ite,
    not_,
    or_,
    true,
    xor,
)
from repro.smt.incremental import IncrementalSolver, process_solver, reset_process_solver
from repro.smt.model import Model
from repro.smt.solver import (
    GLOBAL_STATISTICS,
    CheckResult,
    ProofResult,
    Solver,
    SolverStatistics,
    check_sat,
    prove,
)
from repro.smt.sorts import BOOL, BitVecSort, BoolSort, Sort, bitvec
from repro.smt.terms import Term, free_variables, iter_subterms, term_size
from repro.smt.walker import evaluate, substitute

__all__ = [
    # sorts
    "BOOL",
    "BitVecSort",
    "BoolSort",
    "Sort",
    "bitvec",
    # terms
    "Term",
    "free_variables",
    "iter_subterms",
    "term_size",
    "evaluate",
    "substitute",
    # builders
    "true",
    "false",
    "bool_const",
    "bool_var",
    "bv_const",
    "bv_var",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "xor",
    "ite",
    "eq",
    "distinct",
    "bv_add",
    "bv_sub",
    "bv_ult",
    "bv_ule",
    "bv_ugt",
    "bv_uge",
    "bv_min",
    "bv_max",
    "bv_saturating_add",
    # solving
    "Solver",
    "IncrementalSolver",
    "process_solver",
    "reset_process_solver",
    "CheckResult",
    "ProofResult",
    "Model",
    "SolverStatistics",
    "GLOBAL_STATISTICS",
    "check_sat",
    "prove",
]
