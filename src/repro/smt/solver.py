"""The SMT solver facade: assert terms, check satisfiability, read models.

This is the narrow waist between the symbolic modelling layer and the SAT
core.  A :class:`Solver` owns a set of asserted boolean terms; ``check()``
conjoins them, bit-blasts the conjunction, converts it to CNF with the
Tseitin transform and hands the clauses to the CDCL solver.  When the result
is satisfiable, the solver reassembles a :class:`~repro.smt.model.Model` over
the original (pre-blasting) variable names.

Two backends discharge queries:

* :class:`Solver` — the stateless facade.  Each ``check`` builds a fresh SAT
  instance; simple, allocation-heavy, and the natural baseline.
* :class:`~repro.smt.incremental.IncrementalSolver` — a persistent backend
  that keeps one CDCL solver alive across checks, caches bit-blasting and
  Tseitin output per term, and implements ``push``/``pop`` with activation
  literals.  Pass one to :func:`prove`/:func:`check_sat` via their ``solver``
  argument (or use :func:`repro.smt.incremental.process_solver` for the
  shared per-process instance) to amortise encoding and learned clauses
  across queries.

Two convenience entry points cover the two query shapes Timepiece needs:

* :meth:`Solver.check` — is the conjunction of assertions satisfiable?
* :func:`prove` — is a formula valid?  (Checks the negation for
  unsatisfiability and returns a counterexample model otherwise.)

Module-level :data:`GLOBAL_STATISTICS` aggregates encoding and solving work
across *all* backends in the process; the ablation benchmarks snapshot it to
compare the fresh and incremental pipelines.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

from repro.errors import SolverError
from repro.smt import builder
from repro.smt.bitblast import BitBlaster, bit_name
from repro.smt.cnf import Cnf
from repro.smt.model import Model
from repro.smt.sat.solver import CdclSolver, SatStatus
from repro.smt.terms import Term, free_variables
from repro.smt.tseitin import TseitinEncoder


class CheckResult:
    """Outcome of a satisfiability check."""

    def __init__(self, status: SatStatus, model: Model | None) -> None:
        self.status = status
        self._model = model

    @property
    def is_sat(self) -> bool:
        return self.status == SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SatStatus.UNSAT

    def model(self) -> Model:
        if self._model is None:
            raise SolverError(
                f"no model available (the solver reported {self.status.value!r})"
            )
        return self._model

    def __repr__(self) -> str:
        return f"CheckResult({self.status.value})"


@dataclass
class SolverStatistics:
    """Aggregate statistics for benchmarking the SMT backend."""

    variables: int = 0
    clauses: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    checks: int = 0
    solve_seconds: float = 0.0

    def snapshot(self) -> "SolverStatistics":
        """An independent copy (for before/after deltas)."""
        return replace(self)

    def since(self, earlier: "SolverStatistics") -> "SolverStatistics":
        """The component-wise difference ``self - earlier``."""
        return SolverStatistics(
            variables=self.variables - earlier.variables,
            clauses=self.clauses - earlier.clauses,
            conflicts=self.conflicts - earlier.conflicts,
            decisions=self.decisions - earlier.decisions,
            propagations=self.propagations - earlier.propagations,
            checks=self.checks - earlier.checks,
            solve_seconds=self.solve_seconds - earlier.solve_seconds,
        )


#: Process-wide totals across every backend (fresh facades and incremental
#: solvers alike).  The ablation benchmarks snapshot this to compare modes.
GLOBAL_STATISTICS = SolverStatistics()


class Solver:
    """Stateless facade over the eager bit-blasting pipeline.

    The facade supports ``push``/``pop`` of assertion frames.  Each ``check``
    builds a fresh SAT instance — nothing is reused between queries, which
    keeps this path simple and makes it the baseline the incremental backend
    (:class:`repro.smt.incremental.IncrementalSolver`) is measured against.
    """

    def __init__(self) -> None:
        self._assertions: list[Term] = []
        self._frames: list[int] = []
        self.statistics = SolverStatistics()

    # -- assertion management ----------------------------------------------------

    def add(self, *terms: Term) -> None:
        """Assert one or more boolean terms."""
        for term in terms:
            if not term.sort.is_bool():
                raise SolverError(f"only boolean terms can be asserted, got sort {term.sort!r}")
            self._assertions.append(term)

    def push(self) -> None:
        """Open a new assertion frame."""
        self._frames.append(len(self._assertions))

    def pop(self) -> None:
        """Discard every assertion added since the matching :meth:`push`."""
        if not self._frames:
            raise SolverError("pop without a matching push")
        boundary = self._frames.pop()
        del self._assertions[boundary:]

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    # -- solving ------------------------------------------------------------------

    def check(self, *extra: Term, timeout: float | None = None) -> CheckResult:
        """Check satisfiability of the asserted terms plus ``extra``.

        ``timeout`` is a soft wall-clock limit in seconds; a timed-out query
        reports :data:`SatStatus.UNKNOWN`.
        """
        started = _time.perf_counter()
        goal = builder.and_(*self._assertions, *extra)
        if goal.is_true():
            return CheckResult(SatStatus.SAT, Model({}))
        if goal.is_false():
            return CheckResult(SatStatus.UNSAT, None)

        blaster = BitBlaster()
        blasted = blaster.blast(goal)
        if blasted.is_true():
            return CheckResult(SatStatus.SAT, Model({}))
        if blasted.is_false():
            return CheckResult(SatStatus.UNSAT, None)

        cnf = Cnf()
        encoder = TseitinEncoder(cnf)
        encoder.assert_term(blasted)

        sat_solver = CdclSolver()
        sat_solver.ensure_vars(cnf.num_vars)
        literals, ends = cnf.span(0, cnf.num_clauses)
        sat_solver.add_clauses(literals.tolist(), ends)
        status = sat_solver.solve(timeout=timeout)

        elapsed = _time.perf_counter() - started
        for statistics in (self.statistics, GLOBAL_STATISTICS):
            statistics.variables += cnf.num_vars
            statistics.clauses += cnf.num_clauses
            statistics.conflicts += sat_solver.statistics["conflicts"]
            statistics.decisions += sat_solver.statistics["decisions"]
            statistics.propagations += sat_solver.statistics["propagations"]
            statistics.checks += 1
            statistics.solve_seconds += elapsed

        if status != SatStatus.SAT:
            return CheckResult(status, None)
        model = self._reconstruct_model(goal, cnf, sat_solver.model(), blaster)
        return CheckResult(status, model)

    @staticmethod
    def _reconstruct_model(
        goal: Term,
        cnf: Cnf,
        sat_assignment: dict[int, bool],
        blaster: BitBlaster,
    ) -> Model:
        values: dict[str, bool | int] = {}
        # Boolean variables keep their names through blasting and CNF conversion.
        for name, cnf_var in cnf.name_to_var.items():
            if name.startswith("$") or bit_is_exploded(name):
                continue
            values[name] = sat_assignment.get(cnf_var, False)
        # Bitvector variables are reassembled from their per-bit booleans.
        for name, width in blaster.bitvector_variables.items():
            value = 0
            for index in range(width):
                cnf_var = cnf.name_to_var.get(bit_name(name, index))
                if cnf_var is not None and sat_assignment.get(cnf_var, False):
                    value |= 1 << index
            values[name] = value
        # Variables of the goal that were simplified away are unconstrained;
        # record defaults so counterexample reporting is total.
        for name, term in free_variables(goal).items():
            if name not in values:
                values[name] = False if term.sort.is_bool() else 0
        return Model(values)


def bit_is_exploded(name: str) -> bool:
    """True for the per-bit boolean variable names created by the bit-blaster."""
    from repro.smt.bitblast import BIT_SEPARATOR

    return BIT_SEPARATOR in name


def check_sat(term: Term, solver: "Solver | None" = None) -> CheckResult:
    """Check satisfiability of a single term.

    ``solver`` may be a reusable backend (a facade :class:`Solver` or an
    :class:`~repro.smt.incremental.IncrementalSolver`); the term is checked
    in a fresh ``push``/``pop`` frame so the backend's own assertions are
    untouched.  Without one, a throwaway facade is used.
    """
    if solver is None:
        solver = Solver()
        solver.add(term)
        return solver.check()
    solver.push()
    try:
        solver.add(term)
        return solver.check()
    finally:
        solver.pop()


@dataclass
class ProofResult:
    """Outcome of a validity query."""

    valid: bool
    counterexample: Model | None
    #: True when the query timed out (neither proved nor refuted).
    unknown: bool = False

    def __bool__(self) -> bool:
        return self.valid


def prove(
    term: Term,
    *assumptions: Term,
    timeout: float | None = None,
    solver: "Solver | None" = None,
) -> ProofResult:
    """Decide validity of ``assumptions ⟹ term``.

    Returns a :class:`ProofResult`; when the implication is not valid, the
    result carries a counterexample model of the assumptions plus the negated
    goal.  With ``timeout`` set, an undecided query is reported with
    ``unknown=True``.

    ``solver`` selects the backend: pass a long-lived
    :class:`~repro.smt.incremental.IncrementalSolver` (or facade
    :class:`Solver`) to reuse its encoded structure and learned clauses —
    the query runs inside a ``push``/``pop`` frame so the backend is left as
    it was found.  Without one, a throwaway facade is built (the historical
    behaviour).
    """
    if solver is None:
        solver = Solver()
        for assumption in assumptions:
            solver.add(assumption)
        solver.add(builder.not_(term))
        outcome = solver.check(timeout=timeout)
    else:
        solver.push()
        try:
            for assumption in assumptions:
                solver.add(assumption)
            solver.add(builder.not_(term))
            outcome = solver.check(timeout=timeout)
        finally:
            solver.pop()
    if outcome.is_unsat:
        return ProofResult(True, None)
    if outcome.status == SatStatus.UNKNOWN:
        return ProofResult(False, None, unknown=True)
    return ProofResult(False, outcome.model())
