"""A conflict-driven clause-learning (CDCL) SAT solver.

The implementation follows the classic MiniSat architecture:

* two-watched-literal unit propagation;
* VSIDS variable activities with exponential decay (implemented by growing
  the bump amount) and an indexed max-heap for branching;
* first-UIP conflict analysis with clause learning;
* non-chronological backjumping;
* phase saving;
* Luby-sequence restarts; and
* activity/LBD-based learned-clause deletion (``_reduce_learned``) plus
  top-level removal of satisfied clauses (``_simplify_database``), which keep
  a long-lived clause database healthy.

The solver is *incremental*: :meth:`CdclSolver.add_clause` may be called
between :meth:`CdclSolver.solve` calls, and :meth:`solve` accepts assumption
literals that hold only for that one call.  Every ``solve`` exit path —
satisfiable, unsatisfiable, assumption failure or timeout — leaves the solver
back at decision level 0 so the next ``add_clause``/``solve`` starts from a
clean trail.  Clauses added between calls are simplified against the
top-level assignment (literals false at level 0 are dropped, clauses
satisfied at level 0 are discarded), which keeps the two-watched-literal
invariant sound for late-arriving clauses.

The inner loops (:meth:`CdclSolver._propagate`, ``_analyze``,
``_backtrack``) work over local bindings of the solver's arrays, with value
lookups, enqueues and activity bumps inlined, and propagation compacts each
visited watch list in place: clauses that stay are written back from the
front and the slots of clauses that moved to a replacement watch are deleted
in one slice.  The search itself is kept step for step: watch lists are
visited in order, replacement watches are scanned from position 2 up, and
activities are bumped and rescaled with the same float operations.  Any of
those decides which clause propagates or conflicts first, so changing one
moves every search count (``tests/smt/test_sat_solver.py::TestGoldenSearchTraces``
and the clause-shipping goldens pin them).
"""

from __future__ import annotations

import gc
import time as _time
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from types import MappingProxyType

from repro.errors import SolverError
from repro.smt.sat.heap import ActivityHeap


#: The Luby restart unit (conflicts), and the per-conflict activity decay of
#: variables and of learned clauses.
RESTART_BASE = 100
ACTIVITY_DECAY = 0.95
CLAUSE_DECAY = 0.999


class SatStatus(Enum):
    """Result of a satisfiability query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


def luby(index: int) -> int:
    """The ``index``-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    if index < 1:
        raise SolverError(f"Luby sequence is 1-based, got index {index}")
    while True:
        size = 1
        while (1 << size) - 1 < index:
            size += 1
        if index == (1 << size) - 1:
            return 1 << (size - 1)
        index -= (1 << (size - 1)) - 1


class LearnedClause(list):
    """A learned clause plus the bookkeeping used to decide deletion.

    ``activity`` is bumped whenever the clause participates in conflict
    analysis (and decays like variable activities); ``lbd`` is the literal
    block distance — the number of distinct decision levels among the
    clause's literals when it was learned.  Low-LBD ("glue") clauses are
    never deleted.
    """

    __slots__ = ("activity", "lbd")

    def __init__(self, literals: list[int]) -> None:
        super().__init__(literals)
        self.activity = 0.0
        self.lbd = len(literals)


class CdclSolver:
    """CDCL SAT solver over clauses of integer literals (DIMACS convention)."""

    def __init__(self, max_learned: int = 2000) -> None:
        self.num_vars = 0
        self._clauses: list[list[int]] = []
        self._learned: list[LearnedClause] = []
        self._watches: defaultdict[int, list[list[int]]] = defaultdict(list)
        self._assignment: list[int] = [0]  # 1-indexed; 0 = unassigned, 1 = true, -1 = false
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._propagation_head = 0
        self._heap = ActivityHeap(self._activity)
        #: The variables the current search may branch on (see :meth:`solve`).
        self._branch: set[int] = set()
        #: Conflict-analysis markers; all false between :meth:`_analyze` calls.
        self._seen: list[bool] = [False]
        self._activity_increment = 1.0
        self._clause_activity_increment = 1.0
        self._max_learned = float(max_learned)
        self._unsatisfiable = False
        self._pending_units: list[int] = []
        self._model: dict[int, bool] = {}
        self._simplified_trail_size = 0
        # Statistics, reported by the benchmarks.
        self.statistics = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }

    # -- problem construction ---------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (units and learned clauses excluded)."""
        return len(self._clauses)

    def ensure_vars(self, count: int) -> None:
        """Grow the variable universe so that variables ``1..count`` exist."""
        grow = count - self.num_vars
        if grow <= 0:
            return
        self._assignment.extend([0] * grow)
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([False] * grow)
        self._seen.extend([False] * grow)
        self.num_vars = count

    def add_clause(self, literals: list[int]) -> bool:
        """Add a clause to the database (before or between solve calls).

        The clause is simplified against the top-level assignment: clauses
        satisfied at decision level 0 are dropped and literals false at level
        0 are removed.  Level-0 assignments are consequences of the existing
        database, so this preserves equivalence — and it is required for
        soundness, because unit propagation never revisits literals that were
        falsified before the clause arrived.

        Returns whether the clause recorded a constraint (attached, queued
        as a unit, or proved the database unsatisfiable); redundant clauses
        — tautologies and clauses already satisfied at level 0 — report
        ``False``.
        """
        if self._trail_limits:
            raise SolverError("clauses may only be added at decision level 0")
        unique: list[int] = []
        seen: set[int] = set()
        for literal in literals:
            if literal == 0:
                raise SolverError("0 is not a valid literal")
            self.ensure_vars(abs(literal))
            if -literal in seen:
                return False  # tautology
            if literal not in seen:
                seen.add(literal)
                unique.append(literal)
        simplified: list[int] = []
        for literal in unique:
            value = self._value(literal)
            if value == 1:
                return False  # already satisfied at level 0
            if value == 0:
                simplified.append(literal)
            # value == -1: falsified at level 0, drop the literal
        if not simplified:
            self._unsatisfiable = True
            return True
        if len(simplified) == 1:
            self._pending_units.append(simplified[0])
            return True
        self._attach_clause(simplified)
        return True

    def add_clause_unchecked(self, literals: list[int]) -> bool:
        """Bulk-load fast path for clauses straight out of a CNF database.

        The caller guarantees the literals are nonzero, duplicate-free and
        tautology-free (:class:`repro.smt.cnf.Cnf` enforces exactly this), so
        the per-literal vetting of :meth:`add_clause` is skipped.  The clause
        list is owned by the solver afterwards.  When top-level assignments
        exist the checked path is taken anyway — those require
        simplification against the root trail.  Returns whether a constraint
        was recorded (see :meth:`add_clause`).
        """
        if self._trail or len(literals) < 2:
            return self.add_clause(literals)
        if self._trail_limits:
            raise SolverError("clauses may only be added at decision level 0")
        self.ensure_vars(max(abs(literal) for literal in literals))
        self._attach_clause(literals)
        return True

    def add_clauses(self, literals: list[int], ends: Iterable[int]) -> None:
        """Bulk-load a run of CNF clauses stored back to back in ``literals``.

        Clause ``i`` is ``literals[ends[i - 1]:ends[i]]`` (the first starts
        at 0) — the layout of :meth:`repro.smt.cnf.Cnf.span`.  The effect is
        that of :meth:`add_clause_unchecked` on each clause in order, under
        the same caller guarantees, but the variable arrays grow once and
        the watches are attached in one loop.  Units and empty clauses, and
        every clause while a root trail exists, take the checked
        :meth:`add_clause` path.
        """
        if self._trail_limits:
            raise SolverError("clauses may only be added at decision level 0")
        if literals:
            self.ensure_vars(max(max(literals), -min(literals)))
        root_trail = bool(self._trail)
        checked = self.add_clause
        attach = self._clauses.append
        watches = self._watches
        # A clause list holds only ints and can never be part of a reference
        # cycle, yet allocating ~10^6 of them back to back drives the cyclic
        # collector through full passes over every live object that free
        # nothing (0.65 s of the 1.5 s k=12 fattree/reach spent shipping),
        # so the collector is paused for the duration of the loop.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = 0
            for end in ends:
                clause = literals[start:end]
                if root_trail or end - start < 2:
                    checked(clause)
                else:
                    attach(clause)
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
                start = end
        finally:
            if collecting:
                gc.enable()

    def _attach_clause(self, clause: list[int]) -> None:
        if isinstance(clause, LearnedClause):
            self._learned.append(clause)
        else:
            self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _detach_clauses(self, clauses: list[list[int]]) -> set[int]:
        """Remove ``clauses`` from their watch lists, filtering each list once.

        Every attached clause sits exactly once in the lists of its first two
        literals, so dropping it there is the whole detach; the lists keep
        their order.  Returns the ids of the detached clauses.
        """
        removed = {id(clause) for clause in clauses}
        watches = self._watches
        for literal in {literal for clause in clauses for literal in clause[:2]}:
            watches[literal] = [clause for clause in watches[literal] if id(clause) not in removed]
        return removed

    # -- assignment helpers -----------------------------------------------------

    def _value(self, literal: int) -> int:
        """1 if the literal is true, -1 if false, 0 if unassigned."""
        value = self._assignment[abs(literal)]
        return value if literal > 0 else -value

    @property
    def decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: int, reason: list[int] | None) -> bool:
        current = self._value(literal)
        if current == 1:
            return True
        if current == -1:
            return False
        variable = abs(literal)
        self._assignment[variable] = 1 if literal > 0 else -1
        self._level[variable] = self.decision_level
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation.  Returns a conflicting clause, or ``None``."""
        trail = self._trail
        assignment = self._assignment
        watches = self._watches
        level = self._level
        reason = self._reason
        phase = self._phase
        decision_level = len(self._trail_limits)
        start = head = self._propagation_head
        conflict: list[int] | None = None
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watch_list = watches.get(falsified)
            if not watch_list:
                continue
            # Compact in place: clauses that stay are written back from the
            # front, clauses that move to a replacement watch leave a gap.
            write = moved = 0
            for clause in watch_list:
                # Normalise so that the falsified literal sits at position 1.
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                other = clause[0]
                value = assignment[other] if other > 0 else -assignment[-other]
                if value != 1:
                    # Look for a replacement watch among the remaining literals.
                    for position in range(2, len(clause)):
                        candidate = clause[position]
                        if (assignment[candidate] if candidate > 0 else -assignment[-candidate]) != -1:
                            clause[1] = candidate
                            clause[position] = falsified
                            watches[candidate].append(clause)
                            moved += 1
                            break
                    else:
                        watch_list[write] = clause
                        write += 1
                        if value == -1:
                            conflict = clause
                            break
                        variable = other if other > 0 else -other
                        assignment[variable] = 1 if other > 0 else -1
                        level[variable] = decision_level
                        reason[variable] = clause
                        phase[variable] = other > 0
                        trail.append(other)
                    continue
                watch_list[write] = clause
                write += 1
            del watch_list[write : write + moved]
            if conflict is not None:
                break
        self._propagation_head = head
        self.statistics["propagations"] += head - start
        return conflict

    # -- conflict analysis ------------------------------------------------------

    def _bump_clause(self, clause: LearnedClause) -> None:
        clause.activity += self._clause_activity_increment
        if clause.activity > 1e100:
            for learned in self._learned:
                learned.activity *= 1e-100
            self._clause_activity_increment *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis.  Returns (learned clause, backjump level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        increment = self._activity_increment
        update = self._heap.update
        decision_level = len(self._trail_limits)
        counter = 0
        literal = 0
        clause: list[int] | None = conflict
        trail_index = len(trail) - 1
        while True:
            assert clause is not None, "reached a decision without finding the UIP"
            if isinstance(clause, LearnedClause):
                self._bump_clause(clause)
            for clause_literal in clause:
                # Skip the literal implied by this reason clause (the one whose
                # antecedents we are currently expanding).
                if clause_literal == literal:
                    continue
                variable = clause_literal if clause_literal > 0 else -clause_literal
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = True
                activity[variable] += increment
                if activity[variable] > 1e100:
                    for index in range(1, self.num_vars + 1):
                        activity[index] *= 1e-100
                    increment *= 1e-100
                    self._activity_increment = increment
                update(variable)
                if level[variable] >= decision_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            while not seen[abs(trail[trail_index])]:
                trail_index -= 1
            literal = trail[trail_index]
            trail_index -= 1
            seen[abs(literal)] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[abs(literal)]
        learned[0] = -literal
        # The markers still set are exactly the lower-level literals kept.
        for kept in learned:
            seen[abs(kept)] = False
        if len(learned) == 1:
            backjump_level = 0
        else:
            # Move the literal from the highest remaining decision level into
            # position 1 so the two-watched-literal invariant (the watched
            # literals are the last to be falsified) holds for the learned
            # clause after backjumping.
            best_index = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
            learned[1], learned[best_index] = learned[best_index], learned[1]
            backjump_level = level[abs(learned[1])]
        return learned, backjump_level

    def _backtrack(self, target_level: int) -> None:
        trail_limits = self._trail_limits
        if len(trail_limits) <= target_level:
            return
        trail = self._trail
        boundary = trail_limits[target_level]
        assignment = self._assignment
        reason = self._reason
        branch = self._branch
        push = self._heap.push
        for literal in reversed(trail[boundary:]):
            variable = literal if literal > 0 else -literal
            assignment[variable] = 0
            reason[variable] = None
            if variable in branch:
                push(variable)
        del trail[boundary:]
        del trail_limits[target_level:]
        self._propagation_head = len(trail)

    # -- clause-database maintenance --------------------------------------------

    def _is_locked(self, clause: LearnedClause) -> bool:
        """True while ``clause`` is the reason for its asserting literal.

        Propagation keeps a reason clause's implied literal at position 0, so
        checking the reason slot of ``clause[0]``'s variable suffices.
        """
        variable = abs(clause[0])
        return self._assignment[variable] != 0 and self._reason[variable] is clause

    def _reduce_learned(self) -> None:
        """Delete roughly half of the learned clauses (MiniSat's ``reduceDB``).

        Clauses are ranked by activity; the least active half is removed,
        except binary clauses, low-LBD "glue" clauses and clauses currently
        locked as reasons.  Deletion only discards redundant (entailed)
        clauses, so it never changes satisfiability — it just bounds the
        propagation cost of a long-lived incremental solver.
        """
        limit = len(self._learned) // 2
        doomed: list[list[int]] = []
        for clause in sorted(self._learned, key=lambda c: c.activity):
            if len(doomed) >= limit:
                break
            if len(clause) <= 2 or clause.lbd <= 2 or self._is_locked(clause):
                continue
            doomed.append(clause)
        if doomed:
            removed = self._detach_clauses(doomed)
            self._learned = [c for c in self._learned if id(c) not in removed]
            self.statistics["deleted"] += len(doomed)
        self._max_learned *= 1.1

    def _simplify_database(self) -> None:
        """Drop clauses satisfied by the top-level assignment.

        Called at decision level 0 with propagation complete, whenever the
        root trail has grown since the last call.  In incremental use this
        garbage-collects the clauses of retired assertion frames (their
        activation literal is forced false at the root, satisfying every
        guarded clause).
        """
        assignment = self._assignment
        satisfied: list[list[int]] = []
        for store in (self._clauses, self._learned):
            kept = []
            for clause in store:
                for literal in clause:
                    if (assignment[literal] if literal > 0 else -assignment[-literal]) == 1:
                        satisfied.append(clause)
                        break
                else:
                    kept.append(clause)
            store[:] = kept
        self._detach_clauses(satisfied)
        self._simplified_trail_size = len(self._trail)

    # -- branching ---------------------------------------------------------------

    def _pick_branch_variable(self) -> int | None:
        while len(self._heap):
            variable = self._heap.pop()
            if self._assignment[variable] == 0:
                return variable
        return None

    # -- main search -------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        timeout: float | None = None,
        branch: Sequence[int] | None = None,
    ) -> SatStatus:
        """Decide satisfiability of the clause database under ``assumptions``.

        ``timeout`` is a soft wall-clock limit in seconds; when exceeded the
        solver gives up and returns :data:`SatStatus.UNKNOWN`.  Whatever the
        outcome, the solver is left at decision level 0, so clauses may be
        added and ``solve`` called again.

        ``branch`` lists the (distinct) variables the search may decide on,
        ``None`` meaning all of them; every search starts from zero
        activities, so until conflicts say otherwise they are tried in the
        order given.  The answer is SAT once every one of them is assigned
        with propagation complete, so a caller restricting the set must know
        that such an assignment extends to a model of the whole database
        (:mod:`repro.smt.incremental` argues this for clause cones); the
        model then covers the assigned variables only.  An UNSAT answer is a
        derivation from the database whatever the set.
        """
        deadline = None if timeout is None else _time.monotonic() + timeout
        if self._unsatisfiable:
            return SatStatus.UNSAT
        self._backtrack(0)
        for unit in self._pending_units:
            if not self._enqueue(unit, None):
                self._unsatisfiable = True
                return SatStatus.UNSAT
        self._pending_units.clear()
        if self._propagate() is not None:
            self._unsatisfiable = True
            return SatStatus.UNSAT
        if len(self._trail) > self._simplified_trail_size:
            self._simplify_database()
        for literal in assumptions or []:
            self.ensure_vars(abs(literal))
            if self._value(literal) == -1:
                # An earlier assumption's propagation falsified this one.  The
                # earlier assumptions already pushed decision levels, so the
                # trail must be unwound before reporting failure — otherwise a
                # subsequent add_clause() would see a nonzero decision level.
                self._backtrack(0)
                return SatStatus.UNSAT
            if self._value(literal) == 0:
                self._trail_limits.append(len(self._trail))
                self._enqueue(literal, None)
                if self._propagate() is not None:
                    self._backtrack(0)
                    return SatStatus.UNSAT
        assumption_level = self.decision_level
        if branch is None:
            branch = range(1, self.num_vars + 1)
        # VSIDS state is per search.  In a long-lived instance the activity
        # earned refuting one query misleads the next: its variables are
        # tried first and decide nothing (wan/reach 10+40, one shared
        # instance: 2,259 decisions for 150 checks against 120 from zero).
        self._activity[:] = [0.0] * len(self._activity)
        self._activity_increment = 1.0
        self._heap.rebuild(branch)
        self._branch = set(branch)

        conflicts_until_restart = RESTART_BASE * luby(1)
        restart_count = 1
        conflicts_since_restart = 0
        iterations = 0
        while True:
            iterations += 1
            if deadline is not None and iterations % 512 == 0 and _time.monotonic() > deadline:
                self._backtrack(0)
                return SatStatus.UNKNOWN
            conflict = self._propagate()
            if conflict is not None:
                self.statistics["conflicts"] += 1
                conflicts_since_restart += 1
                if self.decision_level <= assumption_level:
                    self._backtrack(0)
                    if assumption_level == 0:
                        self._unsatisfiable = True
                    return SatStatus.UNSAT
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(max(backjump_level, assumption_level))
                if len(learned) == 1:
                    # A learned unit is entailed by the clause database alone
                    # (conflict analysis only resolves on reason clauses), so
                    # record it for future solve calls as well.
                    self._pending_units.append(learned[0])
                    if not self._enqueue(learned[0], None):
                        # The unit contradicts the current assumptions.  Only
                        # when there are none is the database itself unsat.
                        self._backtrack(0)
                        if assumption_level == 0:
                            self._unsatisfiable = True
                        return SatStatus.UNSAT
                else:
                    learned_clause = LearnedClause(learned)
                    levels = {self._level[abs(lit)] for lit in learned}
                    learned_clause.lbd = len(levels)
                    self._bump_clause(learned_clause)
                    self._attach_clause(learned_clause)
                    self.statistics["learned"] += 1
                    self._enqueue(learned[0], learned_clause)
                    if len(self._learned) >= self._max_learned:
                        self._reduce_learned()
                self._activity_increment /= ACTIVITY_DECAY
                self._clause_activity_increment /= CLAUSE_DECAY
            else:
                if conflicts_since_restart >= conflicts_until_restart:
                    self.statistics["restarts"] += 1
                    restart_count += 1
                    conflicts_since_restart = 0
                    conflicts_until_restart = RESTART_BASE * luby(restart_count)
                    self._backtrack(assumption_level)
                    continue
                variable = self._pick_branch_variable()
                if variable is None:
                    self._model = {abs(literal): literal > 0 for literal in self._trail}
                    self._backtrack(0)
                    return SatStatus.SAT
                self.statistics["decisions"] += 1
                self._trail_limits.append(len(self._trail))
                phase_literal = variable if self._phase[variable] else -variable
                self._enqueue(phase_literal, None)

    def model(self) -> Mapping[int, bool]:
        """The assignment found by the last successful solve call (read-only)."""
        return MappingProxyType(self._model)
