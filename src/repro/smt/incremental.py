"""A persistent, incremental SMT backend over the CDCL core.

The stateless facade (:class:`repro.smt.solver.Solver`) rebuilds the whole
pipeline — bit-blasting, Tseitin CNF conversion, a fresh
:class:`~repro.smt.sat.solver.CdclSolver` — on every ``check``.  The
:class:`IncrementalSolver` splits that pipeline into state with different
natural lifetimes and persists each part as long as it stays valid:

* **Bit-blasting is cached per process.**  Terms are globally hash-consed
  (:mod:`repro.smt.terms`), so ``term_id`` is a stable process-wide key; a
  single module-level :class:`~repro.smt.bitblast.BitBlaster` blasts every
  distinct subterm exactly once per process, no matter how many solvers or
  queries mention it.
* **Tseitin encoding is cached per solver.**  The encoder memoises CNF
  literals by ``term_id`` and records the clause span each subterm's
  encoding emitted, so shared subterms of successive queries are encoded
  exactly once and each query can name the *cone* of clauses it needs.
* **Assertions are guarded by activation literals.**  Asserting a term ``t``
  allocates an *activation* (assumption) variable ``a`` and the guarded
  clause ``¬a ∨ lit(t)`` — permanently.  A ``check`` assumes the activation
  literals of the currently active frames; ``pop`` simply stops assuming
  them, and re-asserting the same term later reuses the same guard for free.
* **SAT instances are scoped, and cones ship as ranges.**  Clauses are fed
  to the CDCL core on demand.  A cone is a sorted list of disjoint
  ``[start, end)`` clause-index ranges over the flat CNF
  (:class:`~repro.smt.cnf.Cnf`), and a scope remembers what it has received
  in the same shape, so each ``check`` finds the not-yet-shipped part of its
  active assertions' cones by interval subtraction.  Every such gap is one
  slice of the CNF's literal array: it is renumbered densely for the scope
  in one pass (new variables numbered in first-occurrence order, the whole
  slice turned over through a signed literal map) and handed to
  :meth:`CdclSolver.add_clauses <repro.smt.sat.solver.CdclSolver.add_clauses>`
  in one call — no per-clause Python call chain.  Within a scope the solver
  object, its clause database and its learned clauses persist across checks
  — that is what amortises the three verification conditions of a node.
  :meth:`new_scope` rotates in a fresh, empty SAT instance; the encoding
  caches are untouched, so the next check pays only the clause shipping,
  never re-encoding.  Scoping is what keeps a long-lived backend healthy: a
  single ever-growing SAT database would drag every historical query's
  clauses through propagation forever, which is measurably *slower* than
  fresh instances.

Learned clauses within a scope survive across checks: conflict analysis
resolves only on reason clauses (assumptions are decisions), so every
learned clause is entailed by the clause database alone and remains valid
when the assumption set changes.  The CDCL core additionally bounds the
retained set with activity/LBD-based deletion.

Soundness of the activation scheme: the guard clause ``¬a ∨ lit(t)`` only
constrains the fresh variable ``a``, so its presence never changes the
satisfiability of queries that do not assume ``a``; learned clauses
mentioning ``¬a`` are entailed by the database and simply become inert once
``a`` is no longer assumed.

**Class-canonical naming contract.**  The symmetry-aware checker
(:mod:`repro.core.symmetry`) builds verification conditions with
``naming="class"`` (:mod:`repro.core.conditions`): query routes are named by
predecessor *position*, so every member of a symmetry class produces the
*identical* hash-consed terms.  For this backend that means one SAT scope
serves the whole class — the representative's check encodes and ships the
clause cone once, and any further member query (the ``spot-check`` mode)
re-assumes the same activation literals against the same scope, reusing its
clause database *and* its learned clauses outright.  The clause-cone
filtering in :meth:`IncrementalSolver._ship` is what keeps this sharing
safe: a scope only ever receives the clauses its active assertions need,
however many other classes the process has encoded.  ``cache_statistics``
exposes counters (bit-blast and Tseitin cache hits, guard reuse, scopes,
clauses shipped and variables mapped into scopes, learned-clause retention)
so the sharing is measurable from reports.
"""

from __future__ import annotations

import time as _time
from operator import neg

from repro.errors import SolverError
from repro.smt import builder
from repro.smt.bitblast import BitBlaster, bit_name
from repro.smt.cnf import Cnf
from repro.smt.model import Model
from repro.smt.sat.solver import CdclSolver, SatStatus
from repro.smt.solver import GLOBAL_STATISTICS, CheckResult, SolverStatistics
from repro.smt.terms import Term, free_variables, iter_subterms
from repro.smt.tseitin import TseitinEncoder

#: The process-wide bit-blaster.  Terms are hash-consed globally, so blasted
#: results are valid in every solver instance and never need recomputing.
_PROCESS_BLASTER = BitBlaster()

#: Guard-table sentinels for assertions that blast to a constant.
_ALWAYS_SAT = "true"
_ALWAYS_UNSAT = "false"


class IncrementalSolver:
    """An SMT solver that persists encoding work across ``check`` calls.

    The public protocol mirrors the stateless facade — ``add``, ``push``,
    ``pop``, ``check`` — so :func:`repro.smt.solver.prove` and
    :func:`repro.smt.solver.check_sat` accept either backend.  Callers that
    batch related queries (the modular checker runs a node's three
    verification conditions back to back) bracket each batch with
    :meth:`new_scope` so the underlying SAT instance stays small while the
    batch shares its clause database and learned clauses.

    ``max_variables`` bounds the retained CNF: when the solver is fully
    popped and the variable count exceeds the bound, the CNF, encoder and
    guard table are rebuilt from scratch.  The process-wide bit-blasting
    cache is unaffected, so even a compacted solver re-encodes cheaply.
    ``max_scope_clauses`` is a safety valve for callers that never rotate
    scopes themselves: a check whose SAT instance has outgrown the bound
    starts a fresh scope automatically (always safe — each check re-ships
    the cone it needs).

    ``persist_learned`` carries learned clauses *across* scope rotations
    (they are dropped with the retiring SAT instance otherwise).  At
    rotation time the retiring instance's learned clauses are translated
    from its scope-local variable numbering back to the solver's global CNF
    variables into a bounded carry set; each later ``check`` injects, after
    shipping its clause cone, the carried clauses whose variables all
    appear in the scope (a clause over unmapped variables is trivially
    satisfiable there and would be pure overhead).  This is sound because
    every learned clause is entailed by the clauses shipped to its scope —
    a subset of the global CNF (Tseitin definitions, which are
    definitional, plus activation-guard clauses, which only constrain fresh
    guard variables) — so it is entailed by the global CNF and may be added
    to any other scope without changing any query's answer.  The carried
    set is bounded (``max_carried_clauses``, stalest evicted first) and is
    invalidated by compaction, which discards the CNF it is phrased over.
    ``cache_statistics`` reports both the distinct carry set
    (``learned_carry_size``) and cumulative injections
    (``learned_carried``).  Verification sessions
    (:class:`repro.verify.Session`) use this to retain conflict knowledge
    across whole runs.
    """

    def __init__(
        self,
        max_variables: int = 500_000,
        max_scope_clauses: int = 50_000,
        persist_learned: bool = False,
        max_carried_clauses: int = 4096,
        max_carried_literals: int = 16,
    ) -> None:
        self.max_variables = max_variables
        self.max_scope_clauses = max_scope_clauses
        self.persist_learned = persist_learned
        self.max_carried_clauses = max_carried_clauses
        self.max_carried_literals = max_carried_literals
        self.statistics = SolverStatistics()
        self._frames: list[list[Term]] = [[]]
        self._cnf = Cnf()
        self._encoder = TseitinEncoder(self._cnf)
        #: term_id -> (guard variable, cone clause spans) or a sentinel.
        self._guards: dict[int, tuple[int, tuple[tuple[int, int], ...]] | str] = {}
        #: How often the retained encoding state was rebuilt (observability).
        self.compactions = 0
        #: Guard-table counters: a hit means an assertion's encoded clause
        #: cone (and activation literal) was reused from an earlier query.
        self.guard_hits = 0
        self.guard_misses = 0
        #: SAT scopes started over this solver's lifetime (first scope included).
        self.scopes = 1
        # Learned-clause counters accumulated from rotated-out SAT instances.
        self._retired_learned = 0
        self._retired_deleted = 0
        #: Learned clauses harvested from retired scopes, phrased over the
        #: global CNF variables (only with ``persist_learned``).
        self._carried: dict[tuple[int, ...], None] = {}
        #: Carried clauses already injected into the current scope.
        self._carried_injected: set[tuple[int, ...]] = set()
        #: Scope variable count when carried clauses were last classified;
        #: lets repeated checks skip the rescan until new structure ships.
        self._carried_checked_at = -1
        #: Clauses injected into scopes from the carried set (cumulative).
        self.learned_carried = 0
        #: Clauses shipped / variables mapped into SAT scopes (cumulative).
        self.clauses_shipped = 0
        self.variables_mapped = 0
        self._sat = CdclSolver()
        #: Clause-index ranges the current scope holds (sorted, disjoint).
        self._shipped: tuple[tuple[int, int], ...] = ()
        #: Signed CNF literal -> scope-local literal, both polarities.
        self._literal_map: dict[int, int] = {}

    # -- assertion management ----------------------------------------------------

    def add(self, *terms: Term) -> None:
        """Assert one or more boolean terms in the current frame."""
        for term in terms:
            if not term.sort.is_bool():
                raise SolverError(f"only boolean terms can be asserted, got sort {term.sort!r}")
            self._frames[-1].append(term)

    def push(self) -> None:
        """Open a new assertion frame."""
        self._frames.append([])

    def pop(self) -> None:
        """Discard every assertion added since the matching :meth:`push`.

        Popping merely deactivates the frame's assertions; their encoded
        clauses stay cached (guarded by unassumed activation literals) so a
        later identical assertion is free.
        """
        if len(self._frames) == 1:
            raise SolverError("pop without a matching push")
        self._frames.pop()
        if len(self._frames) == 1 and not self._frames[0]:
            self._maybe_compact()

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(term for frame in self._frames for term in frame)

    # -- scope management ---------------------------------------------------------

    def new_scope(self) -> None:
        """Rotate in a fresh SAT instance (encoding caches persist).

        Safe at any time: the next ``check`` re-ships whatever cone of
        clauses its active assertions need.  The SAT-level clause database
        of the previous scope is dropped; its learned clauses are dropped
        too unless ``persist_learned`` is set, in which case they are
        translated back to global CNF variables and re-shipped into the
        fresh instance (see the class docstring for the soundness argument).
        """
        if self.persist_learned:
            self._harvest_learned()
        self._retired_learned += self._sat.statistics["learned"]
        self._retired_deleted += self._sat.statistics["deleted"]
        self._sat = CdclSolver()
        self._shipped = ()
        self._literal_map = {}
        self._carried_injected = set()
        self._carried_checked_at = -1
        self.scopes += 1

    def local_variable(self, cnf_variable: int) -> int | None:
        """The current scope's number for a CNF variable (``None``: not shipped)."""
        return self._literal_map.get(cnf_variable)

    def _harvest_learned(self) -> None:
        """Translate the retiring scope's learned clauses to global CNF variables.

        Root-implied literals are carried as unit clauses alongside the
        multi-literal learned clauses: learned units are the strongest
        conflict knowledge the scope derived (they fix a variable outright),
        and the CDCL core stores them on the root trail rather than in its
        learned-clause list.
        """
        inverse = {local: literal for literal, local in self._literal_map.items()}
        units = [[literal] for literal in self._sat.root_implied_literals()]
        for clause in units + self._sat.learned_clauses():
            if len(clause) > self.max_carried_literals:
                continue
            try:
                translated = tuple(inverse[literal] for literal in clause)
            except KeyError:
                # A literal over a variable this scope never mapped (cannot
                # happen for clauses learned from shipped cones; defensive).
                continue
            # Re-inserting moves the clause to the recent end of the carry
            # set, so the cap below evicts the stalest knowledge first.
            self._carried.pop(translated, None)
            self._carried[translated] = None
        while len(self._carried) > self.max_carried_clauses:
            self._carried.pop(next(iter(self._carried)))

    def _inject_carried(self) -> None:
        """Inject scope-relevant carried clauses into the current SAT instance.

        Runs after a ``check`` has shipped its clause cone: a carried clause
        is injected once per scope, and only if every variable it mentions
        is already mapped there — a clause over unmapped variables is
        trivially satisfiable in this scope and would only slow propagation.
        Mappability can only change when the scope's variable map grows, so
        checks that ship no new structure skip the rescan entirely.
        """
        literal_map = self._literal_map
        if self._carried_checked_at == len(literal_map):
            return
        self._carried_checked_at = len(literal_map)
        sat = self._sat
        injected = self._carried_injected
        for clause in self._carried:
            if clause in injected:
                continue
            try:
                mapped = [literal_map[literal] for literal in clause]
            except KeyError:
                continue
            injected.add(clause)
            # Count only clauses that recorded a constraint; the checked
            # add path drops clauses already satisfied at root level.
            if sat.add_clause_unchecked(mapped):
                self.learned_carried += 1

    def recover(self) -> None:
        """Restore a known-good state after an exception escaped a check.

        A crash part-way through ``check`` (a solve interrupted mid-search, a
        caller error between ``push`` and ``pop``) can leave the current SAT
        instance's trail and the assertion frames inconsistent; reusing them
        could poison every later query on this shared solver.  Recovery drops
        all frames above the root (root assertions are kept — they belong to
        the solver's owner, not the crashed query) and rotates in a fresh SAT
        scope.  The encoding caches are untouched: they are append-only maps
        keyed by hash-consed terms and cannot be corrupted by an interrupted
        query, so recovery costs one cheap clause re-ship, not a re-encode.
        """
        del self._frames[1:]
        self.new_scope()

    def cache_statistics(self) -> dict[str, int]:
        """Cumulative cache/reuse counters for this solver (plain ints).

        Includes the process-wide bit-blast cache (shared by every
        incremental solver in the process), this solver's Tseitin encoder and
        guard table, and learned-clause totals summed over all SAT scopes it
        has rotated through.  ``learned_retained`` counts clauses the CDCL
        cores kept (learned minus deleted) — the quantity the symmetry
        ablation reports as "learned clauses retained".
        """
        learned = self._retired_learned + self._sat.statistics["learned"]
        deleted = self._retired_deleted + self._sat.statistics["deleted"]
        return {
            "bitblast_hits": _PROCESS_BLASTER.cache_hits,
            "bitblast_misses": _PROCESS_BLASTER.cache_misses,
            "tseitin_hits": self._encoder.cache_hits,
            "tseitin_misses": self._encoder.cache_misses,
            "guard_hits": self.guard_hits,
            "guard_misses": self.guard_misses,
            "scopes": self.scopes,
            "clauses_shipped": self.clauses_shipped,
            "variables_mapped": self.variables_mapped,
            "clauses_learned": learned,
            "clauses_deleted": deleted,
            "learned_retained": learned - deleted,
            "learned_carried": self.learned_carried,
            "learned_carry_size": len(self._carried),
            "compactions": self.compactions,
        }

    def _maybe_compact(self) -> None:
        """Rebuild the retained encoding once it outgrows ``max_variables``."""
        if self._cnf.num_vars <= self.max_variables:
            return
        self._cnf = Cnf()
        retired = self._encoder
        self._encoder = TseitinEncoder(self._cnf)
        # Counters are cumulative over the solver's lifetime; carry them
        # across the rebuild so statistics do not reset on compaction.
        self._encoder.cache_hits = retired.cache_hits
        self._encoder.cache_misses = retired.cache_misses
        self._guards = {}
        # Carried learned clauses are phrased over the discarded CNF's
        # variable ids; they are meaningless against the rebuilt encoding.
        # The variable map is cleared first so the rotation below cannot
        # harvest the retiring scope's clauses into the new carry set.
        self._carried = {}
        self._carried_injected = set()
        self._literal_map = {}
        self.compactions += 1
        self.new_scope()

    # -- solving ------------------------------------------------------------------

    def check(self, *extra: Term, timeout: float | None = None) -> CheckResult:
        """Check satisfiability of the active assertions plus ``extra``.

        ``timeout`` is a soft wall-clock limit in seconds; a timed-out query
        reports :data:`SatStatus.UNKNOWN`.
        """
        started = _time.perf_counter()
        for term in extra:
            if not term.sort.is_bool():
                raise SolverError(f"only boolean terms can be asserted, got sort {term.sort!r}")
        terms = [term for frame in self._frames for term in frame] + list(extra)

        if self._sat.num_clauses > self.max_scope_clauses:
            self.new_scope()

        variables_before = self._cnf.num_vars
        clauses_before = self._cnf.num_clauses
        sat_before = dict(self._sat.statistics)

        assumptions: list[int] = []
        seen_guards: set[int] = set()
        trivially_unsat = False
        for term in terms:
            entry = self._activate(term)
            if entry == _ALWAYS_UNSAT:
                trivially_unsat = True
                break
            if entry == _ALWAYS_SAT:
                continue
            guard, spans = entry
            if guard in seen_guards:
                continue
            seen_guards.add(guard)
            self._ship(spans)
            assumptions.append(self._literal_map[guard])

        if trivially_unsat:
            status = SatStatus.UNSAT
        else:
            if self.persist_learned and self._carried:
                self._inject_carried()
            status = self._sat.solve(assumptions=assumptions, timeout=timeout)

        elapsed = _time.perf_counter() - started
        sat_after = self._sat.statistics if not trivially_unsat else sat_before
        for statistics in (self.statistics, GLOBAL_STATISTICS):
            statistics.variables += self._cnf.num_vars - variables_before
            statistics.clauses += self._cnf.num_clauses - clauses_before
            statistics.conflicts += sat_after["conflicts"] - sat_before["conflicts"]
            statistics.decisions += sat_after["decisions"] - sat_before["decisions"]
            statistics.propagations += sat_after["propagations"] - sat_before["propagations"]
            statistics.checks += 1
            statistics.solve_seconds += elapsed

        if status != SatStatus.SAT:
            return CheckResult(status, None)
        return CheckResult(status, self._reconstruct_model(terms))

    # -- internals ----------------------------------------------------------------

    def _activate(self, term: Term) -> tuple[int, tuple[tuple[int, int], ...]] | str:
        """The guard and clause cone of ``term``, encoding it on first use."""
        entry = self._guards.get(term.term_id)
        if entry is not None:
            self.guard_hits += 1
            return entry
        self.guard_misses += 1
        blasted = _PROCESS_BLASTER.blast(term)
        if blasted.is_true():
            entry = _ALWAYS_SAT
        elif blasted.is_false():
            entry = _ALWAYS_UNSAT
        else:
            literal = self._encoder.literal_for(blasted)
            guard = self._cnf.new_var()
            guard_index = self._cnf.num_clauses
            self._cnf.add_clause([-guard, literal])
            spans = [(guard_index, guard_index + 1)]
            # The cone: every clause emitted for any subterm of the blasted
            # goal, whether it was first encoded just now or by an earlier
            # query.  (Spans of subterms encoded within a larger span merely
            # overlap it; _merge_spans folds them into disjoint ranges, the
            # shape _ship subtracts the scope's shipped ranges from.)
            for subterm in iter_subterms(blasted):
                span = self._encoder.clause_span(subterm.term_id)
                if span is not None and span[0] < span[1]:
                    spans.append(span)
            entry = (guard, _merge_spans(spans))
        self._guards[term.term_id] = entry
        return entry

    def _ship(self, spans: tuple[tuple[int, int], ...]) -> None:
        """Feed the not-yet-shipped clauses of ``spans`` to the SAT core.

        ``spans`` is a cone as :func:`_merge_spans` leaves it (sorted,
        disjoint).  CNF variables are renumbered densely per scope, in order
        of first occurrence, so the SAT instance only ever sees the variables
        its own clauses mention — a query's cost does not grow with the
        amount of unrelated structure the encoder has accumulated.
        """
        gaps = _subtract_spans(spans, self._shipped)
        if not gaps:
            return
        self._shipped = _merge_spans([*self._shipped, *gaps])
        cnf = self._cnf
        literal_map = self._literal_map
        load = self._sat.add_clauses
        for start, end in gaps:
            literals, ends = cnf.span(start, end)
            fresh = [v for v in dict.fromkeys(map(abs, literals)) if v not in literal_map]
            first = len(literal_map) // 2 + 1
            stop = first + len(fresh)
            literal_map.update(zip(fresh, range(first, stop)))
            literal_map.update(zip(map(neg, fresh), range(-first, -stop, -1)))
            load(list(map(literal_map.__getitem__, literals)), ends)
            self.clauses_shipped += end - start
            self.variables_mapped += len(fresh)

    def _reconstruct_model(self, terms: list[Term]) -> Model:
        """Rebuild a model over the original variable names of ``terms``.

        Unlike the facade, the CNF here accumulates names from every query
        this solver ever saw, so the model is restricted to the free
        variables of the active terms.
        """
        assignment = self._sat.model()

        def value_of(name: str) -> bool:
            cnf_var = self._cnf.name_to_var.get(name)
            if cnf_var is None:
                return False
            local = self.local_variable(cnf_var)
            return bool(assignment.get(local, False)) if local is not None else False

        goal = builder.and_(*terms) if terms else builder.true()
        values: dict[str, bool | int] = {}
        for name, variable in free_variables(goal).items():
            if variable.sort.is_bool():
                values[name] = value_of(name)
            else:
                value = 0
                for index in range(variable.sort.width):
                    if value_of(bit_name(name, index)):
                        value |= 1 << index
                values[name] = value
        return Model(values)


def _merge_spans(spans: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge overlapping/adjacent ``[start, end)`` ranges."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return tuple(merged)


def _subtract_spans(
    spans: tuple[tuple[int, int], ...], covered: tuple[tuple[int, int], ...]
) -> list[tuple[int, int]]:
    """The parts of ``spans`` outside ``covered``, in ascending order.

    Both arguments are sorted lists of disjoint ``[start, end)`` ranges, so
    one forward pass over each suffices.
    """
    gaps: list[tuple[int, int]] = []
    index = 0
    for start, end in spans:
        while index < len(covered) and covered[index][1] <= start:
            index += 1
        position = index
        while start < end and position < len(covered) and covered[position][0] < end:
            covered_start, covered_end = covered[position]
            if covered_start > start:
                gaps.append((start, covered_start))
            start = covered_end
            position += 1
        if start < end:
            gaps.append((start, end))
    return gaps


# -- the shared per-process instance ---------------------------------------------

_PROCESS_SOLVER: IncrementalSolver | None = None


def process_solver() -> IncrementalSolver:
    """The per-process shared :class:`IncrementalSolver`.

    The modular checker routes every verification condition it discharges
    through this instance (one per worker process under ``fork``-based
    parallelism), so encoding work is amortised across all nodes a worker
    checks, and each node's three conditions share a SAT scope.
    """
    global _PROCESS_SOLVER
    if _PROCESS_SOLVER is None:
        _PROCESS_SOLVER = IncrementalSolver()
    return _PROCESS_SOLVER


def reset_process_solver() -> None:
    """Drop the shared solver (tests and benchmarks use this for isolation)."""
    global _PROCESS_SOLVER
    _PROCESS_SOLVER = None


def process_cache_statistics() -> dict[str, int]:
    """Cache statistics of the shared per-process solver.

    Materialises the solver if it does not exist yet: the process-wide
    bit-blast counters (and, after a ``fork``, counters inherited from the
    parent) are nonzero even before the first check, so a snapshot taken as
    a *baseline* must read them rather than default to zero — otherwise the
    first delta would claim the whole process history as its own work.
    """
    return process_solver().cache_statistics()


#: Statistics keys that report a *current size* (gauges) rather than a
#: cumulative count; deltas and merges keep the latest reading, since
#: differencing or summing a gauge is meaningless.
GAUGE_STATISTICS = ("learned_carry_size",)


def subtract_cache_statistics(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Component-wise ``after - before`` over cache-statistics dicts."""
    return {
        key: value if key in GAUGE_STATISTICS else value - before.get(key, 0)
        for key, value in after.items()
    }


def add_cache_statistics(left: dict[str, int], right: dict[str, int]) -> dict[str, int]:
    """Component-wise sum of statistics deltas, ``right`` being the later one.

    Summing a solver's consecutive per-item deltas therefore equals its
    whole-run delta on every key, gauges included.
    """
    merged = dict(left)
    for key, value in right.items():
        if key in GAUGE_STATISTICS:
            merged[key] = value
        else:
            merged[key] = merged.get(key, 0) + value
    return merged
