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
* **A SAT scope is a size-bounded window over the batch order, and cones
  ship as ranges.**  Clauses are fed to the CDCL core on demand.  A cone is
  a sorted list of disjoint ``[start, end)`` clause-index ranges over the
  flat CNF (:class:`~repro.smt.cnf.Cnf`); a scope keeps one flag per CNF
  clause, so each ``check`` finds the not-yet-shipped part of its active
  assertions' cones as the runs of clear flags inside those ranges.  Every
  such gap is one slice of the CNF's literal array: it is renumbered densely
  for the scope in one pass (new variables numbered in first-occurrence
  order, the whole slice turned over through a signed literal map) and
  handed to :meth:`CdclSolver.add_clauses
  <repro.smt.sat.solver.CdclSolver.add_clauses>` in one call.  The scope —
  solver object, clause database, learned clauses — belongs to the solver,
  not to a work item: it outlives the node, the class and the ``verify``
  call that opened it, so a neighbour's check (and the next edit's) finds
  most of its cone already there.  One rule retires it: a ``check`` that
  finds more than ``max_scope_clauses`` problem clauses in the instance
  starts a fresh one.  :meth:`new_scope` is the same rotation on demand
  (:meth:`recover`, compaction, an abandoned stream); the encoding caches
  are untouched either way, so the next check pays only the shipping.
* **A search branches only inside the active cone.**  Sharing a scope
  naively loses: the search wanders over what earlier checks left behind.
  Measured on one 50,000-clause scope against a fresh instance per node
  (``sat.decisions`` / run time): ``wan/reach`` 10+120 360 → 90,070
  (1.9 → 2.6 s), ``fattree/length`` k=8 34,070 → 90,998 (5.2 → 10.1 s).
  So ``check`` hands :meth:`CdclSolver.solve
  <repro.smt.sat.solver.CdclSolver.solve>` the variables of the active
  guards' cones — gate and guard variables from the clause ranges
  (:meth:`Cnf.span_variables <repro.smt.cnf.Cnf.span_variables>`), inputs
  recorded with the guard — as the only ones it may decide, and every
  search starts from zero VSIDS activity; with both, the same two runs take
  360 and 22,489 decisions (1.4 and 3.4 s; the cone alone, stale activities
  kept: 13,599 and 23,345).  What a search inherits from the scope is
  clauses — shipped and learned — and saved phases, nothing else.

Restricting the branching is sound.  An UNSAT answer never depended on which
variables are decided — it is a derivation from the clause database — so a
"pass" verdict is untouched by construction.  A SAT answer is given when
every cone variable is assigned and propagation has found no conflict.  The
database holds Tseitin definitions, guard clauses ``¬a ∨ lit(t)`` and
clauses learned from those.  The active cone is closed under subterms, so
each definition and active guard clause lies wholly inside the assigned
variables and is satisfied; the assignment extends to the whole scope by
evaluating every stale gate bottom-up from its inputs (unassigned stale
inputs take any value) and setting every stale guard false, which
satisfies the stale definitions and guard clauses, hence every learned
clause too.  Literals that propagation assigned outside the cone
are consequences of the cone assignment, so they agree with that extension,
and :meth:`IncrementalSolver._reconstruct_model` reads only the active
terms' free variables, all of them cone inputs.

Learned clauses within a scope survive across checks: conflict analysis
resolves only on reason clauses (assumptions are decisions), so every
learned clause is entailed by the clause database alone and remains valid
when the assumption set changes.  The CDCL core additionally bounds the
retained set with activity/LBD-based deletion.

**Each distinct query is answered once.**  ``check`` memoises its answer by
the tuple of the ``term_id`` of every active assertion, all frames plus
``extra``.  Terms are hash-consed for the life of the process and never
freed (:class:`~repro.smt.terms.Term` interning), so a ``term_id`` names one
formula forever, and satisfiability is a fact about the formulas alone: it
does not depend on the SAT scope, the learned clauses or the encoding that
produced it.  The memo therefore survives :meth:`new_scope`, :meth:`recover`
and compaction; it holds one small entry per distinct query, which the
term table already outgrows.  A SAT answer's model is read off the same terms' free
variables, so it is a model of the same query whichever scope found it.  A
timeout (UNKNOWN) is not an answer and is never stored, and nothing is
stored when a solve raises.  A memoised answer counts in ``answer_hits``
and in no solver counter: it ships, encodes and searches nothing.

Soundness of the activation scheme: the guard clause ``¬a ∨ lit(t)`` only
constrains the fresh variable ``a``, so its presence never changes the
satisfiability of queries that do not assume ``a``; learned clauses
mentioning ``¬a`` are entailed by the database and simply become inert once
``a`` is no longer assumed.

**Positional naming contract.**  Verification conditions name their query
routes by predecessor *position* (:mod:`repro.core.conditions`), so nodes
whose neighbourhoods and annotations agree — every node of one role on a
single-destination fattree — produce the *identical* hash-consed terms, and
the answer memo above answers each such query once: no symmetry partition
(:mod:`repro.core.symmetry`) is needed to find them.  Neighbouring nodes
overlap too (the
network precondition, shared policy terms), which is why the scope is a
window over the batch order rather than one instance per class.  The cone
filtering in :meth:`IncrementalSolver._ship` keeps the window small — a
scope only ever receives clauses some active assertion needed, however much
the process has encoded — and the cone-restricted search keeps it harmless.
``cache_statistics`` exposes counters (bit-blast and Tseitin cache hits,
guard reuse, memoised answers, scopes, clauses shipped and variables mapped
into scopes, ``branch_variables`` / ``scope_variables`` summed over solves
— the share of an instance its searches could see — and learned-clause
retention) so the sharing is measurable from reports.
"""

from __future__ import annotations

import time as _time
from array import array
from collections.abc import Iterator
from itertools import starmap
from operator import neg

from repro.errors import SolverError
from repro.smt import builder
from repro.smt.bitblast import BitBlaster, bit_name
from repro.smt.cnf import Cnf
from repro.smt.model import Model
from repro.smt.sat.solver import CdclSolver, SatStatus
from repro.smt.solver import GLOBAL_STATISTICS, CheckResult, SolverStatistics
from repro.smt.terms import OP_VAR, Term, free_variables, iter_subterms
from repro.smt.tseitin import TseitinEncoder

#: The process-wide bit-blaster.  Terms are hash-consed globally, so blasted
#: results are valid in every solver instance and never need recomputing.
_PROCESS_BLASTER = BitBlaster()

#: A guard-table entry: the activation variable, the cone's clause ranges
#: and the CNF variables of the cone's inputs.
_Guard = tuple[int, tuple[tuple[int, int], ...], array]

#: Guard-table sentinels for assertions that blast to a constant.
_ALWAYS_SAT = "true"
_ALWAYS_UNSAT = "false"


class IncrementalSolver:
    """An SMT solver that persists encoding work across ``check`` calls.

    The public protocol mirrors the stateless facade — ``add``, ``push``,
    ``pop``, ``check`` — so :func:`repro.smt.solver.prove` and
    :func:`repro.smt.solver.check_sat` accept either backend.  Callers never
    manage SAT scopes: consecutive queries (a node's three conditions, the
    next node's, the next run's) share the current instance until it has
    outgrown ``max_scope_clauses``.

    ``max_variables`` bounds the retained CNF: when the solver is fully
    popped and the variable count exceeds the bound, the CNF, encoder and
    guard table are rebuilt from scratch.  The process-wide bit-blasting
    cache is unaffected, so even a compacted solver re-encodes cheaply.
    ``max_scope_clauses`` is the one rotation rule: a check whose SAT
    instance has outgrown the bound starts a fresh scope (always safe —
    each check re-ships the cone it needs).  The default trades shipping
    and re-learning against the memory of a bigger live instance (~250
    bytes per clause); spine contract calls, parent (a scope per node) →
    15,000 / 25,000 / 50,000: ``sp_reach_edit_stream`` ``verify_s`` 1.35 →
    0.93 / 0.76 / 0.89 s, ``sp_length_search`` 5.15 → 3.96 / 3.34 / 3.40 s,
    ``peak_rss_mb`` on ``sp_length_search`` (53 MiB) +1.1 % / +2.9 % /
    +13.7 % and on ``wan_reach_build`` (48 MiB) +1.2 % / +4.1 % / +14.6 %.
    25,000 is the largest of the three that keeps every workload within
    +8 % (the worst, ``sp_reach_parallel2``, reads +4.8 %), and the smallest
    that holds the re-checked neighbourhood of a one-node edit on the k=12
    fattree (~21,000 clauses).  A scope's learned clauses retire with it.
    """

    def __init__(self, max_variables: int = 500_000, max_scope_clauses: int = 25_000) -> None:
        self.max_variables = max_variables
        self.max_scope_clauses = max_scope_clauses
        self.statistics = SolverStatistics()
        self._frames: list[list[Term]] = [[]]
        self._cnf = Cnf()
        self._encoder = TseitinEncoder(self._cnf)
        #: term_id -> (guard variable, cone clause spans, cone input
        #: variables) or a sentinel.
        self._guards: dict[int, _Guard | str] = {}
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
        #: Clauses shipped / variables mapped into SAT scopes (cumulative).
        self.clauses_shipped = 0
        self.variables_mapped = 0
        #: Variables the searches could branch on / held in the scope, summed
        #: over solves: their ratio is the share of the instance a search saw.
        self.branch_variables = 0
        self.scope_variables = 0
        self._sat = CdclSolver()
        #: One flag per CNF clause: does the current scope hold it?
        self._shipped = bytearray()
        #: Signed CNF literal -> scope-local literal, both polarities.
        self._literal_map: dict[int, int] = {}
        #: Term ids of a check's active assertions, in order -> its answer.
        self._answers: dict[tuple[int, ...], CheckResult] = {}
        #: Checks answered from ``_answers`` (no solver counter moves for them).
        self.answer_hits = 0

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
        of the previous scope, learned clauses included, is dropped.
        """
        self._retired_learned += self._sat.statistics["learned"]
        self._retired_deleted += self._sat.statistics["deleted"]
        self._sat = CdclSolver()
        self._shipped = bytearray()
        self._literal_map = {}
        self.scopes += 1

    def local_variable(self, cnf_variable: int) -> int | None:
        """The current scope's number for a CNF variable (``None``: not shipped)."""
        return self._literal_map.get(cnf_variable)

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
            "branch_variables": self.branch_variables,
            "scope_variables": self.scope_variables,
            "clauses_learned": learned,
            "clauses_deleted": deleted,
            "learned_retained": learned - deleted,
            "compactions": self.compactions,
            "answer_hits": self.answer_hits,
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
        query = tuple(term.term_id for term in terms)
        answer = self._answers.get(query)
        if answer is not None:
            self.answer_hits += 1
            return answer

        if self._sat.num_clauses > self.max_scope_clauses:
            self.new_scope()

        variables_before = self._cnf.num_vars
        clauses_before = self._cnf.num_clauses
        sat_before = dict(self._sat.statistics)

        assumptions: list[int] = []
        cone: set[int] = set()
        seen_guards: set[int] = set()
        trivially_unsat = False
        for term in terms:
            entry = self._activate(term)
            if entry == _ALWAYS_UNSAT:
                trivially_unsat = True
                break
            if entry == _ALWAYS_SAT:
                continue
            guard, spans, inputs = entry
            if guard in seen_guards:
                continue
            seen_guards.add(guard)
            self._ship(spans)
            assumptions.append(self._literal_map[guard])
            cone.update(inputs, *starmap(self._cnf.span_variables, spans))

        if trivially_unsat:
            status = SatStatus.UNSAT
        else:
            # Ascending scope numbering is (nearly) encoding order, the
            # order a fresh instance would try equally active variables in.
            branch = sorted(filter(None, map(self._literal_map.get, cone)))
            self.branch_variables += len(branch)
            self.scope_variables += self._sat.num_vars
            status = self._sat.solve(assumptions=assumptions, timeout=timeout, branch=branch)

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

        if status == SatStatus.UNKNOWN:
            return CheckResult(status, None)
        model = self._reconstruct_model(terms) if status == SatStatus.SAT else None
        answer = self._answers[query] = CheckResult(status, model)
        return answer

    # -- internals ----------------------------------------------------------------

    def _activate(self, term: Term) -> _Guard | str:
        """The guard and the cone of ``term``, encoding it on first use."""
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
            # overlap it; _merge_spans folds them into disjoint ranges.)
            # Its variables are the gate (and guard) variables allocated
            # along with those clauses (Cnf.span_variables) plus the inputs,
            # which keep the number they got wherever they were first named.
            inputs = array("i")
            for subterm in iter_subterms(blasted):
                span = self._encoder.clause_span(subterm.term_id)
                if span is not None:
                    spans.append(span)
                elif subterm.op == OP_VAR:
                    inputs.append(self._cnf.name_to_var[subterm.payload])
            entry = (guard, _merge_spans(spans), inputs)
        self._guards[term.term_id] = entry
        return entry

    def _ship(self, spans: tuple[tuple[int, int], ...]) -> None:
        """Feed the not-yet-shipped clauses of ``spans`` to the SAT core.

        ``spans`` is a cone as :func:`_merge_spans` leaves it (sorted,
        disjoint).  CNF variables are renumbered densely per scope, in order
        of first occurrence, so the SAT instance only ever sees the variables
        its own clauses mention.
        """
        cnf = self._cnf
        literal_map = self._literal_map
        load = self._sat.add_clauses
        for start, end in self._claim_gaps(spans):
            literals, ends = cnf.span(start, end)
            fresh = [v for v in dict.fromkeys(map(abs, literals)) if v not in literal_map]
            first = len(literal_map) // 2 + 1
            stop = first + len(fresh)
            literal_map.update(zip(fresh, range(first, stop)))
            literal_map.update(zip(map(neg, fresh), range(-first, -stop, -1)))
            load(list(map(literal_map.__getitem__, literals)), ends)
            self.clauses_shipped += end - start
            self.variables_mapped += len(fresh)

    def _claim_gaps(self, spans: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, int]]:
        """Flag and yield the runs of ``spans`` the scope does not hold yet, ascending."""
        shipped = self._shipped
        shipped.extend(bytes(self._cnf.num_clauses - len(shipped)))
        for low, high in spans:
            start = shipped.find(0, low, high)
            while start != -1:
                end = shipped.find(1, start, high)
                if end == -1:
                    end = high
                shipped[start:end] = b"\x01" * (end - start)
                yield start, end
                start = shipped.find(0, end, high)

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


# -- the shared per-process instance ---------------------------------------------

_PROCESS_SOLVER: IncrementalSolver | None = None


def process_solver() -> IncrementalSolver:
    """The per-process shared :class:`IncrementalSolver`.

    The modular checker routes every verification condition it discharges
    through this instance (one per worker process under ``fork``-based
    parallelism), so encoding work is amortised across all nodes a worker
    checks, and consecutive nodes and runs share its SAT scope.
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


def subtract_cache_statistics(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Component-wise ``after - before`` over cache-statistics dicts."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def add_cache_statistics(left: dict[str, int], right: dict[str, int]) -> dict[str, int]:
    """Component-wise sum of statistics deltas.

    Summing a solver's consecutive per-item deltas therefore equals its
    whole-run delta on every key.
    """
    merged = dict(left)
    for key, value in right.items():
        merged[key] = merged.get(key, 0) + value
    return merged
