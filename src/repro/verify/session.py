"""The :class:`Session`: one verification target, one strategy, many runs.

A session binds an annotated network to a :class:`~repro.verify.strategies
.Strategy` and pins the solver the strategy runs on: a supplied
:class:`~repro.smt.incremental.IncrementalSolver`, whose encoding caches and
SAT scope then belong to this session's runs alone, or else the shared
per-process one.

Sessions stream: :meth:`Session.stream` is a generator of per-condition
:class:`~repro.core.results.ConditionResult` events, yielded class by class
(a plain per-node run is the singleton partition) as the engine discharges
them — live even for parallel runs, where each worker batch is yielded the
moment it completes.  The harness uses this for progress output; a fail-fast
consumer can simply stop iterating at the first failing event (in-flight
parallel dispatch is cancelled and the session solver recovered), or ask the
engine to do it with ``Modular(stop_on_failure=True)``.  Exhausting the
stream finalizes :attr:`Session.report`; :meth:`Session.run` is the
drain-and-return convenience used by non-streaming callers.
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterator, Mapping, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import CONDITION_KINDS
from repro.core.fingerprint import (
    dependency_fingerprints,
    network_fingerprint,
    node_condition_fingerprints,
    strategy_signature,
)
from repro.core.parallel import SchedulerStats, iter_class_batches
from repro.core.results import ConditionResult, NodeReport, merge_reports
from repro.core.symmetry import partition_nodes, singleton_classes
from repro.errors import VerificationError
from repro.routing.algebra import Network
from repro.smt.incremental import (
    IncrementalSolver,
    add_cache_statistics,
    process_cache_statistics,
    subtract_cache_statistics,
)
from repro.verify.store import DeltaStore, default_store_path
from repro.verify.strategies import Modular, Strategy, Strawperson

#: Lint modes accepted by :meth:`Session.stream`/:meth:`Session.run`:
#: ``"warn"`` runs the static-analysis passes before dispatch and attaches
#: their diagnostics to the finalized report; ``"strict"`` additionally
#: raises :class:`~repro.errors.AnalysisError` — before any solver work —
#: when lint finds error- or warning-severity diagnostics.
LINT_MODES = ("warn", "strict")


class Session:
    """A verification session: a target network under one strategy.

    ``target`` is an :class:`~repro.core.annotations.AnnotatedNetwork` (or,
    for the strawperson strategy with explicit interfaces, a bare
    :class:`~repro.routing.algebra.Network`).  ``strategy`` defaults to
    :class:`~repro.verify.strategies.Modular` with its defaults.

    The session is a context manager; entering it is optional for one-shot
    use, but closing (or exiting the ``with`` block) cancels an in-flight
    stream and refuses further runs::

        with Session(annotated, Modular(symmetry="classes")) as session:
            report = session.run()

    Runs may be repeated: each :meth:`run`/:meth:`stream` cycle is one full
    verification pass.  With a supplied ``solver`` the encoded structure and
    the current SAT scope carry from one run to the next, so a repeated run
    encodes nothing new (``report.backend_cache["tseitin_misses"] == 0``).
    """

    def __init__(
        self,
        target: AnnotatedNetwork | Network,
        strategy: Strategy | None = None,
        *,
        solver: IncrementalSolver | None = None,
    ) -> None:
        self.target = target
        self.strategy = strategy if strategy is not None else Modular()
        if not isinstance(self.strategy, Strategy):
            raise TypeError(
                f"strategy must be a repro.verify Strategy, got {type(self.strategy).__name__}"
            )
        #: Completed run count (a finalized report increments it).
        self.runs = 0
        self._report: Any | None = None
        if solver is not None and not self.strategy.uses_session_solver:
            # Facade-only engines never touch the session solver; accepting
            # one they ignore would be a silent no-op.
            raise VerificationError(
                f"the {self.strategy.name!r} strategy does not use a session solver"
            )
        self._solver = solver
        self._closed = False
        self._active_stream: Iterator[ConditionResult] | None = None

    # -- resources ---------------------------------------------------------------

    @property
    def annotated(self) -> AnnotatedNetwork:
        """The annotated target; raises for strategies that need annotations."""
        if not isinstance(self.target, AnnotatedNetwork):
            raise VerificationError(
                f"the {self.strategy.name!r} strategy needs an AnnotatedNetwork target, "
                f"got {type(self.target).__name__}"
            )
        return self.target

    @property
    def network(self) -> Network:
        """The underlying network, whatever the target type."""
        if isinstance(self.target, AnnotatedNetwork):
            return self.target.network
        return self.target

    def solver_for(self, strategy: Modular) -> IncrementalSolver | None:
        """The supplied solver this run's batches are pinned to, if any.

        ``None`` means the shared per-process solver.  A supplied solver
        cannot serve a parallel run (workers use their own per-process
        solvers), which is an error rather than a silent no-op.
        """
        if self._closed:
            raise VerificationError("session is closed")
        if self._solver is not None and strategy.parallel > 1:
            raise VerificationError(
                "parallel runs execute batches in worker processes and cannot "
                "use the supplied session solver; drop the solver or run with "
                "parallel=1"
            )
        return self._solver

    def close(self) -> None:
        """Cancel an in-flight stream and refuse further runs (idempotent)."""
        if self._active_stream is not None:
            self._active_stream.close()
            self._active_stream = None
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- running -----------------------------------------------------------------

    def stream(
        self, nodes: Sequence[str] | None = None, *, lint: str | None = None
    ) -> Iterator[ConditionResult]:
        """One verification run as a stream of per-condition events.

        Events arrive in discharge order, class by class;
        parallel runs yield each batch's events the moment its worker
        finishes, so progress is live even while the pool is still working.
        Exhausting the iterator finalizes :attr:`report`.  Abandoning the
        iterator early (e.g. on the first failure) leaves :attr:`report` at
        the previous run's value, stops any in-flight parallel dispatch, and
        restores the run's solver to a clean scope so the next run on this
        session starts sound.

        ``lint`` (one of :data:`LINT_MODES`) runs the pre-solve static
        analysis passes *eagerly*, before this call returns and before any
        condition is dispatched: ``"strict"`` raises
        :class:`~repro.errors.AnalysisError` when the target has error- or
        warning-severity diagnostics (failing fast, with zero solver work);
        ``"warn"`` lets the run proceed and attaches the diagnostics to the
        finalized report (``report.diagnostics``).

        At most one stream is live per session: starting a new run
        deterministically cancels an abandoned in-flight one (its iterator
        is closed and raises ``StopIteration`` thereafter) — interleaving
        two runs on the shared solver state would corrupt both runs' scope
        rotation and cache-delta accounting, and waiting for garbage
        collection to release an abandoned run would make session reuse
        timing-dependent.
        """
        if self._closed:
            raise VerificationError("session is closed")
        lint_report = None
        if lint is not None:
            if lint not in LINT_MODES:
                raise VerificationError(
                    f"unknown lint mode {lint!r}; choose one of {LINT_MODES}"
                )
            from repro.analysis import lint_network

            # Eager on purpose: strict mode must fail fast at call time, and
            # warn mode's diagnostics must exist even if the stream is later
            # abandoned mid-run.  Lint never touches the solver.
            lint_report = lint_network(self.annotated)
            if lint == "strict":
                lint_report.raise_for_findings(context=f"session target {self.target!r}")
        if self._active_stream is not None:
            self._active_stream.close()
            self._active_stream = None
        inner = self.strategy.events(self, nodes)

        def guarded() -> Iterator[ConditionResult]:
            try:
                yield from inner
                if lint_report is not None and hasattr(self._report, "diagnostics"):
                    self._report.diagnostics = list(lint_report.diagnostics)
            finally:
                if self._active_stream is generator:
                    self._active_stream = None

        generator = guarded()
        self._active_stream = generator
        return generator

    def run(self, nodes: Sequence[str] | None = None, *, lint: str | None = None) -> Any:
        """Run to completion and return the finalized report.

        ``lint="warn"`` attaches static-analysis diagnostics to the report;
        ``lint="strict"`` raises :class:`~repro.errors.AnalysisError` before
        any solver work when lint is not clean (see :meth:`stream`).
        """
        for _ in self.stream(nodes, lint=lint):
            pass
        return self.report

    @property
    def report(self) -> Any:
        """The report of the last *completed* run."""
        if self._report is None:
            raise VerificationError("no completed run in this session yet")
        return self._report

    def _finalize(self, report: Any) -> None:
        self._report = report
        self.runs += 1


def verify(
    target: AnnotatedNetwork | Network,
    strategy: Strategy | None = None,
    nodes: Sequence[str] | None = None,
    *,
    lint: str | None = None,
) -> Any:
    """One-shot convenience: run ``strategy`` over ``target`` in a fresh session::

        verify(annotated)                            # modular, defaults
        verify(annotated, Modular(symmetry="classes"))
        verify(annotated, Monolithic(timeout=60))
        verify(network, Strawperson(interfaces=stable))
        verify(annotated, lint="strict")             # lint before solving
    """
    with Session(target, strategy) as session:
        return session.run(nodes=nodes, lint=lint)


# ---------------------------------------------------------------------------
# The modular engine
# ---------------------------------------------------------------------------


def _selected_nodes(
    annotated: AnnotatedNetwork, nodes: Sequence[str] | None
) -> tuple[str, ...]:
    if isinstance(nodes, str):
        # tuple("nw") would silently select nodes "n" and "w".
        raise VerificationError(
            f"nodes must be a sequence of node names, not the string {nodes!r}; "
            f"pass [{nodes!r}] to select one node"
        )
    selected = tuple(nodes) if nodes is not None else annotated.nodes
    if not selected:
        # An empty selection checks nothing, which must not read as "pass".
        raise VerificationError("no nodes selected; pass nodes=None to check every node")
    for node in selected:
        if node not in annotated.nodes:
            raise VerificationError(f"unknown node {node!r}")
    if len(set(selected)) != len(selected):
        # A repeated node would be discharged twice but reported once.
        duplicates = sorted({node for node in selected if selected.count(node) > 1})
        raise VerificationError(f"nodes selected more than once: {duplicates}")
    return selected


def _batch_failed(batch_reports: Sequence[Any]) -> bool:
    """Whether any condition in a completed batch failed."""
    return any(
        not result.holds for report in batch_reports for result in report.results
    )


def _consume_batches(
    batches: Iterator[Any], strategy: Modular, totals: dict[str, int]
) -> Iterator[ConditionResult]:
    """Yield a batch stream's events live; return the aggregates.

    Events are yielded the moment a batch arrives, the batches' cache deltas
    are added to ``totals``, and with ``strategy.stop_on_failure`` the stream
    is stopped after the first failing batch.  Closing ``batches`` in all
    exit paths is what stops dispatch and reaps the pool.  The ``yield from``
    return value is ``(reports, cache_delta, stopped_early)`` with reports
    flattened in submission order.
    """
    indexed: dict[int, list[Any]] = {}
    stopped_early = False
    try:
        for index, batch_reports, delta in batches:
            indexed[index] = batch_reports
            totals = add_cache_statistics(totals, delta)
            for report in batch_reports:
                yield from report.results
            if strategy.stop_on_failure and _batch_failed(batch_reports):
                stopped_early = True
                break
    finally:
        # Stops dispatch and reaps the pool whether the stream was
        # exhausted, stopped on failure, or abandoned.
        batches.close()
    reports = [report for index in sorted(indexed) for report in indexed[index]]
    return reports, totals, stopped_early


def _open_delta_store(session: Session, strategy: Modular) -> DeltaStore:
    """Load (fail-soft) the store for this session's (network, strategy) pair."""
    network = network_fingerprint(session.annotated)
    signature = strategy_signature(strategy.delay)
    path = strategy.store or default_store_path(network, signature)
    return DeltaStore.open(path, network=network, strategy=signature)


def _reused_report(node: str, propagated_from: str | None = None) -> NodeReport:
    """A node report whose verdicts all come from the delta store.

    Reused verdicts are always passes (the store never records failures) and
    cost no solver time; the kinds come in canonical discharge order so
    ``condition_verdicts`` of a warm run is byte-identical to a cold one.
    """
    results = [
        ConditionResult(
            node=node,
            condition=kind,
            holds=True,
            duration=0.0,
            propagated_from=propagated_from,
            reused=True,
        )
        for kind in CONDITION_KINDS
    ]
    return NodeReport(node=node, results=results, duration=0.0)


def _store_reuses(
    store: DeltaStore,
    annotated: AnnotatedNetwork,
    strategy: Modular,
    node: str,
    dependency: str,
    fingerprints: dict[str, dict[str, str]],
) -> bool:
    """Whether the store can supply all of ``node``'s verdicts.

    Fast path: the node's recorded dependency fingerprint matches, deciding
    reuse without building any condition.  Slow path: the invalidation key
    changed, but every condition's exact content hash is still recorded as
    proved — a reverted config edit, or a node isomorphic to one proved under
    another name — in which case the node entry is refreshed so the next run
    takes the fast path again.  A slow-path hit is reuse at its
    soundest: the content hash *is* the query.  The slow path leaves the
    node's condition fingerprints in ``fingerprints`` for ``_record_delta_run``.
    """
    if store.reusable(node, dependency):
        return True
    fingerprints[node] = node_condition_fingerprints(annotated, node, delay=strategy.delay)
    if store.has_conditions(fingerprints[node]):
        store.record(node, dependency, fingerprints[node])
        return True
    return False


def _record_delta_run(
    store: DeltaStore,
    annotated: AnnotatedNetwork,
    strategy: Modular,
    reports: Sequence[NodeReport],
    dependencies: Mapping[str, str],
    fingerprints: Mapping[str, Mapping[str, str]],
) -> None:
    """Record this run's fully-passing freshly-checked nodes into the store.

    A node is recorded only when every kind received a passing verdict *this
    run* (discharged, or propagated from its class representative):
    fail-fast truncation, early stop and failures all leave the node
    unrecorded, so a warm run can never reuse an unproved verdict.  Nodes
    that were themselves reused keep their existing entries.
    """
    for report in reports:
        if any(result.reused for result in report.results):
            continue
        observed = {result.condition for result in report.results if result.holds}
        if not report.passed or not all(kind in observed for kind in CONDITION_KINDS):
            continue
        recorded = fingerprints.get(report.node) or node_condition_fingerprints(
            annotated, report.node, delay=strategy.delay
        )
        store.record(report.node, dependencies[report.node], recorded)


def modular_events(
    session: Session, strategy: Modular, nodes: Sequence[str] | None
) -> Iterator[ConditionResult]:
    """Algorithm 1 (``CheckMod``) as a streaming engine: one loop over classes.

    Select the nodes, partition them (``symmetry="off"`` is the singleton
    partition), filter the classes the delta store can answer, and hand the
    rest to :func:`repro.core.parallel.iter_class_batches` (``parallel=1`` is
    its one-worker schedule, pinned to the session solver).  Batches are
    yielded as they complete — parallel batches arrive in completion order,
    the moment each worker finishes — and share their solver's SAT scope
    with their neighbours until it outgrows its size bound.  Final reports
    are re-sorted to the deterministic node selection order regardless of
    completion order, and the per-batch cache deltas are summed into
    ``backend_cache``.

    With ``strategy.stop_on_failure`` the engine stops scheduling work after
    the first batch that reports a failing condition: queued parallel items
    are never dispatched, the pool is wound down without killing a worker, and
    the finalized report records ``stopped_early`` plus how many conditions
    got no verdict (``conditions_skipped`` — never-scheduled nodes, plus
    in-flight batches discarded with the stopped pool).

    With ``strategy.delta == "reuse"`` the engine first loads the fingerprint
    store and computes every selected node's dependency fingerprint; classes
    (keyed by their representative) whose fingerprints match recorded passing
    verdicts are emitted up front as zero-cost ``reused`` events, and only
    the changed remainder is scheduled.  On normal completion the store is
    re-recorded with this run's fully-passing nodes and atomically saved;
    an abandoned stream leaves the store file untouched.
    """
    annotated = session.annotated
    selected = _selected_nodes(annotated, nodes)
    solver = session.solver_for(strategy)

    started = _time.perf_counter()
    reports = []
    # The all-zero delta of the solver the run mutates: what a run that
    # dispatches nothing reports.
    reading = solver.cache_statistics() if solver is not None else process_cache_statistics()
    cache_delta = subtract_cache_statistics(reading, reading)

    store: DeltaStore | None = None
    dependencies: dict[str, str] = {}
    #: Condition fingerprints of the nodes the store's slow path looked at.
    fingerprints: dict[str, dict[str, str]] = {}
    if strategy.delta == "reuse":
        # Store load and fingerprinting are part of the run (inside the wall
        # clock): the warm-run speedup reported by the benchmarks is net of
        # the delta layer's own overhead.
        store = _open_delta_store(session, strategy)
        dependencies = dependency_fingerprints(annotated, selected, delay=strategy.delay)

    try:
        if strategy.symmetry == "off":
            classes = singleton_classes(selected)
        else:
            classes = partition_nodes(annotated, selected, delay=strategy.delay)
        class_count = len(classes)
        if store is not None:
            # A class is reusable iff its representative's fingerprints
            # are: class membership is keyed on term-identical canonical
            # conditions, so the representative's dependency fingerprint
            # *is* every member's.
            recheck = []
            for symmetry_class in classes:
                representative = symmetry_class.representative
                if not _store_reuses(
                    store, annotated, strategy, representative,
                    dependencies[representative], fingerprints,
                ):
                    recheck.append(symmetry_class)
                    continue
                for member in symmetry_class.members:
                    report = _reused_report(
                        member, None if member == representative else representative
                    )
                    reports.append(report)
                    yield from report.results
            classes = recheck
        # Nothing to schedule leaves nothing for a scheduler to report.
        scheduler_stats = SchedulerStats() if strategy.parallel > 1 and classes else None
        fresh, cache_delta, stopped_early = yield from _consume_batches(
            iter_class_batches(
                annotated,
                classes,
                delay=strategy.delay,
                jobs=strategy.parallel,
                stats=scheduler_stats,
                solver=solver,
            ),
            strategy,
            cache_delta,
        )
        reports.extend(fresh)
        # Classes (and the delta layer's reused-first emission) interleave the
        # node order; restore the selection order so reports (and
        # counterexample enumeration) are reproducible.
        order = {node: index for index, node in enumerate(selected)}
        reports.sort(key=lambda report: order[report.node])
    except GeneratorExit:
        # The consumer abandoned the stream mid-run, possibly mid-batch:
        # without recovery a dangling assertion frame (and a scope a check
        # was interrupted in) would leak into the next run on this session.
        if solver is not None:
            solver.recover()
        raise

    if store is not None:
        # Only on normal completion: an abandoned stream never reaches here,
        # so a half-observed run can't overwrite a good store.
        _record_delta_run(store, annotated, strategy, reports, dependencies, fingerprints)
        store.save()
    checked_nodes = {report.node for report in reports}
    conditions_skipped = (
        len(CONDITION_KINDS) * sum(1 for node in selected if node not in checked_nodes)
        if stopped_early
        else 0
    )
    session._finalize(
        merge_reports(
            reports,
            wall_time=_time.perf_counter() - started,
            parallelism=strategy.parallel,
            symmetry=strategy.symmetry,
            symmetry_classes=None if strategy.symmetry == "off" else class_count,
            backend_cache=cache_delta,
            stopped_early=stopped_early,
            conditions_skipped=conditions_skipped,
            delta=strategy.delta,
            scheduler=scheduler_stats.as_dict() if scheduler_stats is not None else None,
        )
    )


# ---------------------------------------------------------------------------
# The strawperson engine
# ---------------------------------------------------------------------------


def strawperson_events(
    session: Session, strategy: Strawperson, nodes: Sequence[str] | None
) -> Iterator[ConditionResult]:
    """The §2.2 procedure as a streaming engine (one event per node)."""
    from repro.core.strawperson import erased_interfaces, run_strawperson

    if nodes is not None:
        raise VerificationError("the strawperson engine always checks the whole network")
    if strategy.interfaces is not None:
        interfaces = strategy.interfaces
    else:
        interfaces = erased_interfaces(session.annotated)
    report = run_strawperson(session.network, interfaces)
    for node, passed in report.node_results.items():
        yield ConditionResult(
            node=node, condition="stable (strawperson)", holds=passed, duration=0.0
        )
    session._finalize(report)
