"""Streaming execution of class checks: one work-item type, one generator.

The engine's only unit of work is a :class:`~repro.core.symmetry.SymmetryClass`
(a plain per-node run is the singleton partition), and
:func:`iter_class_batches` is the only way to run a list of them.  It yields
one ``(class_index, member_reports, cache_delta)`` batch per class the moment
the class is done, in completion order; the caller re-sorts final reports by
the submission index, so results are reproducible while progress is live.

**In-process is the one-worker schedule.**  With one worker (``jobs <= 1``,
a single work item, no ``fork`` on the platform, or a pool that cannot be set
up — the last with a :class:`RuntimeWarning`) the items run in the calling
process, in submission order, through the very function the pool workers run
(:func:`_check_item`).  That is the engine's sequential path, not a fallback
beside it: it takes the caller's pinned solver (or ``None`` for the shared
per-process one) and recovers it if the item raises; SAT scopes belong to the
solver and outlive the item.  Failures inside a check propagate on either
schedule; masking them behind a silent rerun would hide real bugs.

**The pool.**  Annotated networks hold closures that do not pickle, so the
network, the classes and the delay are stashed in a module-level slot
before a ``fork`` pool is created; workers inherit it and only the work item
travels over the queue.  Each worker keeps its own per-process incremental
solver, so the items it checks share encoded structure and learned clauses.
Its counters are not observable from the parent, so every item measures its
own cache-counter delta and ships it home with the reports — on both
schedules, which therefore report identical statistics for identical inputs.
The in-flight window per worker is adaptive (:func:`_window_size`): it grows
with the backlog so cheap items do not serialise on dispatch latency and
decays to one at the tail.  Closing the iterator (run-level fail-fast, an
abandoned stream) never submits another item, raises the run's stop flag so
workers skip what is still queued, lets the item each worker is running
finish, and reaps every worker before ``GeneratorExit`` propagates.  An
early stop does not kill workers: ``Pool.terminate()`` deadlocks when its
``SIGTERM`` lands on a worker that holds one of the pool's queue locks,
which tiny work items make likely.  Anything else that ends the stream — a
crashing check, ``KeyboardInterrupt`` — terminates the pool at once; workers
ignore ``SIGINT`` so an interrupt is always the parent's to handle.

**The split plan.**  When there are fewer classes than requested workers (the
destination quotient's skewed partitions, or a narrow node selection), the
largest splittable classes are split into one work item per condition kind,
as a deterministic up-front plan (:func:`_class_work_items`).  The stream
re-merges a split class into a single batch with exactly the results an
unsplit check produces (kind order, truncation at the first failure), so
report order, verdicts and ``stop_on_failure`` semantics do not depend on
the plan.  Splitting only happens while there are fewer items than workers,
so ``jobs=len(classes)`` is the unsplit plan.  :class:`SchedulerStats`
records the window histogram, the split classes and the worker processes
seen, with the same window accounting on both schedules.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.checker import check_class
from repro.core.conditions import CONDITION_KINDS
from repro.core.results import NodeReport
from repro.core.symmetry import SymmetryClass
from repro.smt.incremental import (
    add_cache_statistics,
    process_cache_statistics,
    subtract_cache_statistics,
)

#: ``(network, classes, delay)`` of the current pool and its stop flag;
#: inherited by forked workers.
_ACTIVE: tuple[AnnotatedNetwork, Sequence[SymmetryClass], int] | None = None
_STOP: Any = None

#: One completed class: its position in the submitted class list, the member
#: reports, and the solver's cache delta of checking it.
Batch = tuple[int, list[NodeReport], dict[str, int]]

#: One work item: ``(class_index, kind)`` where ``kind`` is ``None`` for a
#: whole class or the condition kind of a split.
WorkItem = tuple[int, "str | None"]

#: What checking one work item returns: the member reports, the cache delta
#: and the pid of the process that did the work.
_Outcome = tuple[list[NodeReport], dict[str, int], int]

#: The largest per-worker prefetch window the adaptive dispatcher uses.
#: Bounded so closing a stream never leaves more than ``workers × MAX_WINDOW``
#: items to discard.
MAX_WINDOW = 4


def _window_size(pending: int, processes: int) -> int:
    """The per-worker prefetch window for ``pending`` remaining work items.

    Grows with the per-worker backlog (⌈pending/processes⌉, capped at
    :data:`MAX_WINDOW`) so small/cheap items amortise dispatch latency, and
    decays to 1 as the queue drains so the tail keeps every worker busy and
    an early stop has almost nothing in flight to discard.
    """
    if processes <= 0:
        return 1
    return min(MAX_WINDOW, max(1, -(-pending // processes)))


@dataclass
class SchedulerStats:
    """Mutable scheduler counters, filled in while a batch stream is drained.

    ``classes_stolen`` counts classes split into per-kind work items;
    ``window`` histograms dispatches by the prefetch-window size in effect
    when each was submitted; ``worker_pids`` collects the distinct OS
    processes that produced batches (the one-worker schedule contributes
    just the calling process).
    """

    classes_stolen: int = 0
    window: dict[int, int] = field(default_factory=dict)
    worker_pids: set[int] = field(default_factory=set)

    def record_dispatch(self, window: int) -> None:
        self.window[window] = self.window.get(window, 0) + 1

    def as_dict(self) -> dict:
        """The ``ModularReport.scheduler`` projection."""
        return {
            "classes_stolen": self.classes_stolen,
            "window": {size: count for size, count in sorted(self.window.items())},
            "workers": len(self.worker_pids) if self.worker_pids else 1,
        }


def _check_item(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    delay: int,
    item: WorkItem,
    solver: Any | None = None,
) -> _Outcome:
    """Check one work item in this process and measure its cache-counter delta.

    The single definition of a unit of engine work, run verbatim by pool
    workers and by the one-worker schedule.  A pinned ``solver`` is recovered
    if the check raises (the checker only restores backends it acquired
    itself, and a poisoned trail must not leak into later items and runs);
    the delta is read off that solver, or off the shared per-process one when
    none is pinned.
    """
    index, kind = item
    statistics = solver.cache_statistics if solver is not None else process_cache_statistics
    before = statistics()
    try:
        reports = check_class(annotated, classes[index], delay=delay, solver=solver, kind=kind)
    except BaseException:
        if solver is not None:
            solver.recover()
        raise
    return reports, subtract_cache_statistics(statistics(), before), os.getpid()


def _worker(item: WorkItem) -> _Outcome | None:
    """Pool entry point: check one work item of the inherited run.

    Once the run is stopped the queued items drain without being checked.
    """
    assert _ACTIVE is not None and _STOP is not None
    if _STOP.is_set():
        return None
    return _check_item(*_ACTIVE, item)


def _class_work_items(
    classes: Sequence[SymmetryClass], jobs: int, stats: SchedulerStats
) -> list[WorkItem]:
    """The deterministic work-item plan for a run.

    One item per class, except when the partition is *narrower than the
    requested worker count*: then the largest still-whole classes are split
    into one item per condition kind — work-stealing at the granularity the
    engine can actually parallelise — until there are enough items to keep
    every worker busy or nothing splittable remains.  Spot-check classes are
    never split (their extra member must be compared against the
    representative's full verdict vector in one place).  The plan depends
    only on ``(classes, jobs)``, so both schedules run identical work items.
    """
    items: list[WorkItem] = [(index, None) for index in range(len(classes))]
    if jobs <= 1:
        return items
    while len(items) < jobs:
        candidates = [
            position
            for position, (index, sub) in enumerate(items)
            if sub is None and classes[index].spot_member is None
        ]
        if not candidates:
            break
        # Largest class first; ties break to the earliest class so the plan
        # is deterministic.
        position = max(candidates, key=lambda p: (len(classes[items[p][0]]), -items[p][0]))
        index = items[position][0]
        items[position : position + 1] = [(index, kind) for kind in CONDITION_KINDS]
        stats.classes_stolen += 1
    return items


def _merge_split_class(
    per_kind: dict[str, tuple[list[NodeReport], dict[str, int]]],
) -> tuple[list[NodeReport], dict[str, int]]:
    """Re-assemble a split class's per-kind sub-results into one batch.

    Results are ordered by canonical kind order and truncated at the first
    failing condition — exactly what an unsplit ``check_class`` produces
    (each kind's verdict is independent of the others, so discharging them
    in separate scopes changes no verdict).  Durations sum; cache deltas sum.
    """
    members = [report.node for report in per_kind[CONDITION_KINDS[0]][0]]
    merged: list[NodeReport] = []
    for position, node in enumerate(members):
        results = []
        duration = 0.0
        for kind in CONDITION_KINDS:
            report = per_kind[kind][0][position]
            duration += report.duration
            results.extend(report.results)
        truncated = []
        for result in results:
            truncated.append(result)
            if not result.holds:
                break
        merged.append(NodeReport(node=node, results=truncated, duration=duration))
    totals: dict[str, int] = {}
    for kind in CONDITION_KINDS:
        totals = add_cache_statistics(totals, per_kind[kind][1])
    return merged, totals


def _open_pool(active: tuple, processes: int) -> Any | None:
    """A ``fork`` pool whose workers inherit ``active``, or ``None`` without one.

    Pool *setup* can fail on exotic platforms (no fork, no semaphores);
    running on the one-worker schedule is safe there.
    """
    global _ACTIVE, _STOP
    # Imported where a pool is wanted: one-worker runs (every ``parallel=1``
    # run goes through this module) then pay neither its ~15 ms nor its ~1.5 MiB.
    import multiprocessing
    import signal

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    try:
        _ACTIVE, _STOP = active, context.Event()
        # A terminal's Ctrl-C reaches the whole process group; only the
        # parent acts on it, so no worker dies with a task in hand.
        return context.Pool(processes, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    except OSError as error:
        _ACTIVE = _STOP = None
        warnings.warn(
            f"process pool unavailable ({error}); checking sequentially",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def _dispatch(
    active: tuple[AnnotatedNetwork, Sequence[SymmetryClass], int],
    jobs: int,
    items: Sequence[WorkItem],
    stats: SchedulerStats,
    solver: Any | None,
) -> Iterator[tuple[int, _Outcome]]:
    """Yield ``(position, outcome)`` for every work item, in completion order.

    On the pool schedule: submits up to ``workers × window`` items with
    ``apply_async`` and blocks on a completion queue fed by the pool's
    result-handler callbacks; each completion tops the in-flight set back up
    and is yielded immediately.  However the stream ends, unsubmitted items
    are never started and no worker is orphaned: closing the generator winds
    the pool down without killing (queued items are skipped, running ones
    finish), any exception — a worker crash propagating, an interrupt —
    terminates it.

    Known limitation: a worker killed *hard* (SIGKILL/OOM) loses its
    in-flight task — the pool respawns the process but no callback ever
    fires, so the completion wait blocks until the consumer interrupts it.
    Python exceptions inside a worker are not affected: they arrive via
    ``error_callback`` and propagate.
    """
    global _ACTIVE, _STOP
    processes = max(1, min(jobs, len(items)))
    pool = _open_pool(active, processes) if processes > 1 else None
    if pool is None:
        for position, item in enumerate(items):
            stats.record_dispatch(_window_size(len(items) - position, processes))
            yield position, _check_item(*active, item, solver)
        return

    import queue

    # Completions land here from the pool's result-handler thread; the
    # third element is the worker's exception, if it raised.
    completions: queue.SimpleQueue = queue.SimpleQueue()

    def submit(position: int) -> None:
        pool.apply_async(
            _worker,
            (items[position],),
            callback=lambda outcome: completions.put((position, outcome, None)),
            error_callback=lambda error: completions.put((position, None, error)),
        )

    next_position = 0
    in_flight = 0

    def top_up() -> None:
        # Keep up to ``processes × window`` items in flight, where the
        # window adapts to the remaining backlog: >1 while many items
        # are pending (cheap items amortise dispatch latency), back to
        # one per worker at the tail — so closing the iterator still
        # stops promptly, with at most the in-flight window to discard.
        nonlocal next_position, in_flight
        while next_position < len(items):
            window = _window_size(len(items) - next_position, processes)
            if in_flight >= processes * window:
                break
            stats.record_dispatch(window)
            submit(next_position)
            next_position += 1
            in_flight += 1

    try:
        top_up()
        while in_flight:
            position, outcome, error = completions.get()
            in_flight -= 1
            if error is not None:
                raise error
            top_up()
            yield position, outcome
    except GeneratorExit:
        # Run-level fail-fast or consumer abandonment: workers skip what is
        # queued and are reaped below once their running item is done.
        _STOP.set()
        raise
    except BaseException:
        # Worker crash or an interrupt (mid-priming included): kill the
        # in-flight remainder before propagating.
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()
        _ACTIVE = _STOP = None


def iter_class_batches(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    delay: int,
    jobs: int,
    stats: SchedulerStats | None = None,
    solver: Any | None = None,
) -> Iterator[Batch]:
    """Stream one :data:`Batch` per class, on up to ``jobs`` workers.

    Batches arrive in completion order (submission order on the one-worker
    schedule).  A class split by the plan (:func:`_class_work_items`) is
    yielded once, re-merged, when its last sub-item completes, so consumers
    see exactly one batch per class with unchanged results either way; an
    early stop discards buffered partial classes, whose nodes then correctly
    count as skipped.  ``stats`` is filled in while the stream drains.
    ``solver`` pins the backend of the one-worker schedule (pool workers
    always use their own per-process solver).  Closing the iterator stops
    dispatching unsubmitted items and winds the pool down.
    """
    if stats is None:
        stats = SchedulerStats()
    items = _class_work_items(classes, jobs, stats)
    partial: dict[int, dict[str, tuple[list[NodeReport], dict[str, int]]]] = {}
    outcomes = _dispatch((annotated, classes, delay), jobs, items, stats, solver)
    try:
        for position, (reports, delta, pid) in outcomes:
            stats.worker_pids.add(pid)
            class_index, kind = items[position]
            if kind is None:
                yield class_index, reports, delta
                continue
            bucket = partial.setdefault(class_index, {})
            bucket[kind] = (reports, delta)
            if len(bucket) == len(CONDITION_KINDS):
                del partial[class_index]
                yield class_index, *_merge_split_class(bucket)
    finally:
        # Pool teardown must not depend on refcount finalization of the
        # inner generator (the documented stop-dispatch guarantee).
        outcomes.close()
