"""Streaming execution of class checks: one work item, one generator.

The engine's only unit of work is a :class:`~repro.core.symmetry.SymmetryClass`
(a plain per-node run is the singleton partition), and
:func:`iter_class_batches` is the only way to run a list of them.  It yields
one ``(class_index, member_reports, cache_delta)`` batch per class the moment
the class is done, in completion order; the caller re-sorts final reports by
the submission index, so results are reproducible while progress is live.

**In-process is the one-worker schedule.**  With one worker (``jobs <= 1``,
a single class, no ``fork`` on the platform, or a pool that cannot be set
up — the last with a :class:`RuntimeWarning`) the classes run in the calling
process, in submission order, through the very function the pool workers run
(:func:`_check_item`).  That is the engine's sequential path, not a fallback
beside it: it takes the caller's pinned solver (or ``None`` for the shared
per-process one) and recovers it if the class raises; SAT scopes belong to the
solver and outlive the class.  Failures inside a check propagate on either
schedule; masking them behind a silent rerun would hide real bugs.

**The pool.**  Annotated networks hold closures that do not pickle, so the
network, the classes and the delay are stashed in a module-level slot
before a ``fork`` pool is created; workers inherit it and only the class
index travels over the queue.  The pool has at most one worker per class.
Each worker keeps its own per-process incremental solver, so the classes it
checks share encoded structure and learned clauses.
Its counters are not observable from the parent, so every class measures its
own cache-counter delta and ships it home with the reports — on both
schedules, which therefore report identical statistics for identical inputs.
The in-flight window per worker is adaptive (:func:`_window_size`): it grows
with the backlog so cheap classes do not serialise on dispatch latency and
decays to one at the tail.  Closing the iterator (run-level fail-fast, an
abandoned stream) never submits another class, raises the run's stop flag so
workers skip what is still queued, lets the class each worker is running
finish, and reaps every worker before ``GeneratorExit`` propagates.  An
early stop does not kill workers: ``Pool.terminate()`` deadlocks when its
``SIGTERM`` lands on a worker that holds one of the pool's queue locks,
which tiny work items make likely.  Anything else that ends the stream — a
crashing check, ``KeyboardInterrupt`` — terminates the pool at once; workers
ignore ``SIGINT`` so an interrupt is always the parent's to handle.
:class:`SchedulerStats` records the window histogram and the worker
processes seen, with the same window accounting on both schedules.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.checker import check_class
from repro.core.results import NodeReport
from repro.core.symmetry import SymmetryClass
from repro.smt.incremental import process_cache_statistics, subtract_cache_statistics

#: ``(network, classes, delay)`` of the current pool and its stop flag;
#: inherited by forked workers.
_ACTIVE: tuple[AnnotatedNetwork, Sequence[SymmetryClass], int] | None = None
_STOP: Any = None

#: One completed class: its position in the submitted class list, the member
#: reports, and the solver's cache delta of checking it.
Batch = tuple[int, list[NodeReport], dict[str, int]]

#: What checking one class returns: the member reports, the cache delta
#: and the pid of the process that did the work.
_Outcome = tuple[list[NodeReport], dict[str, int], int]

#: The largest per-worker prefetch window the adaptive dispatcher uses.
#: Bounded so closing a stream never leaves more than ``workers × MAX_WINDOW``
#: classes to discard.
MAX_WINDOW = 4


def _window_size(pending: int, processes: int) -> int:
    """The per-worker prefetch window for ``pending`` remaining classes.

    Grows with the per-worker backlog (⌈pending/processes⌉, capped at
    :data:`MAX_WINDOW`) so small/cheap classes amortise dispatch latency, and
    decays to 1 as the queue drains so the tail keeps every worker busy and
    an early stop has almost nothing in flight to discard.
    """
    if processes <= 0:
        return 1
    return min(MAX_WINDOW, max(1, -(-pending // processes)))


@dataclass
class SchedulerStats:
    """Mutable scheduler counters, filled in while a batch stream is drained.

    ``window`` histograms dispatches by the prefetch-window size in effect
    when each was submitted; ``worker_pids`` collects the distinct OS
    processes that produced batches (the one-worker schedule contributes
    just the calling process).
    """

    window: dict[int, int] = field(default_factory=dict)
    worker_pids: set[int] = field(default_factory=set)

    def record_dispatch(self, window: int) -> None:
        self.window[window] = self.window.get(window, 0) + 1

    def as_dict(self) -> dict:
        """The ``ModularReport.scheduler`` projection."""
        return {
            "window": {size: count for size, count in sorted(self.window.items())},
            "workers": len(self.worker_pids) if self.worker_pids else 1,
        }


def _check_item(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    delay: int,
    index: int,
    solver: Any | None = None,
) -> _Outcome:
    """Check class ``index`` in this process and measure its cache-counter delta.

    The single definition of a unit of engine work, run verbatim by pool
    workers and by the one-worker schedule.  A pinned ``solver`` is recovered
    if the check raises (the checker only restores backends it acquired
    itself, and a poisoned trail must not leak into later classes and runs);
    the delta is read off that solver, or off the shared per-process one when
    none is pinned.
    """
    statistics = solver.cache_statistics if solver is not None else process_cache_statistics
    before = statistics()
    try:
        reports = check_class(annotated, classes[index], delay=delay, solver=solver)
    except BaseException:
        if solver is not None:
            solver.recover()
        raise
    return reports, subtract_cache_statistics(statistics(), before), os.getpid()


def _worker(index: int) -> _Outcome | None:
    """Pool entry point: check one class of the inherited run.

    Once the run is stopped the queued classes drain without being checked.
    """
    assert _ACTIVE is not None and _STOP is not None
    if _STOP.is_set():
        return None
    return _check_item(*_ACTIVE, index)


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
    schedule).  ``stats`` is filled in while the stream drains.  ``solver``
    pins the backend of the one-worker schedule (pool workers always use
    their own per-process solver).

    On the pool schedule: submits up to ``workers × window`` classes with
    ``apply_async`` and blocks on a completion queue fed by the pool's
    result-handler callbacks; each completion tops the in-flight set back up
    and is yielded immediately.  However the stream ends, unsubmitted classes
    are never started and no worker is orphaned: closing the generator winds
    the pool down without killing (queued classes are skipped, running ones
    finish), any exception — a worker crash propagating, an interrupt —
    terminates it.

    Known limitation: a worker killed *hard* (SIGKILL/OOM) loses its
    in-flight task — the pool respawns the process but no callback ever
    fires, so the completion wait blocks until the consumer interrupts it.
    Python exceptions inside a worker are not affected: they arrive via
    ``error_callback`` and propagate.
    """
    global _ACTIVE, _STOP
    if stats is None:
        stats = SchedulerStats()
    active = (annotated, classes, delay)
    processes = max(1, min(jobs, len(classes)))
    pool = _open_pool(active, processes) if processes > 1 else None
    if pool is None:
        for index in range(len(classes)):
            stats.record_dispatch(_window_size(len(classes) - index, processes))
            reports, delta, pid = _check_item(*active, index, solver)
            stats.worker_pids.add(pid)
            yield index, reports, delta
        return

    import queue

    # Completions land here from the pool's result-handler thread; the
    # third element is the worker's exception, if it raised.
    completions: queue.SimpleQueue = queue.SimpleQueue()

    def submit(index: int) -> None:
        pool.apply_async(
            _worker,
            (index,),
            callback=lambda outcome: completions.put((index, outcome, None)),
            error_callback=lambda error: completions.put((index, None, error)),
        )

    next_index = 0
    in_flight = 0

    def top_up() -> None:
        # Keep up to ``processes × window`` classes in flight, where the
        # window adapts to the remaining backlog: >1 while many classes
        # are pending (cheap classes amortise dispatch latency), back to
        # one per worker at the tail — so closing the iterator still
        # stops promptly, with at most the in-flight window to discard.
        nonlocal next_index, in_flight
        while next_index < len(classes):
            window = _window_size(len(classes) - next_index, processes)
            if in_flight >= processes * window:
                break
            stats.record_dispatch(window)
            submit(next_index)
            next_index += 1
            in_flight += 1

    try:
        top_up()
        while in_flight:
            index, outcome, error = completions.get()
            in_flight -= 1
            if error is not None:
                raise error
            top_up()
            reports, delta, pid = outcome
            stats.worker_pids.add(pid)
            yield index, reports, delta
    except GeneratorExit:
        # Run-level fail-fast or consumer abandonment: workers skip what is
        # queued and are reaped below once their running class is done.
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
