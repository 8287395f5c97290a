"""Streaming execution of class checks: one work item, one generator.

The engine's only unit of work is a class of nodes, the tuple of its members
with the representative first (:mod:`repro.core.symmetry`; a plain per-node
run is the singleton partition), and :func:`iter_class_batches` is the only
way to run a list of them.  It yields one ``(class_index, member_reports,
cache_delta)`` batch per class, in completion order; the caller re-sorts
final reports by the submission index, so results are reproducible while
progress is live.

**Runs.**  The class list is split into contiguous runs of
⌈classes / (:data:`RUNS_PER_WORKER` × workers)⌉ classes (:func:`split_runs`),
so a pool pays its dispatch cost a few times per worker rather than once per
class, and a worker checks neighbouring classes back to back: they share the
encoded cones and the answer memo of its solver.

**In-process is the one-worker schedule.**  With one worker (``jobs <= 1``,
a single class, no ``fork`` on the platform, or a pool that cannot be set
up — the last with a :class:`RuntimeWarning`) the runs are checked in the
calling process, class by class in submission order, through the very
function the pool workers run (:func:`_check_item`).  That is the engine's
sequential path, not a fallback beside it: it takes the caller's pinned
solver (or ``None`` for the shared per-process one) and recovers it if the
class raises; SAT scopes belong to the solver and outlive the class.
Failures inside a check propagate on either schedule; masking them behind a
silent rerun would hide real bugs.

**The pool.**  Annotated networks hold closures that do not pickle, so the
network, the classes and the delay are stashed in a module-level slot
before a ``fork`` :class:`~concurrent.futures.ProcessPoolExecutor` is
created; workers inherit it and only a run's bounds travel to them.  The
pool has at most one worker per class, and each worker keeps its own
per-process incremental solver.  Its counters are not observable from the
parent, so every class measures its own cache-counter delta and ships it
home with the reports — on both schedules, which therefore report identical
statistics for identical inputs.  A worker returns its whole run at once;
the parent yields it class by class.

However the stream ends, the run's stop flag is raised, queued runs are
cancelled and every worker is reaped before the generator finishes: a
worker skips the rest of its run at the next class boundary and exits on
its own, so closing the stream (run-level fail-fast, an abandoned stream),
a crashing check and an interrupt never kill a worker mid-class.  The flag
is needed because the executor moves up to ``workers + 1`` runs into its
call queue ahead of time, where ``cancel_futures`` cannot reach them.  Workers
ignore ``SIGINT``, so an interrupt is always the parent's to handle.  A
worker that dies (SIGKILL, the OOM killer) breaks the pool: the executor
fails every outstanding run and the stream raises
:class:`~concurrent.futures.process.BrokenProcessPool` instead of waiting.
:class:`SchedulerStats` records the run histogram and the worker processes
seen, with the same run accounting on both schedules.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.checker import check_class
from repro.core.results import NodeReport
from repro.smt.incremental import process_cache_statistics, subtract_cache_statistics

#: ``(network, classes, delay)`` of the current pool and its stop flag, a
#: shared byte; inherited by forked workers.  The flag takes no lock: a worker
#: killed while holding one would hang the parent's teardown.
_ACTIVE: tuple[AnnotatedNetwork, Sequence[tuple[str, ...]], int] | None = None
_STOP: Any = None

#: One completed class: its position in the submitted class list, the member
#: reports, and the solver's cache delta of checking it.
Batch = tuple[int, list[NodeReport], dict[str, int]]

#: What checking one class returns: the member reports, the cache delta
#: and the pid of the process that did the work.
_Outcome = tuple[list[NodeReport], dict[str, int], int]

#: Runs per worker: enough that an uneven run does not leave a worker idle
#: for long, few enough that dispatch costs almost nothing.
RUNS_PER_WORKER = 4


def split_runs(count: int, workers: int) -> list[range]:
    """``count`` class indices as contiguous runs of even length, in order.

    Each run is ⌈count / (:data:`RUNS_PER_WORKER` × workers)⌉ classes long
    (the last may be shorter), so there are at most ``RUNS_PER_WORKER ×
    workers`` of them.
    """
    size = max(1, -(-count // (RUNS_PER_WORKER * workers)))
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


@dataclass
class SchedulerStats:
    """Mutable scheduler counters, filled in while a batch stream is drained.

    ``window`` histograms the runs by their number of classes;
    ``worker_pids`` collects the distinct OS processes that produced batches
    (the one-worker schedule contributes just the calling process).
    """

    window: dict[int, int] = field(default_factory=dict)
    worker_pids: set[int] = field(default_factory=set)

    def record_run(self, classes: int) -> None:
        self.window[classes] = self.window.get(classes, 0) + 1

    def as_dict(self) -> dict:
        """The ``ModularReport.scheduler`` projection."""
        return {
            "window": {size: count for size, count in sorted(self.window.items())},
            "workers": len(self.worker_pids) if self.worker_pids else 1,
        }


def _check_item(
    annotated: AnnotatedNetwork,
    classes: Sequence[tuple[str, ...]],
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


def _check_run(run: range) -> list[_Outcome]:
    """Pool entry point: check a run of the inherited classes back to back.

    Once the run is stopped the rest of it is skipped; the parent has
    stopped reading by then.
    """
    assert _ACTIVE is not None and _STOP is not None
    outcomes = []
    for index in run:
        if _STOP[0]:
            break
        outcomes.append(_check_item(*_ACTIVE, index))
    return outcomes


def _open_pool(active: tuple, processes: int) -> Any | None:
    """A ``fork`` executor whose workers inherit ``active``, or ``None`` without one.

    Pool *setup* can fail on exotic platforms (no fork, no semaphores);
    running on the one-worker schedule is safe there.
    """
    global _ACTIVE, _STOP
    # Imported where a pool is wanted: one-worker runs (every ``parallel=1``
    # run goes through this module) then pay neither its import time nor its
    # memory.
    import mmap
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    try:
        _ACTIVE, _STOP = active, mmap.mmap(-1, 1)
        # A terminal's Ctrl-C reaches the whole process group; only the
        # parent acts on it, so no worker dies with a run in hand.
        return ProcessPoolExecutor(
            processes, context, signal.signal, (signal.SIGINT, signal.SIG_IGN)
        )
    except (OSError, NotImplementedError) as error:
        _ACTIVE = _STOP = None
        warnings.warn(
            f"process pool unavailable ({error}); checking sequentially",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def iter_class_batches(
    annotated: AnnotatedNetwork,
    classes: Sequence[tuple[str, ...]],
    delay: int,
    jobs: int,
    stats: SchedulerStats | None = None,
    solver: Any | None = None,
) -> Iterator[Batch]:
    """Stream one :data:`Batch` per class, on up to ``jobs`` workers.

    Batches arrive in completion order of the runs (submission order on the
    one-worker schedule).  ``stats`` is filled in while the stream drains.
    ``solver`` pins the backend of the one-worker schedule (pool workers
    always use their own per-process solver).

    On the pool schedule every run is submitted at once and each finished
    run is yielded class by class.  However the stream ends, no worker is
    orphaned: queued runs are cancelled, running ones stop at their next
    class boundary.  A worker that died raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    global _ACTIVE, _STOP
    if stats is None:
        stats = SchedulerStats()
    active = (annotated, classes, delay)
    processes = max(1, min(jobs, len(classes)))
    runs = split_runs(len(classes), processes)
    for run in runs:
        stats.record_run(len(run))
    pool = _open_pool(active, processes) if processes > 1 else None
    if pool is None:
        for index in range(len(classes)):
            reports, delta, pid = _check_item(*active, index, solver)
            stats.worker_pids.add(pid)
            yield index, reports, delta
        return

    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    try:
        futures = {pool.submit(_check_run, run): run for run in runs}
        for future in as_completed(futures):
            run = futures[future]
            try:
                outcomes = future.result()
            except BrokenProcessPool as error:
                raise BrokenProcessPool(
                    f"a worker of the {processes}-process pool died (killed by a "
                    "signal or out of memory); the run cannot complete"
                ) from error
            for index, (reports, delta, pid) in zip(run, outcomes):
                stats.worker_pids.add(pid)
                yield index, reports, delta
    finally:
        _STOP[0] = 1
        pool.shutdown(cancel_futures=True)
        _ACTIVE = _STOP = None
