"""Strategy objects: the *what and how* of a verification run.

A strategy is a frozen, self-validating dataclass bundling every knob of one
verification engine — the paper's comparison harness runs the same annotated
network under several of them (modular vs monolithic vs the §2.2
strawperson).  A knob that exists on the strategy *provably* reaches the
engine, because the engine receives the whole object (see the regression
test in ``tests/verify/test_strategies.py``).  There are three engines and
callers construct them directly: ``Modular(symmetry="classes")``.

Each strategy implements :meth:`Strategy.events`, the engine entry point
used by :class:`repro.verify.Session`: a generator that yields
:class:`~repro.core.results.ConditionResult` events as verdicts arrive and
installs the finalized report on the session when exhausted.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

from repro.core.results import ConditionResult
from repro.core.symmetry import SYMMETRY_MODES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.verify.session import Session

#: Delta re-verification modes: ``off`` re-discharges everything (the
#: historical behaviour), ``reuse`` consults the on-disk fingerprint store
#: (:mod:`repro.verify.store`) and only discharges conditions whose inputs
#: changed since the last recorded run, emitting cached verdicts as
#: ``reused`` events for the rest.
DELTA_MODES = ("off", "reuse")


class Strategy:
    """Base class of all verification strategies.

    Subclasses are frozen dataclasses; their fields are the engine's
    complete configuration.  ``name`` labels the engine in
    :meth:`describe` and in error messages.
    """

    name: ClassVar[str] = ""
    #: Whether the engine runs on the session's incremental solver; the
    #: session rejects a supplied solver for strategies that never touch it
    #: (a silent no-op otherwise).  Engines that pin batches to the session
    #: solver — like :class:`Modular` — set this.
    uses_session_solver: ClassVar[bool] = False

    def events(self, session: "Session", nodes: Any | None = None) -> Iterator[ConditionResult]:
        """Run the engine, yielding per-condition events; finalize the report.

        Implementations must call ``session._finalize(report)`` after the
        last event so :attr:`Session.report` reflects this run.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line rendering of the strategy and all its knobs.

        The CLI prints this with ``--progress`` so a run's full
        configuration is visible alongside its streamed verdicts.
        """
        parameters = ", ".join(
            f"{field.name}={getattr(self, field.name)!r}" for field in fields(self)  # type: ignore[arg-type]
        )
        return f"{self.name}({parameters})"


@dataclass(frozen=True)
class Modular(Strategy):
    """The paper's modular checking procedure (Algorithm 1), fully knobbed.

    ``symmetry`` selects the symmetry reduction mode (one of
    :data:`~repro.core.symmetry.SYMMETRY_MODES`); ``parallel`` the
    worker-process count; ``delay`` is the
    §4 bounded delay :func:`repro.core.check_class` builds conditions under.
    Every run discharges all three condition kinds of each node on one
    incremental SMT solver — the session's, if one was supplied, otherwise
    the per-process one (:func:`repro.smt.process_solver`) — and, like
    Algorithm 1, skips a node's remaining conditions after its first failure.

    ``stop_on_failure`` additionally stops scheduling *further* nodes/classes
    once any completed batch reports a failing condition — parallel runs stop
    dispatching queued work items and wind the pool down, and the report
    records ``stopped_early``/``conditions_skipped``.

    ``delta="reuse"`` (CLI ``--delta reuse``) turns the run change-aware: a
    fingerprint store persisted between runs (``store``, defaulting to a
    conventional path) supplies cached verdicts for nodes whose conditions
    an earlier run proved, so a config edit re-checks only the edited node's
    neighbourhood and a no-op re-run reuses everything.
    """

    name: ClassVar[str] = "modular"
    uses_session_solver: ClassVar[bool] = True

    symmetry: str = "off"
    parallel: int = 1
    stop_on_failure: bool = False
    delay: int = 0
    #: Delta re-verification mode (:data:`DELTA_MODES`).  With ``"reuse"``
    #: the session loads the fingerprint store before the run, emits cached
    #: verdicts (``ConditionResult.reused``) for unchanged nodes/classes,
    #: discharges only the changed remainder, and atomically re-records the
    #: store afterwards.
    delta: str = "off"
    #: Store file path for ``delta="reuse"``; ``None`` derives the
    #: conventional per-(network, strategy) path under
    #: :data:`repro.verify.store.DEFAULT_STORE_DIR`.
    store: str | None = None

    def __post_init__(self) -> None:
        if self.symmetry not in SYMMETRY_MODES:
            raise ValueError(
                f"unknown symmetry mode {self.symmetry!r}; choose one of {SYMMETRY_MODES}"
            )
        if self.delta not in DELTA_MODES:
            raise ValueError(f"unknown delta mode {self.delta!r}; choose one of {DELTA_MODES}")
        if self.store is not None and self.delta == "off":
            # A store that is never read or written would be a silent no-op.
            raise ValueError('store requires delta="reuse"')
        if self.store is not None and not isinstance(self.store, str):
            raise ValueError(f"store must be a path string or None, got {self.store!r}")
        for name in ("parallel", "delay"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                # A float fails late and elsewhere (inside the pool, or while
                # building conditions); True would silently mean 1.
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.parallel < 1:
            raise ValueError(f"parallel must be a positive worker count, got {self.parallel}")
        if not isinstance(self.stop_on_failure, bool):
            # A truthy non-bool (e.g. the string "false" from a config file)
            # would silently flip the engine's run-level fail-fast.
            raise ValueError(f"stop_on_failure must be a bool, got {self.stop_on_failure!r}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")

    def events(self, session: "Session", nodes: Any | None = None) -> Iterator[ConditionResult]:
        from repro.verify.session import modular_events

        return modular_events(session, self, nodes)


@dataclass(frozen=True)
class Monolithic(Strategy):
    """The Minesweeper-style monolithic baseline (the paper's ``Ms``).

    ``timeout`` is the wall-clock budget in seconds (``None`` = unbounded);
    the paper's evaluation used 2-hour timeouts.
    """

    name: ClassVar[str] = "monolithic"

    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be a positive number of seconds or None, got {self.timeout}"
            )

    def events(self, session: "Session", nodes: Any | None = None) -> Iterator[ConditionResult]:
        from repro.core.monolithic import run_monolithic
        from repro.errors import VerificationError

        if nodes is not None:
            raise VerificationError("the monolithic engine always checks the whole network")
        started = _time.perf_counter()
        report = run_monolithic(session.annotated, timeout=self.timeout)
        yield ConditionResult(
            node="*",
            # A timed-out run is not a counterexample; streaming consumers
            # branching on ``holds`` need the distinction the report makes.
            condition="monolithic (timeout)" if report.timed_out else "monolithic",
            holds=report.passed,
            duration=_time.perf_counter() - started,
        )
        session._finalize(report)


@dataclass(frozen=True)
class Strawperson(Strategy):
    """The naïve (unsound) §2.2 stable-state procedure.

    ``interfaces`` maps nodes to *stable* (time-free) route predicates.
    When omitted, the session erases the annotated network's temporal
    interfaces at the stable time ``t ≥ τ_max`` — the same erasure the
    monolithic baseline applies to properties.
    """

    name: ClassVar[str] = "strawperson"

    interfaces: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.interfaces is not None and not isinstance(self.interfaces, Mapping):
            raise ValueError("interfaces must be a mapping from node name to stable predicate")

    def events(self, session: "Session", nodes: Any | None = None) -> Iterator[ConditionResult]:
        from repro.verify.session import strawperson_events

        return strawperson_events(session, self, nodes)
