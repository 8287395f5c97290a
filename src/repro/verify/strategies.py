"""Strategy objects: the *what and how* of a verification run.

A strategy is a frozen, self-validating dataclass bundling every knob of one
verification engine — the paper's comparison harness runs the same annotated
network under several of them (modular vs monolithic vs the §2.2
strawperson).  A knob that exists on the strategy *provably* reaches the
engine, because the engine receives the whole object (see the regression
test in ``tests/verify/test_strategies.py``).

Strategies are registered by name in :data:`STRATEGY_REGISTRY`, so the CLI
and harness can construct them from plain strings (``strategy("modular",
symmetry="classes")``) and new engines — e.g. a symmetry-aware monolithic
encoding — plug in by registering a class, without touching any call site.

Each strategy implements :meth:`Strategy.events`, the engine entry point
used by :class:`repro.verify.Session`: a generator that yields
:class:`~repro.core.results.ConditionResult` events as verdicts arrive and
installs the finalized report on the session when exhausted.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

from repro.core.conditions import CONDITION_KINDS
from repro.core.results import ConditionResult
from repro.core.symmetry import SYMMETRY_MODES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.verify.session import Session

#: Modular-engine backends: ``incremental`` shares the per-process solver
#: (encoding caches persist across runs in the process), ``persistent`` gives
#: the session its own solver that additionally carries learned clauses
#: across SAT scopes and runs, ``fresh`` builds one SAT instance per
#: condition (the ablation baseline).
BACKENDS = ("incremental", "persistent", "fresh")

#: Delta re-verification modes: ``off`` re-discharges everything (the
#: historical behaviour), ``reuse`` consults the on-disk fingerprint store
#: (:mod:`repro.verify.store`) and only discharges conditions whose inputs
#: changed since the last recorded run, emitting cached verdicts as
#: ``reused`` events for the rest.
DELTA_MODES = ("off", "reuse")


class Strategy:
    """Base class of all verification strategies.

    Subclasses are frozen dataclasses; their fields are the engine's
    complete configuration.  ``name`` is the registry key used by
    :func:`strategy` and the CLI.
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


#: Registry of strategy classes by name.  New engines register here and are
#: immediately constructible from the CLI and harness without new call sites.
STRATEGY_REGISTRY: dict[str, type[Strategy]] = {}


def register_strategy(cls: type[Strategy]) -> type[Strategy]:
    """Class decorator: register a strategy under its ``name``."""
    if not cls.name:
        raise ValueError(f"strategy class {cls.__name__} must set a registry name")
    if cls.name in STRATEGY_REGISTRY:
        raise ValueError(
            f"strategy {cls.name!r} is already registered "
            f"(by {STRATEGY_REGISTRY[cls.name].__name__})"
        )
    STRATEGY_REGISTRY[cls.name] = cls
    return cls


def strategy(name: str, **parameters: Any) -> Strategy:
    """Construct a registered strategy by name (the argv → strategy path)."""
    try:
        cls = STRATEGY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose one of {sorted(STRATEGY_REGISTRY)}"
        ) from None
    return cls(**parameters)


def available_strategies() -> tuple[str, ...]:
    """The registered strategy names, sorted."""
    return tuple(sorted(STRATEGY_REGISTRY))


@register_strategy
@dataclass(frozen=True)
class Modular(Strategy):
    """The paper's modular checking procedure (Algorithm 1), fully knobbed.

    ``symmetry`` selects the PR 2 reduction mode (one of
    :data:`~repro.core.symmetry.SYMMETRY_MODES`); ``backend`` the SMT
    backend (:data:`BACKENDS`); ``parallel`` the worker-process count;
    ``spot_check_seed`` seeds the deterministic choice of re-verified class
    members in ``spot-check`` mode.  ``delay`` and ``conditions`` mirror the
    per-class knobs of :func:`repro.core.check_class`.

    Two fail-fast granularities: ``fail_fast`` (per batch) skips a node's
    remaining conditions after its first failure, mirroring Algorithm 1;
    ``stop_on_failure`` (run level) additionally stops scheduling *further*
    nodes/classes once any completed batch reports a failing condition —
    parallel runs stop dispatching queued work items and wind the pool down,
    and the report records ``stopped_early``/``conditions_skipped``.

    ``delta="reuse"`` (CLI ``--delta reuse``) turns the run change-aware: a
    fingerprint store persisted between runs (``store``, defaulting to a
    conventional path) supplies cached verdicts for nodes whose condition
    inputs are unchanged, so a config edit re-checks only the edited node's
    neighbourhood and a no-op re-run reuses everything.
    """

    name: ClassVar[str] = "modular"
    uses_session_solver: ClassVar[bool] = True

    symmetry: str = "off"
    backend: str = "incremental"
    parallel: int = 1
    fail_fast: bool = True
    stop_on_failure: bool = False
    spot_check_seed: int = 0
    delay: int = 0
    conditions: tuple[str, ...] = CONDITION_KINDS
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
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose one of {BACKENDS}")
        if self.delta not in DELTA_MODES:
            raise ValueError(f"unknown delta mode {self.delta!r}; choose one of {DELTA_MODES}")
        if self.store is not None and self.delta == "off":
            # A store that is never read or written would be a silent no-op.
            raise ValueError('store requires delta="reuse"')
        if self.store is not None and not isinstance(self.store, str):
            raise ValueError(f"store must be a path string or None, got {self.store!r}")
        if self.parallel < 1:
            raise ValueError(f"parallel must be a positive worker count, got {self.parallel}")
        for flag in ("fail_fast", "stop_on_failure"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                # A truthy non-bool (e.g. the string "false" from a config
                # file) would silently flip the engine's fail-fast behavior.
                raise ValueError(f"{flag} must be a bool, got {value!r}")
        if self.backend == "persistent" and self.parallel > 1:
            # Worker processes own their solvers, so a session-owned
            # persistent solver cannot serve a parallel run; rejecting the
            # combination beats silently degrading to per-worker solvers.
            raise ValueError(
                'backend="persistent" requires parallel=1 (parallel workers use '
                "their own per-process solvers and cannot share a session-owned one)"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        unknown = set(self.conditions) - set(CONDITION_KINDS)
        if unknown:
            raise ValueError(
                f"unknown condition kinds {sorted(unknown)}; choose among {CONDITION_KINDS}"
            )
        if len(set(self.conditions)) != len(self.conditions):
            # A repeated kind would over-count skipped conditions and derive
            # a distinct store path for the same set of queries.
            raise ValueError(f"condition kinds must be distinct, got {self.conditions}")

    @property
    def incremental(self) -> bool:
        """Whether the engine uses an incremental backend (either flavour)."""
        return self.backend != "fresh"

    def engine_options(self) -> dict[str, Any]:
        """The per-batch kwargs handed to ``check_class``.

        Every :class:`Modular` field must either appear here or steer the
        engine loop itself (``symmetry``, ``backend``, ``parallel``,
        ``stop_on_failure``, ``spot_check_seed``, ``delta``, ``store``); the
        strategy regression test enforces that no field is silently dropped.
        """
        return {
            "delay": self.delay,
            "conditions": self.conditions,
            "fail_fast": self.fail_fast,
            "incremental": self.incremental,
        }

    def events(self, session: "Session", nodes: Any | None = None) -> Iterator[ConditionResult]:
        from repro.verify.session import modular_events

        return modular_events(session, self, nodes)


@register_strategy
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


@register_strategy
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
