"""``repro.verify`` — the unified verification API.

One entry point for every engine the paper compares:

* **Strategy objects** (:class:`Modular`, :class:`Monolithic`,
  :class:`Strawperson`) are frozen, self-validating dataclasses holding
  every knob of an engine, registered by name so new engines plug in
  without new call sites.
* A :class:`Session` binds a target network to a strategy, owns the
  incremental solver's lifecycle across runs (``backend="persistent"``
  carries learned clauses across SAT scopes *and* runs) and streams
  per-condition :class:`~repro.core.results.ConditionResult` events before
  finalizing a report.
* Every report satisfies the common :class:`Report` protocol (``verdict``,
  ``wall_time``, ``backend_cache``, ``to_json()``).

Quickstart::

    from repro.verify import Modular, Session, verify

    report = verify(annotated)                       # modular, defaults
    report = verify(annotated, Modular(symmetry="classes"))

    with Session(annotated, Modular(backend="persistent")) as session:
        for event in session.stream():               # streaming progress
            print(event.node, event.condition, event.holds)
        report = session.report
"""

from repro.verify.reports import Report, VERDICTS, is_report
from repro.verify.session import LINT_MODES, Session, verify
from repro.verify.store import DEFAULT_STORE_DIR, DeltaStore, STORE_VERSION, default_store_path
from repro.verify.strategies import (
    BACKENDS,
    DELTA_MODES,
    Modular,
    Monolithic,
    STRATEGY_REGISTRY,
    Strategy,
    Strawperson,
    available_strategies,
    register_strategy,
    strategy,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_STORE_DIR",
    "DELTA_MODES",
    "DeltaStore",
    "LINT_MODES",
    "Modular",
    "Monolithic",
    "Report",
    "STORE_VERSION",
    "STRATEGY_REGISTRY",
    "Session",
    "Strategy",
    "Strawperson",
    "VERDICTS",
    "available_strategies",
    "default_store_path",
    "is_report",
    "register_strategy",
    "strategy",
    "verify",
]
