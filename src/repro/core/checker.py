"""The modular checking primitive (Algorithm 1: ``CheckMod``).

Orchestration (selection, symmetry partitioning, delta reuse, report
assembly) lives in :mod:`repro.verify.session` and scheduling in
:mod:`repro.core.parallel`; this module provides the one per-batch primitive
they build on, :func:`check_class`.  A node is a class of one:
:func:`check_node` checks the singleton class.

For every class, encode and discharge the initial, inductive and safety
conditions of its representative.  Class checks are completely independent —
the paper calls them "embarrassingly parallel".  Timing is collected per node
so the harness can report the totals, medians and 99th percentiles the paper
plots.

By default the conditions are discharged on the per-process incremental SMT
backend (:func:`repro.smt.process_solver`): the three conditions of a class —
and consecutive classes checked by the same worker — share encoded structure
and learned clauses.  Pass ``incremental=False`` (or an explicit ``solver``)
to fall back to a fresh SAT instance per condition; the verdicts are
identical either way, only the cost differs (see the ablation benchmarks).

**Symmetry reduction.**  :mod:`repro.core.symmetry` partitions the nodes into
equivalence classes — via benchmark-supplied metadata hints or a generic
canonical-form hash of each node's conditions; :func:`check_class` then
discharges the conditions of one representative per class and propagates the
verdict (with a positionally translated counterexample) to the remaining
members.  A class is discharged on the backend's current SAT scope, so encoded
clauses and learned clauses are shared across the class (and with its
neighbours in batch order, until the scope outgrows its size bound).  A class
carrying a ``spot_member`` additionally re-verifies that member and raises if
its verdict disagrees with the representative's — the guard against a wrong
canonicalization or hint.  Verdicts are identical across all symmetry modes;
only the number of discharged conditions (and the wall time) differs.
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    VerificationCondition,
    canonical_node_conditions,
    node_conditions,
)
from repro.core.results import ConditionResult, ModularReport, NodeReport
from repro.core.symmetry import SymmetryClass, singleton_classes, translate_counterexample
from repro.errors import VerificationError
from repro.smt.incremental import process_solver


def _discharge(
    conditions: Iterable[VerificationCondition],
    kinds: Sequence[str],
    fail_fast: bool,
    solver: Any,
) -> list[ConditionResult]:
    """Discharge ``conditions`` (restricted to ``kinds``) on ``solver``."""
    results: list[ConditionResult] = []
    for condition in conditions:
        if condition.kind not in kinds:
            continue
        result = condition.check(solver=solver)
        results.append(result)
        if fail_fast and not result.holds:
            break
    return results


def _acquire_solver(solver: Any | None, incremental: bool) -> tuple[Any | None, bool]:
    """The backend for one node/class batch.

    When the caller pinned no solver and asked for the incremental backend,
    the shared per-process solver is used as it stands: its encoding caches
    and its current SAT scope persist across batches (and whole runs), and
    the solver alone decides when a scope has grown enough to rotate.  The
    second element reports whether the checker *owns* the returned backend
    (acquired it here rather than receiving it pinned).
    """
    if solver is None and incremental:
        return process_solver(), True
    return solver, False


def _recover_solver(solver: Any | None, owned: bool) -> None:
    """Reset an internally-acquired backend after an exception escaped.

    Without this, a crashed check (a user interface raising, an interrupted
    solve) could leave the per-process solver's SAT trail or assertion
    frames inconsistent and silently poison every later node's verdict.
    Caller-pinned solvers are left alone: ``recover()`` drops every frame
    above the root, which would destroy assertions the caller pushed for
    its own purposes — their cleanup policy is theirs to choose.
    """
    if not owned:
        return
    recover = getattr(solver, "recover", None)
    if recover is not None:
        recover()


def check_node(
    annotated: AnnotatedNetwork,
    node: str,
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
    fail_fast: bool = True,
    solver: Any | None = None,
    incremental: bool = True,
) -> NodeReport:
    """Check one node's verification conditions.

    A node is a class of one: this is :func:`check_class` (which documents
    the parameters) on the node's sender-named singleton class.
    """
    (singleton,) = singleton_classes((node,))
    return check_class(
        annotated,
        singleton,
        delay=delay,
        conditions=conditions,
        fail_fast=fail_fast,
        solver=solver,
        incremental=incremental,
    )[0]


def check_class(
    annotated: AnnotatedNetwork,
    symmetry_class: SymmetryClass,
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
    fail_fast: bool = True,
    solver: Any | None = None,
    incremental: bool = True,
) -> list[NodeReport]:
    """Check one symmetry class: discharge the representative, reuse the rest.

    ``conditions`` restricts which of the three conditions are checked (the
    harness uses this for ablations).  With ``fail_fast`` the remaining
    conditions are skipped after the first failure, mirroring Algorithm 1,
    which returns the first counterexample it finds.

    ``solver`` pins the SMT backend for all of the class's conditions; when
    omitted, the shared per-process incremental solver is used unless
    ``incremental=False`` requests fresh per-condition SAT instances.  If a
    condition raises, the shared backend is restored to a clean state before
    the exception propagates, so subsequent checks stay sound.

    Returns a report per member, in member order.  The representative's
    conditions are built with the class's naming scheme and discharged in one
    SAT scope; every other member receives the representative's verdicts as
    propagated :class:`ConditionResult` records (duration 0, counterexamples
    translated by the positional neighbour correspondence).  When the class
    carries a ``spot_member``, that member's conditions are rebuilt from
    scratch and discharged in the *same* scope — with a correct
    canonicalization this re-assumes the identical terms (nearly free, and
    it exercises the scope sharing); with a wrong metadata hint the verdicts
    can diverge, which raises :class:`VerificationError` instead of silently
    propagating an unsound verdict.

    For destination-quotient classes (``symmetry_class.destination`` set)
    the cached conditions are the *canonical* instance: their evaluation
    payloads belong to the representative's raw conditions and cannot be
    trusted under a canonical model, so a failing canonical verdict is
    discarded and the representative's raw conditions are re-discharged (an
    equivalid query — same verdicts, genuine counterexample).  Member
    counterexamples additionally re-concretize the destination index through
    the class's slot permutation, and every result carries
    ``quotient="destination"`` provenance.
    """
    unknown = set(conditions) - set(CONDITION_KINDS)
    if unknown:
        raise VerificationError(f"unknown condition kinds {sorted(unknown)}")
    representative = symmetry_class.representative
    quotient = symmetry_class.destination
    naming = symmetry_class.naming
    solver, owned = _acquire_solver(solver, incremental)
    topology = annotated.network.topology

    started = _time.perf_counter()
    try:
        built = symmetry_class.conditions
        if built is None or symmetry_class.conditions_delay != delay:
            # No cached conditions (metadata-hint path), or the cache was
            # built for a different delay than this check requests.
            if quotient is not None:
                built, _ = canonical_node_conditions(annotated, representative, delay=delay)
                built = tuple(built)
            else:
                built = node_conditions(annotated, representative, delay=delay, naming=naming)
        results = _discharge(built, conditions, fail_fast, solver)
        if quotient is not None and any(not result.holds for result in results):
            # The canonical instance failed; its counterexample payloads are
            # the representative's raw terms evaluated under a *canonical*
            # model, which is meaningless.  Re-discharge the raw conditions
            # (equivalid — identical holds pattern and fail-fast truncation)
            # for a counterexample in the representative's own coordinates.
            results = _discharge(
                node_conditions(annotated, representative, delay=delay, naming=naming),
                conditions,
                fail_fast,
                solver,
            )
    except BaseException:
        _recover_solver(solver, owned)
        raise
    if quotient is not None:
        for result in results:
            result.quotient = "destination"
    reports = [
        NodeReport(node=representative, results=results, duration=_time.perf_counter() - started)
    ]

    representative_preds = topology.predecessors(representative)
    for member in symmetry_class.members[1:]:
        if member == symmetry_class.spot_member:
            reports.append(
                _spot_check_member(
                    annotated,
                    symmetry_class,
                    member,
                    results,
                    delay,
                    conditions,
                    fail_fast,
                    solver,
                    owned,
                )
            )
            continue
        member_started = _time.perf_counter()
        destination = (
            None
            if quotient is None
            else (quotient.variable, quotient.permutation(representative, member))
        )
        member_results = [
            ConditionResult(
                node=member,
                condition=result.condition,
                holds=result.holds,
                duration=0.0,
                counterexample=(
                    None
                    if result.counterexample is None
                    else translate_counterexample(
                        result.counterexample,
                        member,
                        representative_preds,
                        topology.predecessors(member),
                        destination=destination,
                    )
                ),
                propagated_from=representative,
                quotient=result.quotient,
            )
            for result in results
        ]
        reports.append(
            NodeReport(
                node=member,
                results=member_results,
                duration=_time.perf_counter() - member_started,
            )
        )
    return reports


def _spot_check_member(
    annotated: AnnotatedNetwork,
    symmetry_class: SymmetryClass,
    member: str,
    representative_results: list[ConditionResult],
    delay: int,
    conditions: Sequence[str],
    fail_fast: bool,
    solver: Any,
    owned: bool,
) -> NodeReport:
    """Fully re-verify one class member and compare against the representative."""
    member_started = _time.perf_counter()
    try:
        member_results = _discharge(
            node_conditions(annotated, member, delay=delay, naming=symmetry_class.naming),
            conditions,
            fail_fast,
            solver,
        )
    except BaseException:
        _recover_solver(solver, owned)
        raise
    expected = [(result.condition, result.holds) for result in representative_results]
    observed = [(result.condition, result.holds) for result in member_results]
    if expected != observed:
        raise VerificationError(
            f"symmetry spot-check failed: class member {member!r} decided {observed} "
            f"but representative {symmetry_class.representative!r} decided {expected}; "
            "the symmetry classes (metadata hints?) are unsound for this network"
        )
    return NodeReport(
        node=member, results=member_results, duration=_time.perf_counter() - member_started
    )


def assert_verified(report: ModularReport) -> None:
    """Raise :class:`VerificationError` with diagnostics unless ``report`` passed."""
    if report.passed:
        return
    details = "\n".join(example.describe() for example in report.counterexamples())
    raise VerificationError(
        f"modular verification failed at nodes {report.failed_nodes}:\n{details}"
    )
