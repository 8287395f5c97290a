"""The modular checking primitive (Algorithm 1: ``CheckMod``).

Orchestration (selection, symmetry partitioning, delta reuse, report
assembly) lives in :mod:`repro.verify.session` and scheduling in
:mod:`repro.core.parallel`; this module provides the one per-batch primitive
they build on, :func:`check_class`, and the raw reference they are held to,
:func:`check_node`.

For every class, encode and discharge the initial, inductive and safety
conditions of its representative.  Class checks are completely independent —
the paper calls them "embarrassingly parallel".  Timing is collected per node
so the harness can report the totals, medians and 99th percentiles the paper
plots.

By default the conditions are discharged on the per-process incremental SMT
solver (:func:`repro.smt.process_solver`): the three conditions of a class —
and consecutive classes checked by the same worker — share encoded structure
and learned clauses.  An explicit ``solver`` pins another backend; a facade
:class:`repro.smt.Solver` builds a fresh SAT instance per condition, which is
how the test suite's reference run is built.  The verdicts are identical
either way, only the cost differs (see the ablation benchmarks).

**Destination numbering.**  Every mode discharges a representative's
conditions as built in its own destination numbering
(:func:`~repro.core.conditions.canonical_node_conditions`; raw unless a
marker vouches for all it reads), so isomorphic all-pairs nodes pose one
query, which the solver's answer memo answers once.  That build is
memoised: the partition and the fingerprint layer read the same one, so a
node is built once however many of them ask.  A class is the tuple
of its members, representative first (:mod:`repro.core.symmetry`); under
``symmetry="classes"`` a passing representative's verdict is propagated to
the rest of it.  A failing numbered or sliced build or
class has each member re-discharge its own raw conditions, so every
counterexample is the member's genuine one.  A class is discharged on the
backend's current SAT scope, so encoded and learned clauses are shared
across the class (and with its neighbours in batch order, until the scope
outgrows its size bound).
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import VerificationCondition, canonical_node_conditions, node_conditions
from repro.core.results import ConditionResult, ModularReport, NodeReport
from repro.errors import VerificationError
from repro.smt.incremental import process_solver


def _discharge(conditions: Iterable[VerificationCondition], solver: Any) -> list[ConditionResult]:
    """Discharge ``conditions`` in order, up to the first failure."""
    results: list[ConditionResult] = []
    for condition in conditions:
        result = condition.check(solver=solver)
        results.append(result)
        if not result.holds:
            break
    return results


def _recover_solver(solver: Any, owned: bool) -> None:
    """Reset an internally-acquired backend after an exception escaped.

    Without this, a crashed check (a user interface raising, an interrupted
    solve) could leave the per-process solver's SAT trail or assertion
    frames inconsistent and silently poison every later node's verdict.
    Caller-pinned solvers are left alone: ``recover()`` drops every frame
    above the root, which would destroy assertions the caller pushed for
    its own purposes — their cleanup policy is theirs to choose.
    """
    if owned:
        solver.recover()


def check_node(
    annotated: AnnotatedNetwork, node: str, delay: int = 0, solver: Any | None = None
) -> NodeReport:
    """Check one node's raw conditions: the reference every mode is held to.

    :func:`~repro.core.conditions.node_conditions` is discharged on
    ``solver`` (the shared per-process incremental solver when omitted) up
    to the first failure, with no class and no destination numbering.  If a
    condition raises, an owned backend is restored to a clean state before
    the exception propagates.
    """
    owned = solver is None
    solver = solver or process_solver()
    started = _time.perf_counter()
    try:
        results = _discharge(node_conditions(annotated, node, delay=delay), solver)
    except BaseException:
        _recover_solver(solver, owned)
        raise
    return NodeReport(node, results, _time.perf_counter() - started)


def check_class(
    annotated: AnnotatedNetwork,
    members: Sequence[str],
    delay: int = 0,
    solver: Any | None = None,
) -> list[NodeReport]:
    """Check one symmetry class: discharge the representative, reuse a pass.

    The initial, inductive and safety conditions are discharged in that
    order, and the remaining ones are skipped after the first failure,
    mirroring Algorithm 1, which returns the first counterexample it finds.
    A class is the scheduler's only unit of work
    (:func:`repro.core.parallel.iter_class_batches`).

    ``solver`` pins the SMT backend for all of the class's conditions; when
    omitted, the shared per-process incremental solver is used.  If a
    condition raises, the shared backend is restored to a clean state before
    the exception propagates, so subsequent checks stay sound.

    ``members`` is the class (:mod:`repro.core.symmetry`), its first member
    the representative.  Returns a report per member, in member order.  The
    representative's conditions are its memoised build in its own
    destination numbering
    (:func:`~repro.core.conditions.canonical_node_conditions`; raw unless
    the marker vouches for all it reads), discharged in one SAT scope.
    When they all hold, every other member receives them as propagated
    :class:`ConditionResult` records (duration 0, ``propagated_from`` the
    representative).  When one fails and the build was numbered or sliced or
    the class has several members, the class propagates nothing: every
    member re-discharges its own raw conditions in the same scope, so each
    counterexample is the member's genuine one, and a member whose
    ``(condition, holds)`` sequence differs from the class's (after a sliced
    build, the representative's raw one) raises :class:`VerificationError`.
    Results carry ``quotient="destination"`` exactly when the representative
    has a numbering.
    """
    representative = members[0]
    numbered = annotated.destination_numbering(representative) is not None
    quotient = "destination" if numbered else None
    # Without a pinned solver the shared per-process one is used as it
    # stands: its encoding caches and its current SAT scope persist across
    # batches (and whole runs), and it alone decides when a scope rotates.
    owned = solver is None
    solver = solver or process_solver()

    started = _time.perf_counter()
    try:
        built = canonical_node_conditions(annotated, representative, delay=delay)
        sliced = built[0].sliced_from is not None
        results = _discharge(built, solver)
        failed = not all(result.holds for result in results)
        if failed and (numbered or sliced or len(members) > 1):
            # Every member discharges its raw conditions: a numbered or sliced
            # counterexample is not the member's, and a sliced failure is only
            # a candidate (there the representative's raw verdicts decide).
            expected = None if sliced else [(result.condition, result.holds) for result in results]
            reports = []
            for member in members:
                member_started = _time.perf_counter()
                own = _discharge(node_conditions(annotated, member, delay=delay), solver)
                observed = [(result.condition, result.holds) for result in own]
                expected = expected or observed
                if observed != expected:
                    raise VerificationError(
                        f"symmetry class member {member!r} decided {observed} but its "
                        f"class (representative {representative!r}) decided {expected}; "
                        "the partition is unsound for this network"
                    )
                reports.append(NodeReport(member, own, _time.perf_counter() - member_started))
        else:
            reports = [NodeReport(representative, results, _time.perf_counter() - started)]
    except BaseException:
        _recover_solver(solver, owned)
        raise
    for report in reports:
        for result in report.results:
            result.quotient = quotient
    for member in members[len(reports):]:
        reports.append(
            NodeReport(
                node=member,
                results=[
                    ConditionResult(
                        node=member,
                        condition=result.condition,
                        holds=True,
                        duration=0.0,
                        propagated_from=representative,
                        quotient=quotient,
                    )
                    for result in results
                ],
                duration=0.0,
            )
        )
    return reports


def assert_verified(report: ModularReport) -> None:
    """Raise :class:`VerificationError` with diagnostics unless ``report`` passed."""
    if report.passed:
        return
    details = "\n".join(example.describe() for example in report.counterexamples())
    raise VerificationError(
        f"modular verification failed at nodes {report.failed_nodes}:\n{details}"
    )
