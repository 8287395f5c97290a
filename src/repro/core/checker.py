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
solver (:func:`repro.smt.process_solver`): the three conditions of a class —
and consecutive classes checked by the same worker — share encoded structure
and learned clauses.  An explicit ``solver`` pins another backend; a facade
:class:`repro.smt.Solver` builds a fresh SAT instance per condition, which is
how the test suite's reference run is built.  The verdicts are identical
either way, only the cost differs (see the ablation benchmarks).

**Symmetry reduction.**  :mod:`repro.core.symmetry` partitions the nodes of
a network that declares a destination symmetry into destination-quotient
classes; :func:`check_class` then discharges the canonical conditions of one
representative per class and propagates a passing verdict to the remaining
members.  A failing class propagates nothing: each member re-discharges its
own raw conditions, so every counterexample is the member's genuine one.  A
class is discharged on the backend's current SAT scope, so encoded clauses
and learned clauses are shared across the class (and with its neighbours in
batch order, until the scope outgrows its size bound).  Verdicts are
identical across all symmetry modes; only the number of discharged
conditions (and the wall time) differs.
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterable

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import VerificationCondition, canonical_node_conditions, node_conditions
from repro.core.results import ConditionResult, ModularReport, NodeReport
from repro.core.symmetry import SymmetryClass, singleton_classes
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
    """Check one node's verification conditions.

    A node is a class of one: this is :func:`check_class` (which documents
    the parameters) on the node's singleton class.
    """
    (singleton,) = singleton_classes((node,))
    return check_class(annotated, singleton, delay=delay, solver=solver)[0]


def check_class(
    annotated: AnnotatedNetwork,
    symmetry_class: SymmetryClass,
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

    Returns a report per member, in member order.  The representative's
    conditions are discharged in one SAT scope.  When they all hold, every
    other member receives them as propagated :class:`ConditionResult`
    records (duration 0, ``propagated_from`` the representative).  When one
    fails, the class propagates nothing: every member re-discharges its own
    raw conditions in the same scope, so each counterexample is the member's
    genuine one, and a member whose ``(condition, holds)`` sequence differs
    from the class's raises :class:`VerificationError`.  Results of a
    destination-quotient class (``symmetry_class.destination``) carry
    ``quotient="destination"``.
    """
    representative = symmetry_class.representative
    members = symmetry_class.members
    quotient = "destination" if symmetry_class.destination else None
    # Without a pinned solver the shared per-process one is used as it
    # stands: its encoding caches and its current SAT scope persist across
    # batches (and whole runs), and it alone decides when a scope rotates.
    owned = solver is None
    solver = solver or process_solver()

    started = _time.perf_counter()
    try:
        built = symmetry_class.conditions
        if built is None or symmetry_class.conditions_delay != delay:
            # No cached conditions (a singleton class), or the cache was
            # built for a different delay than this check requests.
            if quotient is not None:
                built, _ = canonical_node_conditions(annotated, representative, delay=delay)
            else:
                built = node_conditions(annotated, representative, delay=delay)
        results = _discharge(built, solver)
        failed = not all(result.holds for result in results)
        if failed and (quotient is not None or len(members) > 1):
            # A canonical instance's counterexample payloads are raw terms
            # evaluated under a canonical model, and a member's failure is
            # its own: every member discharges its raw conditions.
            expected = [(result.condition, result.holds) for result in results]
            reports = []
            for member in members:
                member_started = _time.perf_counter()
                own = _discharge(node_conditions(annotated, member, delay=delay), solver)
                observed = [(result.condition, result.holds) for result in own]
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
