"""Symmetry reduction: verify one node per destination-quotient class.

An all-pairs benchmark bakes each node's own ``dest == k`` constants into its
interface, so no two of its nodes pose the same query; yet on a fattree they
prove the *same* theorem up to a renaming of the destination index.  This
module partitions such networks into equivalence classes so
:func:`repro.core.checker.check_class` can discharge the conditions of one
*representative* per class and propagate a passing verdict to the remaining
members.

The class is the engine's only unit of work: ``symmetry="off"`` is the
singleton partition (:func:`singleton_classes`), whose classes discharge
exactly the queries a plain per-node check would.

**Destination quotient.**  The one partition.  A network that declares a
:class:`~repro.core.annotations.DestinationSymmetry` marker has its
conditions canonicalized *up to simultaneous destination-index permutation*
(:func:`repro.core.conditions.canonical_node_conditions`), and two nodes
share a class iff their canonical ``(assumptions, goal)`` pairs are the
identical hash-consed ``Term`` objects.  A network without the marker gets
the singleton partition under every mode: nodes whose conditions are
term-identical are already answered once, by the incremental solver's answer
memo (:mod:`repro.smt.incremental`), so no partition needs to find them.

Soundness.  Equal keys mean the members' raw conditions are each equivalid
with the *same* canonical instance (they are its images under bijections of
the destination index that preserve the range constraint), hence equivalid
with each other: a passing representative is a passing member.  A failing
class propagates nothing: every member re-discharges its own raw conditions,
so each counterexample is that member's genuine one, and a member whose
verdicts differ from the class's is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import VerificationCondition, canonical_node_conditions

#: The symmetry modes of :class:`repro.verify.Modular`.
SYMMETRY_MODES = ("off", "classes")


@dataclass
class SymmetryClass:
    """One equivalence class of nodes with isomorphic verification conditions.

    ``members`` is ordered deterministically (the order the nodes were given
    to :func:`partition_nodes`); the first member is the representative whose
    conditions are actually discharged.  ``conditions`` caches the
    representative's conditions when the partition already built them
    (``None`` for singleton classes, whose conditions are built at check
    time).  ``destination`` is set when the class was formed up to
    destination-index permutation: the cached ``conditions`` are then the
    *canonical* instance.
    """

    key: Hashable
    members: tuple[str, ...]
    conditions: tuple[VerificationCondition, ...] | None = None
    #: The ``delay`` the cached conditions were built with; the checker
    #: rebuilds them when asked to check under a different delay.
    conditions_delay: int = 0
    destination: bool = False

    @property
    def representative(self) -> str:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


def singleton_classes(nodes: Sequence[str]) -> list[SymmetryClass]:
    """The trivial partition: one class per node, in ``nodes`` order."""
    return [SymmetryClass(key=("singleton", node), members=(node,)) for node in nodes]


def partition_nodes(
    annotated: AnnotatedNetwork, nodes: Sequence[str], delay: int = 0
) -> list[SymmetryClass]:
    """Partition ``nodes`` into symmetry classes (deterministic order).

    The destination-permutation quotient when the network declares a
    :class:`~repro.core.annotations.DestinationSymmetry`, otherwise the
    singleton partition.  Classes are returned in first-member order;
    members keep the order of ``nodes``.

    An eligibility flag keeps nodes whose conditions fell back to their raw
    form (destination used outside the eligible atom shapes) from ever
    sharing a class with canonicalized ones; equal raw terms still merge.
    """
    if annotated.destination_symmetry is None:
        return singleton_classes(nodes)
    groups: dict[Hashable, list[str]] = {}
    built: dict[Hashable, tuple[VerificationCondition, ...]] = {}
    for node in nodes:
        node_vcs, witness = canonical_node_conditions(annotated, node, delay=delay)
        # Hash-consing makes term_id a process-stable structural fingerprint:
        # equal keys ⟺ the canonicalized conditions are the same Term objects.
        key = (witness is not None,) + tuple(
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id) for vc in node_vcs
        )
        if key not in groups:
            built[key] = tuple(node_vcs)
        groups.setdefault(key, []).append(node)
    return [
        SymmetryClass(
            key=key,
            members=tuple(members),
            conditions=built[key],
            conditions_delay=delay,
            destination=key[0],
        )
        for key, members in groups.items()
    ]
