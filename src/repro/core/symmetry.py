"""Symmetry reduction: verify one node per destination-quotient class.

An all-pairs benchmark bakes each node's own ``dest == k`` constants into its
interface, yet on a fattree its nodes prove the *same* theorem up to a
renaming of the destination index.  Every mode builds a node in its own
destination numbering, so isomorphic nodes pose one query, which the
incremental solver's answer memo answers once.  This module partitions such
networks into equivalence classes so ``symmetry="classes"`` discharges one
*representative* per class and propagates a passing verdict to the rest.

The class is the engine's only unit of work: ``symmetry="off"`` is the
singleton partition (:func:`singleton_classes`).

**Destination quotient.**  The one partition.  A network that declares a
:class:`~repro.core.annotations.DestinationSymmetry` marker has each node's
conditions built in that node's own destination numbering where the
marker vouches for what they read
(:func:`repro.core.conditions.canonical_node_conditions`), and two nodes
share a class iff those ``(assumptions, goal)`` pairs are the identical
hash-consed ``Term`` objects.  A network without the marker gets
the singleton partition under every mode: nodes whose conditions are
term-identical are already answered once, by the answer memo, so no
partition needs to find them.

Soundness.  Equal keys mean the members' raw conditions are each implied by
the *same* canonical instance (their image under a bijection of the
destination index range, perhaps with precondition components dropped), and
equivalid with it unless the precondition is unsatisfiable: a passing
representative is a passing member.  A failing class propagates nothing:
every member re-discharges its own raw conditions, so each counterexample is
that member's genuine one, and members whose verdicts differ are an error.
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
    time).
    """

    members: tuple[str, ...]
    conditions: tuple[VerificationCondition, ...] | None = None
    #: The ``delay`` the cached conditions were built with; the checker
    #: rebuilds them when asked to check under a different delay.
    conditions_delay: int = 0

    @property
    def representative(self) -> str:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


def singleton_classes(nodes: Sequence[str]) -> list[SymmetryClass]:
    """The trivial partition: one class per node, in ``nodes`` order."""
    return [SymmetryClass(members=(node,)) for node in nodes]


def partition_nodes(
    annotated: AnnotatedNetwork, nodes: Sequence[str], delay: int = 0
) -> list[SymmetryClass]:
    """Partition ``nodes`` into symmetry classes (deterministic order).

    The destination-permutation quotient when the network declares a
    :class:`~repro.core.annotations.DestinationSymmetry`, otherwise the
    singleton partition.  Classes are returned in first-member order;
    members keep the order of ``nodes``.
    """
    if annotated.destination_symmetry is None:
        return singleton_classes(nodes)
    groups: dict[Hashable, list[str]] = {}
    built: dict[Hashable, tuple[VerificationCondition, ...]] = {}
    for node in nodes:
        node_vcs = canonical_node_conditions(annotated, node, delay=delay)
        # Hash-consing makes term_id a process-stable structural fingerprint:
        # equal keys ⟺ the canonical conditions are the same Term objects.
        key = tuple(
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id) for vc in node_vcs
        )
        if key not in groups:
            built[key] = tuple(node_vcs)
        groups.setdefault(key, []).append(node)
    return [
        SymmetryClass(members=tuple(members), conditions=built[key], conditions_delay=delay)
        for key, members in groups.items()
    ]
