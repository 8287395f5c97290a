"""Symmetry reduction: verify one node per destination-quotient class.

An all-pairs benchmark bakes each node's own ``dest == k`` constants into its
interface, yet on a fattree its nodes prove the *same* theorem up to a
renaming of the destination index.  Every mode builds a node in its own
destination numbering, so isomorphic nodes pose one query, which the
incremental solver's answer memo answers once.  This module partitions such
networks into equivalence classes so ``symmetry="classes"`` discharges one
*representative* per class and propagates a passing verdict to the rest.

A class is the tuple of its members, representative first, in the order the
nodes were given; it is the engine's only unit of work, and
``symmetry="off"`` is the singleton partition (:func:`singleton_classes`).

**Destination quotient.**  The one partition.  A network that declares a
:class:`~repro.core.annotations.DestinationSymmetry` marker has each node's
conditions built in that node's own destination numbering where the
marker vouches for what they read
(:func:`repro.core.conditions.canonical_node_conditions`), and two nodes
share a class iff those ``(assumptions, goal)`` pairs are the identical
hash-consed ``Term`` objects.  The partition reads the memoised build, so
the checker's build of a representative is a memo hit.  A network without
the marker gets the singleton partition under every mode: nodes whose
conditions are term-identical are already answered once, by the answer
memo, so no partition needs to find them.

Soundness.  Equal keys mean the members' raw conditions are each implied by
the *same* canonical instance (their image under a bijection of the
destination index range, perhaps with precondition components dropped), and
equivalid with it unless the precondition is unsatisfiable: a passing
representative is a passing member.  A failing class propagates nothing:
every member re-discharges its own raw conditions, so each counterexample is
that member's genuine one, and members whose verdicts differ are an error.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import canonical_node_conditions

#: The symmetry modes of :class:`repro.verify.Modular`.
SYMMETRY_MODES = ("off", "classes")


def singleton_classes(nodes: Sequence[str]) -> list[tuple[str, ...]]:
    """The trivial partition: one class per node, in ``nodes`` order."""
    return [(node,) for node in nodes]


def partition_nodes(
    annotated: AnnotatedNetwork, nodes: Sequence[str], delay: int = 0
) -> list[tuple[str, ...]]:
    """Partition ``nodes`` into symmetry classes (deterministic order).

    The destination-permutation quotient when the network declares a
    :class:`~repro.core.annotations.DestinationSymmetry`, otherwise the
    singleton partition.  Classes are returned in first-member order;
    members keep the order of ``nodes``.
    """
    if annotated.destination_symmetry is None:
        return singleton_classes(nodes)
    groups: dict[Hashable, list[str]] = {}
    for node in nodes:
        # Hash-consing makes term_id a process-stable structural fingerprint:
        # equal keys ⟺ the canonical conditions are the same Term objects.
        key = tuple(
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
            for vc in canonical_node_conditions(annotated, node, delay=delay)
        )
        groups.setdefault(key, []).append(node)
    return [tuple(members) for members in groups.values()]
