"""Symmetry reduction: verify one node per equivalence class, reuse the rest.

On a ``k``-fattree the modular checker discharges ``1.25·k²`` structurally
identical batches of verification conditions: every edge switch of a
non-destination pod (and every aggregation switch, and every core switch)
proves the *same* theorem up to node renaming.  This module computes node
equivalence classes so :func:`repro.core.checker.check_class` can discharge
the conditions of one *representative* per class and propagate the verdict to
the remaining members — cutting the dominant cost from O(k²) condition
batches to O(1) per tier.

The class is the engine's only unit of work: ``symmetry="off"`` is the
singleton partition (:func:`singleton_classes`), whose classes keep the
per-node ``"sender"`` route naming so each discharges exactly the queries a
plain per-node check would.

Two partitioning strategies, in order of preference:

* **Metadata hints.**  An :class:`~repro.core.annotations.AnnotatedNetwork`
  may carry a ``symmetry_key`` function (attached by benchmark builders that
  know their topology — e.g. fattree role/pod/index metadata via
  :func:`repro.networks.fattree.fattree_symmetry_key`).  Nodes with equal
  keys form a class without building a single condition; a ``None`` key
  makes the node a singleton.  Hints are trusted for speed — guard them with
  ``symmetry="spot-check"``, which re-verifies a deterministically chosen
  extra member per class, or rely on the in-degree sanity check below.

* **Canonical-form hashing.**  For arbitrary topologies (WAN, ghost-state
  networks) each node's conditions are built with *class-canonical* naming
  (``naming="class"`` in :mod:`repro.core.conditions`): query routes are
  named by predecessor position, erasing node identity.  Because terms are
  hash-consed process-wide, two nodes belong to the same class **iff** their
  canonicalized ``(assumptions, goal)`` pairs are the identical ``Term``
  objects — so verdict propagation is sound by construction (the members
  discharge literally the same query).  Networks with no symmetry cleanly
  degrade to singleton classes, i.e. per-node checking.

* **Destination quotient.**  All-pairs networks additionally declare a
  :class:`~repro.core.annotations.DestinationSymmetry` marker; class-named
  conditions are then canonicalized *up to simultaneous destination-index
  permutation* (:func:`repro.core.conditions.canonical_node_conditions`)
  before hashing, so two edge nodes that differ only in *which* destination
  constants their conditions mention share one class.  Each class records a
  :class:`DestinationQuotient` with the per-member slot witnesses; verdicts
  still propagate as term-identity of the canonical forms, and
  counterexamples re-concretize the destination through the slot
  permutation (:func:`destination_permutation`).

Soundness.  Under canonical hashing, equal keys mean equal terms, so the
representative's verdict *is* every member's verdict.  Under the destination
quotient, equal keys mean the members' raw conditions are each equivalid
with the *same* canonical instance (they are its images under bijections of
the destination index that preserve the range constraint), hence equivalid
with each other.  Under metadata hints, soundness rests on the hint being a
refinement of true condition isomorphism; ``partition_nodes`` cross-checks
in-degrees (a cheap necessary condition) and ``spot-check`` mode samples the
rest.  Counterexamples found at a representative are translated to each
member by the positional neighbour correspondence
(``member.predecessors[i] ↔ representative.predecessors[i]``), composed —
for destination-quotient classes — with the member's destination
re-concretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    VerificationCondition,
    canonical_node_conditions,
    node_conditions,
)
from repro.core.counterexample import Counterexample, reindex_destination
from repro.errors import VerificationError

#: The symmetry modes of :class:`repro.verify.Modular`.
SYMMETRY_MODES = ("off", "classes", "spot-check")


@dataclass(frozen=True)
class DestinationQuotient:
    """How a destination-quotient class maps canonical slots back to members.

    ``witnesses[node][i]`` is the concrete destination constant that
    canonical permutation slot ``i`` abstracts in ``node``'s raw conditions.
    ``variable`` names the symbolic destination variable and ``size`` the
    number of valid indices (the permutations act on ``0..size-1``).
    """

    variable: str
    size: int
    witnesses: dict[str, tuple[int, ...]]

    def permutation(self, representative: str, member: str) -> dict[int, int]:
        """The index map re-concretizing the representative's destination for ``member``."""
        return destination_permutation(
            self.witnesses[representative], self.witnesses[member], self.size
        )


def destination_permutation(
    source_witness: Sequence[int], target_witness: Sequence[int], size: int
) -> dict[int, int]:
    """The total map on ``[0, size)`` sending source constants to target constants.

    Slot ``i``'s source constant maps to slot ``i``'s target constant; the
    remaining indices map across in ascending order (any range-preserving
    extension works — the unmatched indices never appear in either node's
    conditions — but a canonical choice keeps translated counterexamples
    deterministic).  This is π_target ∘ π_source⁻¹ restricted to the range.
    """
    if len(source_witness) != len(target_witness):
        raise VerificationError(
            f"destination witnesses disagree in length ({len(source_witness)} vs "
            f"{len(target_witness)}); the symmetry class is invalid"
        )
    mapping = dict(zip(source_witness, target_witness))
    rest_source = sorted(set(range(size)) - set(source_witness))
    rest_target = sorted(set(range(size)) - set(target_witness))
    mapping.update(zip(rest_source, rest_target))
    return mapping


@dataclass
class SymmetryClass:
    """One equivalence class of nodes with isomorphic verification conditions.

    ``members`` is ordered deterministically (the order the nodes were given
    to :func:`partition_nodes`); the first member is the representative whose
    conditions are actually discharged.  ``conditions`` caches the
    representative's canonically-named conditions when the generic hashing
    path already built them (``None`` under metadata hints, where conditions
    are built lazily at check time).  ``spot_member`` names the extra member
    re-verified in ``spot-check`` mode (chosen up front by the checker so the
    selection is reproducible and independent of parallel scheduling).
    ``naming`` is the route-naming scheme the class's conditions are built
    with: ``"class"`` for every partition that merges nodes, ``"sender"`` for
    the singleton partition.
    """

    key: Hashable
    members: tuple[str, ...]
    conditions: tuple[VerificationCondition, ...] | None = None
    #: The ``delay`` the cached conditions were built with; the checker
    #: rebuilds them when asked to check under a different delay.
    conditions_delay: int = 0
    spot_member: str | None = field(default=None, compare=False)
    #: Set when the class was formed up to destination-index permutation:
    #: the cached ``conditions`` are the *canonical* instance and verdicts
    #: re-concretize through the quotient's per-member witnesses.
    destination: DestinationQuotient | None = None
    naming: str = "class"

    @property
    def representative(self) -> str:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


def singleton_classes(nodes: Sequence[str]) -> list[SymmetryClass]:
    """The trivial partition: one sender-named class per node, in ``nodes`` order."""
    return [
        SymmetryClass(key=("singleton", node), members=(node,), naming="sender")
        for node in nodes
    ]


def partition_nodes(
    annotated: AnnotatedNetwork,
    nodes: Sequence[str],
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
) -> list[SymmetryClass]:
    """Partition ``nodes`` into symmetry classes (deterministic order).

    Uses the destination-permutation quotient when the network declares a
    :class:`~repro.core.annotations.DestinationSymmetry`, else the annotated
    network's ``symmetry_key`` hint when present, otherwise the generic
    canonical-form hash.  Classes are returned in first-member order;
    members keep the order of ``nodes``.
    """
    if annotated.destination_symmetry is not None:
        return _partition_by_destination_quotient(
            annotated, nodes, delay=delay, conditions=conditions
        )
    if annotated.symmetry_key is not None:
        return _partition_by_hint(annotated, nodes)
    return _partition_by_canonical_hash(annotated, nodes, delay=delay, conditions=conditions)


def _partition_by_hint(annotated: AnnotatedNetwork, nodes: Sequence[str]) -> list[SymmetryClass]:
    key_of = annotated.symmetry_key
    assert key_of is not None
    groups: dict[Hashable, list[str]] = {}
    for node in nodes:
        key = key_of(node)
        if key is None:
            # Unhinted nodes are singletons; the wrapper keeps the key unique
            # and distinguishable from any real hint value.
            key = ("singleton", node)
        groups.setdefault(key, []).append(node)
    classes = [SymmetryClass(key=key, members=tuple(members)) for key, members in groups.items()]
    _check_in_degrees(annotated, classes)
    return classes


def _check_in_degrees(annotated: AnnotatedNetwork, classes: list[SymmetryClass]) -> None:
    """Reject hint partitions that are structurally impossible.

    Equal in-degree is a cheap *necessary* condition for two nodes'
    conditions to be isomorphic (the inductive condition draws one route per
    in-neighbour); a violation means the hint function is wrong and silent
    verdict propagation would be unsound.
    """
    topology = annotated.network.topology
    for cls in classes:
        degrees = {topology.in_degree(member) for member in cls.members}
        if len(degrees) > 1:
            raise VerificationError(
                f"symmetry hint groups nodes with different in-degrees "
                f"{sorted(degrees)} into one class {cls.members}; "
                "the hint function is not a valid symmetry"
            )


def _partition_by_canonical_hash(
    annotated: AnnotatedNetwork,
    nodes: Sequence[str],
    delay: int,
    conditions: Sequence[str],
) -> list[SymmetryClass]:
    requested = set(conditions)
    groups: dict[Hashable, list[str]] = {}
    built: dict[Hashable, tuple[VerificationCondition, ...]] = {}
    for node in nodes:
        node_vcs = tuple(node_conditions(annotated, node, delay=delay, naming="class"))
        # Hash-consing makes term_id a process-stable structural fingerprint:
        # equal keys ⟺ the canonicalized conditions are the same Term objects.
        key = tuple(
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
            for vc in node_vcs
            if vc.kind in requested
        )
        if key not in groups:
            built[key] = node_vcs
        groups.setdefault(key, []).append(node)
    return [
        SymmetryClass(
            key=key, members=tuple(members), conditions=built[key], conditions_delay=delay
        )
        for key, members in groups.items()
    ]


def _partition_by_destination_quotient(
    annotated: AnnotatedNetwork,
    nodes: Sequence[str],
    delay: int,
    conditions: Sequence[str],
) -> list[SymmetryClass]:
    """Canonical-form hashing up to destination-index permutation.

    Like :func:`_partition_by_canonical_hash`, but the hashed conditions are
    the destination-canonicalized ones.  An eligibility flag keeps nodes
    whose conditions fell back to their raw form (destination used outside
    the eligible atom shapes) from ever sharing a class with canonicalized
    ones — equal raw terms still merge, which is the plain hash quotient.
    """
    marker = annotated.destination_symmetry
    assert marker is not None
    requested = set(conditions)
    groups: dict[Hashable, list[str]] = {}
    built: dict[Hashable, tuple[VerificationCondition, ...]] = {}
    witnesses: dict[Hashable, dict[str, tuple[int, ...]]] = {}
    for node in nodes:
        node_vcs, witness = canonical_node_conditions(annotated, node, delay=delay)
        key = (witness is not None,) + tuple(
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
            for vc in node_vcs
            if vc.kind in requested
        )
        if key not in groups:
            built[key] = tuple(node_vcs)
        groups.setdefault(key, []).append(node)
        if witness is not None:
            witnesses.setdefault(key, {})[node] = witness
    return [
        SymmetryClass(
            key=key,
            members=tuple(members),
            conditions=built[key],
            conditions_delay=delay,
            destination=(
                DestinationQuotient(
                    variable=marker.variable, size=marker.size, witnesses=witnesses[key]
                )
                if key in witnesses
                else None
            ),
        )
        for key, members in groups.items()
    ]


def translate_counterexample(
    example: Counterexample,
    member: str,
    representative_predecessors: Sequence[str],
    member_predecessors: Sequence[str],
    destination: tuple[str, dict[int, int]] | None = None,
) -> Counterexample:
    """Rename a representative's counterexample for a class member.

    The symmetry is the positional correspondence between predecessor lists,
    so the route sent by the representative's ``i``-th neighbour becomes the
    route sent by the member's ``i``-th neighbour; times, the node's own
    route and the network's symbolic values carry over unchanged.  For
    destination-quotient classes, ``destination`` supplies the variable name
    and index map (:meth:`DestinationQuotient.permutation`) re-concretizing
    the destination value for the member.
    """
    if len(representative_predecessors) != len(member_predecessors):
        raise VerificationError(
            f"cannot translate counterexample from a node with "
            f"{len(representative_predecessors)} predecessors to {member!r} with "
            f"{len(member_predecessors)}; the symmetry class is invalid"
        )
    rename = dict(zip(representative_predecessors, member_predecessors))
    translated = Counterexample(
        node=member,
        condition=example.condition,
        time=example.time,
        neighbor_routes={
            rename.get(neighbor, neighbor): route
            for neighbor, route in example.neighbor_routes.items()
        },
        route=example.route,
        symbolics=example.symbolics,
    )
    if destination is not None:
        variable, mapping = destination
        translated = reindex_destination(translated, variable, mapping)
    return translated
