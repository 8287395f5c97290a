"""Annotated networks: a network instance plus interfaces ``A`` and properties ``P``.

The user of Timepiece supplies, for every node, a temporal interface (the
inductive invariant to check) and a temporal property (the fact the
interfaces are supposed to imply).  The :class:`AnnotatedNetwork` bundles the
three together, validates coverage, and computes the bitvector width needed
for the logical-time variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.errors import VerificationError
from repro.routing.algebra import Network
from repro.core.temporal import TemporalLike, TemporalPredicate, always_true, lift

#: Anything accepted as a per-node annotation map.
AnnotationMap = Mapping[str, TemporalLike] | Callable[[str], TemporalLike]

#: A symmetry hint: maps a node to a hashable equivalence-class key, or
#: ``None`` to make the node a singleton class.  See :mod:`repro.core.symmetry`.
SymmetryKey = Callable[[str], Hashable | None]


@dataclass(frozen=True)
class DestinationSymmetry:
    """Declares that a network is symmetric under destination-index permutation.

    All-pairs benchmarks introduce a symbolic destination index that appears
    in conditions only through equalities against concrete index constants
    (``dest == k``) and the range constraint ``dest < size``.  A builder that
    knows this attaches a marker so :mod:`repro.core.symmetry` may quotient
    nodes up to a simultaneous permutation of those constants.

    ``variable`` is the symbolic variable's name, ``size`` the number of
    valid destination indices (the permutation acts on ``0..size-1``).
    """

    variable: str
    size: int


class AnnotatedNetwork:
    """A network together with its node interfaces and node properties.

    ``symmetry_key`` optionally names each node's symmetry class (builders
    that know their topology — e.g. fattree benchmarks — attach one so the
    symmetry-aware checker can skip the generic canonical-form hashing).
    ``destination_symmetry`` optionally declares invariance under
    destination-index permutation (all-pairs benchmarks), letting the
    symmetry layer quotient nodes whose conditions differ only in which
    concrete destination constants they mention.
    """

    def __init__(
        self,
        network: Network,
        interfaces: AnnotationMap,
        properties: AnnotationMap,
        minimum_time_width: int = 2,
        symmetry_key: SymmetryKey | None = None,
        destination_symmetry: DestinationSymmetry | None = None,
    ) -> None:
        self.network = network
        self._interfaces = self._materialise(interfaces, "interface")
        self._properties = self._materialise(properties, "property")
        # The annotation maps are never mutated after this point (the edit
        # helpers build new instances), so the scan happens once, not once
        # per condition.
        self._max_witness_time = max(
            (
                predicate.max_witness
                for annotations in (self._interfaces, self._properties)
                for predicate in annotations.values()
            ),
            default=0,
        )
        self.minimum_time_width = minimum_time_width
        self.symmetry_key = symmetry_key
        self.destination_symmetry = destination_symmetry

    # -- construction helpers -----------------------------------------------------

    def _materialise(
        self, annotations: AnnotationMap, kind: str
    ) -> dict[str, TemporalPredicate]:
        nodes = self.network.topology.nodes
        result: dict[str, TemporalPredicate] = {}
        if callable(annotations):
            for node in nodes:
                result[node] = lift(annotations(node))
            return result
        # Sorted so the message is deterministic regardless of topology or
        # dict iteration order — error text is asserted on in tests and
        # diffed across runs in CI logs.
        missing = sorted(node for node in nodes if node not in annotations)
        if missing:
            names = ", ".join(repr(node) for node in missing)
            raise VerificationError(
                f"missing {kind} annotation for {len(missing)} node(s): {names}"
            )
        unknown = sorted(node for node in annotations if node not in nodes)
        if unknown:
            names = ", ".join(repr(node) for node in unknown)
            raise VerificationError(
                f"{kind} annotation given for {len(unknown)} unknown node(s): {names}"
            )
        for node in nodes:
            result[node] = lift(annotations[node])
        return result

    # -- accessors ------------------------------------------------------------------

    def interface(self, node: str) -> TemporalPredicate:
        """The interface ``A(node)``."""
        try:
            return self._interfaces[node]
        except KeyError:
            raise VerificationError(f"unknown node {node!r}") from None

    def node_property(self, node: str) -> TemporalPredicate:
        """The property ``P(node)``."""
        try:
            return self._properties[node]
        except KeyError:
            raise VerificationError(f"unknown node {node!r}") from None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.network.topology.nodes

    def max_witness_time(self) -> int:
        """The largest witness time mentioned by any interface or property."""
        return self._max_witness_time

    def time_width(self, delay: int = 0) -> int:
        """Bits needed for the symbolic time variable.

        The width is chosen so that ``max_witness + delay + 1`` is representable
        without overflow; since every annotation is constant beyond its largest
        witness, restricting ``t`` to this range is sound and complete.
        """
        needed = self.max_witness_time() + delay + 2
        width = max(self.minimum_time_width, needed.bit_length())
        return width

    def with_property_as_interface(self) -> "AnnotatedNetwork":
        """Use each node's property as its interface (the §4 starting heuristic)."""
        return AnnotatedNetwork(
            self.network,
            interfaces=dict(self._properties),
            properties=dict(self._properties),
            minimum_time_width=self.minimum_time_width,
            symmetry_key=self.symmetry_key,
            destination_symmetry=self.destination_symmetry,
        )

    def with_interface(self, node: str, interface: TemporalLike) -> "AnnotatedNetwork":
        """A copy with ``node``'s interface replaced: the one edit helper.

        Both symmetry markers are dropped.  They describe the annotations the
        builder wrote; a kept role hint would file the edited node under its
        old class and never build its own conditions.
        """
        interfaces = dict(self._interfaces)
        interfaces[node] = interface
        return AnnotatedNetwork(
            self.network,
            interfaces,
            dict(self._properties),
            minimum_time_width=self.minimum_time_width,
        )

    def __repr__(self) -> str:
        return (
            f"AnnotatedNetwork(nodes={self.network.topology.node_count}, "
            f"max_witness={self.max_witness_time()})"
        )


def annotate(
    network: Network,
    interfaces: AnnotationMap,
    properties: AnnotationMap | None = None,
) -> AnnotatedNetwork:
    """Convenience constructor.

    When ``properties`` is omitted, every node's property defaults to
    ``G(true)`` — useful while interfaces are still being designed.
    """
    if properties is None:
        properties = {node: always_true() for node in network.topology.nodes}
    return AnnotatedNetwork(network, interfaces, properties)
