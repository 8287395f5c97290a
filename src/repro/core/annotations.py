"""Annotated networks: a network instance plus interfaces ``A`` and properties ``P``.

The user of Timepiece supplies, for every node, a temporal interface (the
inductive invariant to check) and a temporal property (the fact the
interfaces are supposed to imply).  The :class:`AnnotatedNetwork` bundles the
three together, validates coverage, and computes the bitvector width needed
for the logical-time variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import VerificationError
from repro.routing.algebra import Network
from repro.core.temporal import TemporalLike, TemporalPredicate, always_true, lift

#: Anything accepted as a per-node annotation map.
AnnotationMap = Mapping[str, TemporalLike] | Callable[[str], TemporalLike]

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
    ``order`` maps a node to its numbering ``π_v`` (raw index ``k`` ↦
    ``π_v[k]``), the one its canonical conditions are built in (see
    :mod:`repro.core.numbering`).  ``vouched`` maps ``id`` to each object
    (the network, annotations) that the builder wrote to read ``dest`` only
    through atoms built in the active numbering: a numbered build renames
    nothing else, so it is sound only for a node that reads vouched objects
    alone (:meth:`AnnotatedNetwork.destination_numbering`).  ``order`` and
    ``vouched`` are how the builder numbers, not what it declares, so
    markers compare on ``variable`` and ``size`` alone.
    """

    variable: str
    size: int
    order: Callable[[str], Sequence[int]] = field(compare=False)
    vouched: Mapping[int, object] = field(default_factory=dict, compare=False, repr=False)

    def numbering(self, node: str) -> tuple[int, ...]:
        """``π_node``, checked to be a permutation of ``range(size)``."""
        numbering = tuple(self.order(node))
        if sorted(numbering) != list(range(self.size)):
            raise VerificationError(
                f"destination numbering of {node!r} is not a permutation of "
                f"range({self.size}): {numbering}"
            )
        return numbering


class AnnotatedNetwork:
    """A network together with its node interfaces and node properties.

    ``destination_symmetry`` optionally declares invariance under
    destination-index permutation (all-pairs benchmarks), letting the
    symmetry layer quotient nodes whose conditions differ only in which
    concrete destination constants they mention.  It is the only symmetry
    an annotated network declares; class membership is then decided by term
    identity of the conditions each node builds in its own numbering
    (:meth:`destination_numbering`).
    """

    def __init__(
        self,
        network: Network,
        interfaces: AnnotationMap,
        properties: AnnotationMap,
        minimum_time_width: int = 2,
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

    def destination_numbering(self, node: str) -> tuple[int, ...] | None:
        """``π_node`` if the marker vouches for the network and every annotation
        ``node``'s conditions read (its own two, its predecessors' interfaces);
        otherwise ``None``, the network's own numbering."""
        marker = self.destination_symmetry
        if marker is None:
            return None
        read: list[object] = [self.network, self.interface(node), self.node_property(node)]
        read += map(self.interface, self.network.topology.predecessors(node))
        if any(marker.vouched.get(id(value)) is not value for value in read):
            return None
        return marker.numbering(node)

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
            destination_symmetry=self.destination_symmetry,
        )

    def with_interface(self, node: str, interface: TemporalLike) -> "AnnotatedNetwork":
        """A copy with ``node``'s interface replaced: the one edit helper.

        The destination-symmetry marker is dropped: it describes the
        annotations the builder wrote, not the edited ones.
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
