"""The fattree benchmark suite of §6: Reach, Len, Vf and Hijack.

Each benchmark builds an annotated fattree network running an (abstracted)
eBGP policy and supplies the interfaces and properties described in the
paper:

========== ==========================================================================
Benchmark  Property
========== ==========================================================================
Reach      every node eventually (by the fattree diameter, 4) has a route
Len        every node eventually has a route of at most 4 hops
Vf         reachability under a valley-freedom policy (no up-down-up paths)
Hijack     every internal node eventually has an internal route for the symbolic
           prefix ``p`` despite an adversarial hijacker attached to the core
========== ==========================================================================

Every benchmark comes in two flavours, following the paper: ``Sp`` (a fixed
destination edge node) and ``Ap`` (*all pairs*: the destination is a symbolic
index ranging over every edge node).  The destination is the only thing the
flavours differ in, so it is one object — :class:`FixedDestination` or
:class:`SymbolicDestination` — and each policy is one function written
against it.  The destination supplies the initial routes, the network
symbolics, the ``Ap`` symmetry marker, ``adj(v)``, and ``until(node, before,
after)``: ``before U^{dist(v)} after(dist(v))``, where the witness time
``dist(v)`` (:meth:`repro.networks.fattree.Fattree.distance_to_destination`)
is a constant for ``Sp`` and an ITE ladder over the symbolic destination for
``Ap``, as described in §6.  The ``Ap`` ladder is built by value: at most
three hop counts per node, the most frequent one as the default and each
other one guarded by the disjunction of its ``dest == k`` atoms.  The default
is sound because every condition assumes the network precondition
``dest < size``, under which it covers exactly its own group.  ``Ap`` builds
every ``dest`` term in the active destination numbering, so each node's
conditions can be built in its own.  :func:`build_fattree` is the one
builder.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.core import (
    AnnotatedNetwork,
    DestinationSymmetry,
    TemporalPredicate,
    always_true,
    finally_,
    globally,
    lift,
    until,
    until_dynamic,
)
from repro.core.numbering import active_numbering
from repro.networks.fattree import Fattree
from repro.routing.algebra import Network, SymbolicVariable
from repro.routing.bgp import (
    BgpPolicy,
    BgpRouteFamily,
    DEFAULT_ADMIN_DISTANCE,
    DEFAULT_LOCAL_PREFERENCE,
    bgp_better,
    bgp_route_family,
)
from repro.routing.simple import option_min_merge
from repro.routing.topology import Edge
from repro.symbolic import BoolShape, SymBV, SymBool, SymOption, any_of, ite_value

#: The fattree diameter: the largest witness time used by the Sp properties.
FATTREE_DIAMETER = 4

#: The community used by the valley-freedom policy to mark "down" moves.
DOWN_COMMUNITY = "down"

#: Name of the hijacker node attached to the core tier.
HIJACKER = "hijacker"

#: Compact route-field widths; the SAT backend is pure Python, so the
#: benchmarks default to narrower fields than a production router would use
#: (see DESIGN.md §5 — widths are parameters, not baked in).
COMPACT_WIDTHS = {
    "prefix_width": 8,
    "ad_width": 4,
    "lp_width": 8,
    "med_width": 4,
    "path_width": 4,
}

POLICIES = ("reach", "length", "valley_freedom", "hijack")


@dataclass
class FattreeBenchmark:
    """A fully-built benchmark instance, ready to check."""

    name: str
    policy: str
    all_pairs: bool
    fattree: Fattree
    family: BgpRouteFamily
    annotated: AnnotatedNetwork
    #: The concrete destination for Sp benchmarks, ``None`` for Ap.
    destination: str | None

    @property
    def network(self) -> Network:
        return self.annotated.network

    @property
    def node_count(self) -> int:
        return self.fattree.node_count + (1 if self.policy == "hijack" else 0)


# ---------------------------------------------------------------------------
# The destination: the one thing Sp and Ap differ in
# ---------------------------------------------------------------------------


class _Destination:
    """What both flavours share: the fattree, the route family, the network."""

    #: The concrete destination edge node, or ``None`` when it is symbolic.
    name: str | None
    symbolics: tuple[SymbolicVariable, ...]

    def __init__(self, fattree: Fattree, family: BgpRouteFamily) -> None:
        self.fattree = fattree
        self.family = family

    def symmetry(self, network: Network, *annotations: dict) -> DestinationSymmetry | None:
        """The destination-symmetry marker (``Ap`` only)."""
        return None

    def network(self, transfer=None, merge=None, initial=None, symbolics=()) -> Network:
        """The network; by default plain eBGP on every edge from this destination."""
        plain = BgpPolicy().apply
        return Network(
            topology=self.fattree.topology,
            route_shape=self.family.route,
            initial_routes=initial or self.initial,
            transfer_functions=transfer or (lambda edge: plain),
            merge=merge or _bgp_option_merge,
            symbolics=self.symbolics + symbolics,
        )


class FixedDestination(_Destination):
    """``Sp``: the destination is the fattree's default edge node.

    Witness times and hence interfaces depend only on a node's role, whether
    it shares the destination's pod and whether it is the destination, so
    nodes of one role pose term-identical queries: the incremental solver
    answers each distinct one once, and the network declares no symmetry.
    """

    def __init__(self, fattree: Fattree, family: BgpRouteFamily) -> None:
        super().__init__(fattree, family)
        self.name = fattree.default_destination()
        self.symbolics = ()
        self._announcement = family.default_announcement()

    def initial(self, node: str) -> SymOption:
        if node == self.name:
            return self.family.route.some(self._announcement)
        return self.family.route.none()

    def until(self, node: str, before: Callable, after: Callable) -> TemporalPredicate:
        distance = self.fattree.distance_to_destination(node, self.name)
        return until(distance, before, after(distance))

    def adjacent(self, node: str) -> SymBool:
        return SymBool.constant(self.fattree.adjacent_to_destination(node, self.name))


class SymbolicDestination(_Destination):
    """``Ap``: the destination is a symbolic index ``dest`` over the edge nodes.

    ``dist(v)`` is built by value.  An edge node is 0 hops from itself, 2
    from the rest of its pod and 4 from other pods; an aggregation node 1
    from its pod and 3 from other pods; a core node 2 from every edge node.
    The ladder's default is the node's most frequent hop count (the larger on
    a tie), and each other count is one case guarded by the ``any_of`` of its
    ``dest == k`` atoms.  Every condition assumes ``dest < size``, and inside
    that range the default covers exactly its own group.  So a core node's
    ``dist`` is the constant 2, and no ladder mentions more than ``pods // 2``
    atoms.  A node's hop counts are grouped when a condition first reads its
    interface.

    Every ``dest`` term (atom, ladder, ``adjacent`` bag, initial route) is
    built in the active destination numbering (:mod:`repro.core.numbering`):
    raw index ``k`` is written ``π[k]``, and each bag lists its atoms in
    ascending ``π`` order.  The network's :class:`DestinationSymmetry` marker
    hands out ``π_v`` (:meth:`_numbering`), in which isomorphic nodes build
    identical terms, and the symmetry layer quotients on term identity.
    """

    name = None

    def __init__(self, fattree: Fattree, family: BgpRouteFamily) -> None:
        super().__init__(fattree, family)
        #: Edge node -> its raw destination index.
        self._positions = {name: k for k, name in enumerate(fattree.edge_nodes)}
        size = len(self._positions)
        # One extra bit so the bound ``size`` itself is representable —
        # otherwise the range constraint would wrap around and become false,
        # making every all-pairs check vacuous.
        self.index = SymBV.fresh(max(1, size.bit_length()), "dest")
        self.symbolics = (SymbolicVariable("dest", self.index, constraint=self.index < size),)
        #: ``dest == i`` for every index ``i``.
        self._atoms = tuple(self.index == position for position in range(size))
        self._pods = {node: fattree.pod_of(node) for node in fattree.nodes}
        #: Node -> ``(default hop count, ((hop count, raw indices), ...))``:
        #: indices, not terms, so the grouping holds for every numbering.
        self._hops: dict[str, tuple[int, tuple[tuple[int, list[int]], ...]]] = {}
        self._present = family.route.some(family.default_announcement())
        self._absent = family.route.none()

    def symmetry(self, network: Network, *annotations: dict) -> DestinationSymmetry:
        """The marker, vouching for ``network`` and the ``annotations`` maps built on it."""
        vouched = [network, *(value for values in annotations for value in values.values())]
        return DestinationSymmetry(
            "dest", len(self._positions), self._numbering, {id(value): value for value in vouched}
        )

    def _numbering(self, node: str) -> list[int]:
        """``π_node``: the node's pod's edge nodes first (itself first), then the other pods."""
        pod = self._pods.get(node)
        order = sorted(self._positions, key=lambda name: (self._pods[name] != pod, name != node))
        numbering = [0] * len(order)
        for position, name in enumerate(order):
            numbering[self._positions[name]] = position
        return numbering

    def _any_of(self, indices: list[int]) -> SymBool:
        """The ``dest == k`` atoms of raw ``indices``, in the active numbering."""
        numbering = active_numbering()
        if numbering is not None:
            indices = sorted(numbering[k] for k in indices)
        return any_of(self._atoms[k] for k in indices)

    def initial(self, node: str) -> SymOption:
        if node not in self._positions:
            return self._absent
        return ite_value(self._any_of([self._positions[node]]), self._present, self._absent)

    def _hop_cases(self, node: str) -> tuple[int, tuple[tuple[int, SymBool], ...]]:
        """``dist(node)`` grouped by value: the default and the guarded cases."""
        grouped = self._hops.get(node)
        if grouped is None:
            groups: dict[int, list[int]] = {}
            for edge_node, k in self._positions.items():
                groups.setdefault(self.fattree.distance_to_destination(node, edge_node), []).append(k)
            default = max(groups, key=lambda hops: (len(groups[hops]), hops))
            grouped = self._hops[node] = (
                default,
                tuple((hops, groups[hops]) for hops in sorted(groups) if hops != default),
            )
        default, cases = grouped
        return default, tuple((hops, self._any_of(indices)) for hops, indices in cases)

    def until(self, node: str, before: Callable, after: Callable) -> TemporalPredicate:
        def distance(time: SymBV) -> SymBV:
            # ``dist(node)`` at the time term's width: at most two ITEs.
            default, cases = self._hop_cases(node)
            ladder = SymBV.constant(default, time.width)
            for hops, guard in reversed(cases):
                ladder = ite_value(guard, SymBV.constant(hops, time.width), ladder)
            return ladder

        later = TemporalPredicate(
            lambda route, time: lift(after(distance(time)))(route, time),
            max_witness=FATTREE_DIAMETER,
        )
        return until_dynamic(distance, before, later, max_witness=FATTREE_DIAMETER)

    def adjacent(self, node: str) -> SymBool:
        return self._any_of(
            [
                k
                for edge_node, k in self._positions.items()
                if self.fattree.adjacent_to_destination(node, edge_node)
            ]
        )


def _path_length(path_length: SymBV, distance: int | SymBV, compare: Callable) -> SymBool:
    """``compare(path_length, distance)``, by cases when the distance is a
    symbolic ladder of another width (its value is at most the diameter)."""
    if isinstance(distance, int) or path_length.width == distance.width:
        return compare(path_length, distance)
    result = SymBool.false()
    for value in range(FATTREE_DIAMETER + 1):
        result = result | ((distance == value) & compare(path_length, value))
    return result


# ---------------------------------------------------------------------------
# Shared policy parts
# ---------------------------------------------------------------------------


def _bgp_option_merge(left: SymOption, right: SymOption) -> SymOption:
    return option_min_merge(left, right, bgp_better)


def _anything(route: SymOption) -> SymBool:
    return SymBool.true()


def _has_route(route: SymOption) -> SymBool:
    return route.is_some


def _everywhere(fattree: Fattree, predicate: TemporalPredicate) -> dict[str, TemporalPredicate]:
    return {node: predicate for node in fattree.nodes}


def inject_interface_failure(
    annotated: AnnotatedNetwork, node: str | None = None
) -> tuple[AnnotatedNetwork, str]:
    """A copy of ``annotated`` with one node's interface made unsatisfiable.

    The failure-injection recipe of the delta tests and the spine's edit
    stream: ``node`` (default: the middle node of the selection order)
    claims it never has a route, so its inductive
    condition — and typically its successors' — must fail.  Returns the
    poisoned network and the chosen node.
    """
    poisoned = node if node is not None else annotated.nodes[len(annotated.nodes) // 2]
    return annotated.with_interface(poisoned, globally(lambda r: r.is_none)), poisoned


# ---------------------------------------------------------------------------
# The policies: one function each, written against the destination
# ---------------------------------------------------------------------------


def _reach(fattree: Fattree, place: type[_Destination], widths: dict[str, int]) -> tuple:
    """Reach: plain shortest-path-style eBGP, reachability."""
    family = bgp_route_family(**widths)
    destination = place(fattree, family)
    network = destination.network()
    interfaces = {
        node: destination.until(node, _anything, lambda distance: globally(_has_route))
        for node in fattree.nodes
    }
    properties = _everywhere(fattree, finally_(FATTREE_DIAMETER, globally(_has_route)))
    return destination, network, interfaces, properties


def _length(fattree: Fattree, place: type[_Destination], widths: dict[str, int]) -> tuple:
    """Len: bounded path length to the destination."""
    family = bgp_route_family(**widths)
    destination = place(fattree, family)
    network = destination.network()

    def no_better_routes(route: SymOption) -> SymBool:
        payload = route.payload
        return route.is_none | (
            (payload.lp == DEFAULT_LOCAL_PREFERENCE) & (payload.ad == DEFAULT_ADMIN_DISTANCE)
        )

    def length_at_most(bound: int | SymBV) -> TemporalPredicate:
        return globally(
            lambda route: route.is_some
            & _path_length(route.payload.as_path_length, bound, operator.le)
        )

    interfaces = {
        node: globally(no_better_routes).intersect(destination.until(node, _anything, length_at_most))
        for node in fattree.nodes
    }
    properties = _everywhere(fattree, finally_(FATTREE_DIAMETER, length_at_most(FATTREE_DIAMETER)))
    return destination, network, interfaces, properties


def _valley_freedom(fattree: Fattree, place: type[_Destination], widths: dict[str, int]) -> tuple:
    """Vf: reachability under a valley-freedom tagging policy."""
    family = bgp_route_family(communities=(DOWN_COMMUNITY,), **widths)
    destination = place(fattree, family)
    # One callable per edge kind, so nodes whose in-edges match share a merge fold.
    down = BgpPolicy(add_communities=(DOWN_COMMUNITY,)).apply
    up = BgpPolicy(deny_communities=(DOWN_COMMUNITY,)).apply
    plain = BgpPolicy().apply

    def transfer_for(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, target = edge
        if fattree.is_down_edge(source, target):
            return down
        if fattree.is_up_edge(source, target):
            return up
        return plain

    network = destination.network(transfer_for)

    def interface(node: str) -> TemporalPredicate:
        def stable(distance: int | SymBV) -> TemporalPredicate:
            def predicate(route: SymOption) -> SymBool:
                payload = route.payload
                clean = ~payload.communities.contains(DOWN_COMMUNITY)
                # Read when applied: ``Ap`` builds it in the active numbering.
                adjacent = destination.adjacent(node)
                return (
                    route.is_some
                    & (payload.lp == DEFAULT_LOCAL_PREFERENCE)
                    & (payload.ad == DEFAULT_ADMIN_DISTANCE)
                    & _path_length(payload.as_path_length, distance, operator.eq)
                    & (adjacent.implies(clean))
                )

            return globally(predicate)

        return destination.until(node, lambda route: route.is_none, stable)

    interfaces = {node: interface(node) for node in fattree.nodes}
    properties = _everywhere(fattree, finally_(FATTREE_DIAMETER, globally(_has_route)))
    return destination, network, interfaces, properties


def _hijack(fattree: Fattree, place: type[_Destination], widths: dict[str, int]) -> tuple:
    """Hijack: route filtering against an adversarial peer.

    A ``hijacker`` node is attached to every core switch and may announce any
    route (its initial route is symbolic, marked with the ``external`` ghost
    bit).  The destination announces the symbolic prefix ``p``; core switches
    drop routes for ``p`` learned from the hijacker.  The property states that
    every internal node eventually holds a route for ``p`` that is not via the
    hijacker.
    """
    family = bgp_route_family(ghost_fields={"external": BoolShape()}, **widths)
    for core in fattree.core_nodes:
        fattree.topology.add_undirected_edge(HIJACKER, core)

    internal_prefix = SymBV.fresh(widths["prefix_width"], "prefix")
    hijacker_route = family.route.fresh("hijack_announcement")
    symbolics = (
        SymbolicVariable(name="prefix", value=internal_prefix),
        SymbolicVariable(
            name="hijack_announcement",
            value=hijacker_route,
            constraint=family.route.constraint(hijacker_route)
            & (hijacker_route.is_none | hijacker_route.payload.external),
        ),
    )
    # Created after the hijack symbolics, so fresh names keep their order.
    destination = place(fattree, family)

    plain = BgpPolicy().apply
    # Core switches filter hijacker routes for the internal prefix.
    filtered = BgpPolicy(guard=lambda payload: payload.prefix != internal_prefix).apply

    def transfer_for(edge: Edge) -> Callable[[SymOption], SymOption]:
        return filtered if edge[0] == HIJACKER else plain

    def merge(left: SymOption, right: SymOption) -> SymOption:
        # Routes for the internal prefix win over routes for other prefixes
        # (the per-prefix RIB abstraction), then the usual decision process.
        def better(a: Any, b: Any) -> SymBool:
            a_internal = a.prefix == internal_prefix
            b_internal = b.prefix == internal_prefix
            return (a_internal & ~b_internal) | ((a_internal == b_internal) & bgp_better(a, b))

        return option_min_merge(left, right, better)

    def initial(node: str) -> SymOption:
        if node == HIJACKER:
            return hijacker_route
        # The destination advertises the symbolic prefix p.
        return destination.initial(node).map(lambda payload: payload.with_fields(prefix=internal_prefix))

    def internal_route(route: SymOption) -> SymBool:
        return route.is_some & (route.payload.prefix == internal_prefix) & ~route.payload.external

    def no_hijack(route: SymOption) -> SymBool:
        return route.is_none | (route.payload.prefix == internal_prefix).implies(
            ~route.payload.external
        )

    network = destination.network(transfer_for, merge, initial, symbolics)
    interfaces = {
        node: destination.until(node, _anything, lambda distance: globally(internal_route)).intersect(
            globally(no_hijack)
        )
        for node in fattree.nodes
    }
    interfaces[HIJACKER] = always_true()
    properties = _everywhere(fattree, finally_(FATTREE_DIAMETER, globally(internal_route)))
    properties[HIJACKER] = always_true()
    return destination, network, interfaces, properties


#: Policy name -> (benchmark title, policy function), in :data:`POLICIES` order.
_POLICIES = {
    "reach": ("Reach", _reach),
    "length": ("Len", _length),
    "valley_freedom": ("Vf", _valley_freedom),
    "hijack": ("Hijack", _hijack),
}


def build_fattree(
    policy: str, pods: int, all_pairs: bool = False, widths: dict[str, int] | None = None
) -> FattreeBenchmark:
    """One fattree benchmark: ``policy`` on a ``pods``-pod fattree, ``Ap`` if ``all_pairs``."""
    title, build = _POLICIES[policy]
    place = SymbolicDestination if all_pairs else FixedDestination
    destination, network, interfaces, properties = build(
        Fattree(pods), place, dict(widths or COMPACT_WIDTHS)
    )
    return FattreeBenchmark(
        ("Ap" if all_pairs else "Sp") + title,
        policy,
        all_pairs,
        destination.fattree,
        destination.family,
        AnnotatedNetwork(
            network,
            interfaces,
            properties,
            destination_symmetry=destination.symmetry(network, interfaces, properties),
        ),
        destination.name,
    )
