"""Ghost-state constructions for end-to-end properties (Table 1).

The paper's modular properties are node-local, but many end-to-end
properties become expressible by adding *ghost* fields to routes — extra
record fields that the protocol ignores but transfer functions thread
through.  Table 1 lists the ghost state needed for a selection of standard
properties; this module provides

* :func:`ghost_state_catalog` — the table itself as data (regenerated by the
  ``bench_table1_ghost`` benchmark); and
* worked constructions for three representative rows, each returning an
  annotated network that the test-suite verifies:

  - :func:`reachability_from_destination` — the ``fromw`` bit of Figure 10;
  - :func:`unordered_waypoint_network` — one bit per waypoint on a chain; and
  - :func:`no_transit_network` — a {peer, provider, customer} marking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import AnnotatedNetwork, always_true, finally_, globally, until
from repro.routing.algebra import Network
from repro.routing.simple import build_running_example, option_min_merge
from repro.routing.topology import Edge, Topology
from repro.symbolic import (
    BitVecShape,
    BoolShape,
    EnumType,
    EnumShape,
    OptionShape,
    RecordShape,
    SymOption,
)


@dataclass(frozen=True)
class GhostStateRow:
    """One row of Table 1."""

    property_name: str
    ghost_state: str
    bits_for: Callable[[int, int], int]
    source: str

    def bits(self, node_count: int, edge_count: int) -> int:
        return self.bits_for(node_count, edge_count)


def ghost_state_catalog() -> list[GhostStateRow]:
    """Table 1: ghost state needed for selected example properties."""
    return [
        GhostStateRow(
            "reachability to d", "1 bit to mark routes from d", lambda v, e: 1, "Fogel et al. 2015"
        ),
        GhostStateRow(
            "isolation", "1 bit per isolation domain", lambda v, e: 1, "Beckett et al. 2017"
        ),
        GhostStateRow(
            "ordered waypoint",
            "log2(k) bits for k waypoints",
            lambda v, e: max(1, (v - 1).bit_length()),
            "Kazemian et al. 2013",
        ),
        GhostStateRow(
            "unordered waypoint", "k bits for k waypoints", lambda v, e: v, "Beckett et al. 2017"
        ),
        GhostStateRow(
            "routing loops", "up to |V| bits to track visited nodes", lambda v, e: v,
            "Beckett et al. 2017",
        ),
        GhostStateRow(
            "no-transit", "mark with {peer, prov, cust}", lambda v, e: 2, "Beckett et al. 2016"
        ),
        GhostStateRow(
            "fault tolerance", "up to |E| bits to track failed edges", lambda v, e: e,
            "Beckett et al. 2017",
        ),
        GhostStateRow(
            "bounded path length", "integer length field", lambda v, e: max(1, v.bit_length()),
            "Lopes et al. 2015",
        ),
    ]


# ---------------------------------------------------------------------------
# Worked construction 1: reachability from the destination (Figure 10)
# ---------------------------------------------------------------------------


def reachability_from_destination() -> AnnotatedNetwork:
    """The running example with the ``fromw`` ghost bit (Figure 10).

    Proves that ``e`` eventually receives a route that originated at ``w`` —
    not merely *some* route.
    """
    example = build_running_example("symbolic", with_fromw_ghost=True)
    network = example.network

    interfaces = {
        "n": globally(lambda r: r.is_none | ~r.payload.fromw),
        "w": globally(lambda r: r.is_some & (r.payload.lp == 100) & r.payload.fromw),
        "v": until(1, lambda r: r.is_none, globally(lambda r: r.is_some & r.payload.tag & r.payload.fromw)),
        "d": until(2, lambda r: r.is_none, globally(lambda r: r.is_some & r.payload.tag & r.payload.fromw)),
        "e": finally_(3, globally(lambda r: r.is_some & r.payload.fromw)),
    }
    properties = {
        "n": always_true(),
        "w": always_true(),
        "v": always_true(),
        "d": always_true(),
        "e": finally_(3, globally(lambda r: r.is_some & r.payload.fromw)),
    }
    return AnnotatedNetwork(network, interfaces, properties)


# ---------------------------------------------------------------------------
# Worked construction 2: unordered waypointing on a chain
# ---------------------------------------------------------------------------


def unordered_waypoint_network(waypoints: tuple[str, ...] = ("firewall", "scrubber")) -> AnnotatedNetwork:
    """A chain ``dest – firewall – scrubber – client`` with waypoint ghost bits.

    Every route records which waypoints it has traversed (one boolean ghost
    field per waypoint); the property states that the client's route
    eventually traversed all of them.
    """
    names = ("dest",) + waypoints + ("client",)
    topology = Topology(nodes=names)
    for left, right in zip(names, names[1:]):
        topology.add_undirected_edge(left, right)

    fields: dict[str, object] = {"length": BitVecShape(4)}
    for waypoint in waypoints:
        fields[f"via_{waypoint}"] = BoolShape()
    payload = RecordShape("WaypointRoute", fields)
    route_shape = OptionShape(payload)

    def initial(node: str) -> SymOption:
        if node == "dest":
            return route_shape.some({name: (0 if name == "length" else False) for name in fields})
        return route_shape.none()

    def transfer(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, _target = edge

        def apply(route: SymOption) -> SymOption:
            moved = route.map(lambda p: p.with_fields(length=p.length.saturating_add(1)))
            if source in waypoints:
                moved = moved.map(lambda p: p.with_fields(**{f"via_{source}": True}))
            return moved

        return apply

    def merge(left: SymOption, right: SymOption) -> SymOption:
        return option_min_merge(left, right, lambda a, b: a.length <= b.length)

    network = Network(topology, route_shape, initial, transfer, merge)

    def visited_all(route: SymOption):
        condition = route.is_some
        for waypoint in waypoints:
            condition = condition & route.payload.field(f"via_{waypoint}")
        return condition

    distances = {name: index for index, name in enumerate(names)}
    # Nodes past the i-th waypoint have traversed waypoints 1..i.
    def interface_for(node: str):
        index = distances[node]
        crossed = [w for w in waypoints if distances[w] < index]

        def after(route: SymOption):
            condition = route.is_some & (route.payload.length == index)
            for waypoint in crossed:
                condition = condition & route.payload.field(f"via_{waypoint}")
            return condition

        return until(index, lambda r: r.is_none, globally(after))

    properties = {name: always_true() for name in names}
    properties["client"] = finally_(len(names) - 1, globally(visited_all))
    return AnnotatedNetwork(network, {name: interface_for(name) for name in names}, properties)


# ---------------------------------------------------------------------------
# Worked construction 3: no-transit between providers
# ---------------------------------------------------------------------------

RELATIONSHIP = EnumType("Relationship", ("customer", "peer", "provider"))


def no_transit_network() -> AnnotatedNetwork:
    """Two providers and a customer: the customer must not provide transit.

    Routes carry a ghost relationship marker recording how the route entered
    the customer's network.  The property states that neither provider ever
    receives a route marked as having come from the other provider.
    """
    topology = Topology(nodes=("provider1", "provider2", "customer"))
    topology.add_undirected_edge("provider1", "customer")
    topology.add_undirected_edge("provider2", "customer")

    payload = RecordShape(
        "TransitRoute", {"length": BitVecShape(4), "source": EnumShape(RELATIONSHIP)}
    )
    route_shape = OptionShape(payload)

    def initial(node: str) -> SymOption:
        if node == "customer":
            return route_shape.some({"length": 0, "source": "customer"})
        # A provider's own routes are marked "peer": the "provider" marking is
        # reserved for routes that entered the customer from a provider (and
        # must therefore never be re-exported to the other provider).
        return route_shape.some({"length": 0, "source": "peer"})

    def transfer(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, target = edge

        def apply(route: SymOption) -> SymOption:
            moved = route.map(lambda p: p.with_fields(length=p.length.saturating_add(1)))
            if target == "customer":
                # Routes arriving at the customer from a provider are marked.
                moved = moved.map(lambda p: p.with_fields(source="provider"))
                return moved
            if source == "customer":
                # The customer only exports its own routes (no transit).
                return moved.where(lambda p: p.source == "customer")
            return moved

        return apply

    def merge(left: SymOption, right: SymOption) -> SymOption:
        return option_min_merge(left, right, lambda a, b: a.length <= b.length)

    network = Network(topology, route_shape, initial, transfer, merge)

    def never_transits(route: SymOption):
        return route.is_none | (route.payload.source != "provider")

    interfaces = {
        "customer": always_true(),
        "provider1": globally(never_transits),
        "provider2": globally(never_transits),
    }
    return AnnotatedNetwork(network, interfaces, interfaces)
