"""Simple routing algebras, including the paper's §2 running example.

This module provides three small algebras that are used throughout the test
suite, the examples and the documentation:

* :func:`reachability_network` — routes are optional booleans ("do I have a
  path?"), merge is "prefer having a route";
* :func:`shortest_path_network` — routes are optional hop counts, merge picks
  the smaller count; and
* :func:`build_running_example` — the idealized cloud-provider network of
  Figure 2 (nodes ``n``, ``w``, ``v``, ``d``, ``e`` with the *filter*, *tag*
  and *allow* policies), with routes carrying local preference, path length
  and an "internal" tag, optionally extended with the ``fromw`` ghost bit of
  Figure 10 and with a symbolic external announcement at ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RoutingError
from repro.routing.algebra import Network, SymbolicVariable
from repro.routing.topology import Edge, Topology
from repro.symbolic import (
    BitVecShape,
    BoolShape,
    OptionShape,
    RecordShape,
    SymOption,
    all_of,
    ite_value,
)

# Default local-preference constants used by the running example.
DEFAULT_LOCAL_PREFERENCE = 100


def option_min_merge(left: SymOption, right: SymOption, better: Callable[[Any, Any], Any]) -> SymOption:
    """Merge two optional routes, preferring presence, then ``better`` payloads.

    ``better(a, b)`` must return a :class:`SymBool` that holds when payload
    ``a`` should be chosen over payload ``b``.
    """
    choose_left = left.is_some & (right.is_none | better(left.payload, right.payload))
    return ite_value(choose_left, left, ite_value(right.is_some, right, left))


# ---------------------------------------------------------------------------
# Boolean reachability and hop-count algebras
# ---------------------------------------------------------------------------


def reachability_network(topology: Topology, destination: str) -> Network:
    """Routes are optional unit values: "present" means "I can reach dest"."""
    if destination not in topology:
        raise RoutingError(f"destination {destination!r} is not in the topology")
    route_shape = OptionShape(BoolShape())

    def initial(node: str) -> SymOption:
        return route_shape.some(True) if node == destination else route_shape.none()

    def transfer(edge: Edge) -> Callable[[SymOption], SymOption]:
        def apply(route: SymOption) -> SymOption:
            return route
        return apply

    def merge(left: SymOption, right: SymOption) -> SymOption:
        return ite_value(left.is_some, left, right)

    return Network(topology, route_shape, initial, transfer, merge)


def shortest_path_network(topology: Topology, destination: str, width: int = 8) -> Network:
    """Routes are optional hop counts; transfer adds one; merge keeps the minimum."""
    if destination not in topology:
        raise RoutingError(f"destination {destination!r} is not in the topology")
    route_shape = OptionShape(BitVecShape(width))

    def initial(node: str) -> SymOption:
        return route_shape.some(0) if node == destination else route_shape.none()

    def transfer(edge: Edge) -> Callable[[SymOption], SymOption]:
        def apply(route: SymOption) -> SymOption:
            return route.map(lambda hops: hops.saturating_add(1))
        return apply

    def merge(left: SymOption, right: SymOption) -> SymOption:
        return option_min_merge(left, right, lambda a, b: a <= b)

    return Network(topology, route_shape, initial, transfer, merge)


# ---------------------------------------------------------------------------
# The §2 running example (Figure 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunningExample:
    """The Figure 2 network plus handles that tests and examples need."""

    network: Network
    route_shape: OptionShape
    payload_shape: RecordShape
    #: The symbolic external announcement at ``n`` (``None`` for closed networks).
    external_route: SymOption | None


def running_example_route_shape(
    lp_width: int = 8,
    len_width: int = 8,
    with_fromw_ghost: bool = False,
) -> tuple[OptionShape, RecordShape]:
    """The route shape of the running example: ``⟨lp, len, tag⟩`` (+ ghost)."""
    fields: dict[str, Any] = {
        "lp": BitVecShape(lp_width),
        "len": BitVecShape(len_width),
        "tag": BoolShape(),
    }
    if with_fromw_ghost:
        fields["fromw"] = BoolShape()
    payload = RecordShape("ExampleRoute", fields)
    return OptionShape(payload), payload


def running_example_merge(left: SymOption, right: SymOption) -> SymOption:
    """Prefer any route over ``∞``, then higher lp, then shorter path length."""

    def better(a: Any, b: Any) -> Any:
        return (a.lp > b.lp) | ((a.lp == b.lp) & (a.len <= b.len))

    return option_min_merge(left, right, better)


def build_running_example(
    external_announcement: str = "none",
    with_fromw_ghost: bool = False,
    lp_width: int = 8,
    len_width: int = 8,
) -> RunningExample:
    """Construct the Figure 2 network.

    ``external_announcement`` selects what the external neighbour ``n`` starts
    with:

    * ``"none"`` — ``∞`` (the closed network simulated in Figure 3);
    * ``"symbolic"`` — an arbitrary route (the open network of §2.2 and §2.3).
    """
    if external_announcement not in ("none", "symbolic"):
        raise RoutingError("external_announcement must be 'none' or 'symbolic'")

    route_shape, payload_shape = running_example_route_shape(
        lp_width=lp_width, len_width=len_width, with_fromw_ghost=with_fromw_ghost
    )

    topology = Topology(nodes=["n", "w", "v", "d", "e"])
    topology.add_edge("n", "v")  # filtered
    topology.add_edge("w", "v")  # tagged internal
    topology.add_undirected_edge("v", "d")
    topology.add_edge("d", "e")  # only internal routes allowed

    external_route: SymOption | None = None
    symbolics: tuple[SymbolicVariable, ...] = ()
    if external_announcement == "symbolic":
        external_route = route_shape.fresh("external_n")
        conjuncts = [route_shape.constraint(external_route)]
        if with_fromw_ghost:
            # The ghost bit marks routes originating at w; an external
            # announcement can never carry it (Figure 10's assumption).
            conjuncts.append(external_route.is_none | ~external_route.payload.fromw)
        symbolics = (
            SymbolicVariable(
                name="external_n", value=external_route, constraint=all_of(conjuncts)
            ),
        )

    w_fields: dict[str, Any] = {"lp": DEFAULT_LOCAL_PREFERENCE, "len": 0, "tag": False}
    if with_fromw_ghost:
        w_fields["fromw"] = True

    def initial(node: str) -> SymOption:
        if node == "w":
            return route_shape.some(w_fields)
        if node == "n" and external_route is not None:
            return external_route
        return route_shape.none()

    def increment(route: SymOption) -> SymOption:
        return route.map(lambda p: p.with_fields(len=p.len.saturating_add(1)))

    def transfer(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, target = edge

        def apply(route: SymOption) -> SymOption:
            moved = increment(route)
            if edge == ("n", "v"):
                # filter: drop all routes from the external neighbour.
                return route_shape.none()
            if edge == ("w", "v"):
                # tag: mark routes from w as internal and reset the preference.
                return moved.map(
                    lambda p: p.with_fields(tag=True, lp=DEFAULT_LOCAL_PREFERENCE)
                )
            if edge == ("d", "e"):
                # allow: only internal (tagged) routes may reach e.
                return moved.where(lambda p: p.tag)
            return moved

        return apply

    network = Network(
        topology=topology,
        route_shape=route_shape,
        initial_routes=initial,
        transfer_functions=transfer,
        merge=running_example_merge,
        symbolics=symbolics,
    )
    return RunningExample(
        network=network,
        route_shape=route_shape,
        payload_shape=payload_shape,
        external_route=external_route,
    )
