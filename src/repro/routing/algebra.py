"""Network instances: the routing-algebra model ``N = (G, S, I, F, ⊕)``.

A :class:`Network` bundles

* a :class:`~repro.routing.topology.Topology` ``G``;
* the route shape describing the set of routes ``S`` (usually an
  :class:`~repro.symbolic.shapes.OptionShape` so that "no route" — the
  paper's ``∞`` — is representable);
* the node initialisation function ``I``;
* the per-edge transfer functions ``F``; and
* the merge (selection) function ``⊕``.

It also carries the network's *symbolic variables*: free values such as an
external peer's announcement or the choice of destination node, optionally
constrained by preconditions (§4 of the paper).  Every function is written
over symbolic values, so the same network object drives both the concrete
simulator and the SMT-based verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import RoutingError
from repro.routing.topology import Edge, Topology
from repro.symbolic.shapes import Shape
from repro.symbolic.values import SymBool, all_of

TransferFunction = Callable[[Any], Any]
MergeFunction = Callable[[Any, Any], Any]


@dataclass
class SymbolicVariable:
    """A network-level symbolic value with an optional precondition.

    Examples: the arbitrary route announced by an external peer, the symbolic
    destination prefix of the Hijack benchmark, or the symbolic destination
    node of the all-pairs benchmarks.
    """

    name: str
    value: Any
    constraint: SymBool = field(default_factory=SymBool.true)

    def __post_init__(self) -> None:
        if not self.name:
            raise RoutingError("symbolic variables need a non-empty name")


class Network:
    """A routing-algebra network instance, fixed at construction.

    The verifier memoises what it derives from the policy per ``Network``
    object: an edited policy is a new ``Network`` (as :meth:`with_symbolics` is).
    """

    def __init__(
        self,
        topology: Topology,
        route_shape: Shape,
        initial_routes: Mapping[str, Any] | Callable[[str], Any],
        transfer_functions: Mapping[Edge, TransferFunction] | Callable[[Edge], TransferFunction],
        merge: MergeFunction,
        symbolics: tuple[SymbolicVariable, ...] = (),
    ) -> None:
        self.topology = topology
        self.route_shape = route_shape
        self._initial_routes = initial_routes
        self._transfer_functions = transfer_functions
        self._merge = merge
        self.symbolics = tuple(symbolics)
        # Symbolics are fixed from here on (``with_symbolics`` returns a new
        # instance) and every condition of every node assumes their
        # conjunction, so it is built once, with one n-ary call.
        self._symbolic_constraints = all_of(symbolic.constraint for symbolic in self.symbolics)
        self._validate()

    # -- accessors ----------------------------------------------------------------

    @property
    def merge(self) -> MergeFunction:
        """The selection function ``⊕`` (read-only)."""
        return self._merge

    def initial_route(self, node: str) -> Any:
        """The initial route ``I_v`` of ``node``."""
        if callable(self._initial_routes):
            return self._initial_routes(node)
        try:
            return self._initial_routes[node]
        except KeyError:
            raise RoutingError(f"no initial route defined for node {node!r}") from None

    def transfer_function(self, edge: Edge) -> TransferFunction:
        """The transfer function ``f_e`` of ``edge``."""
        if callable(self._transfer_functions):
            return self._transfer_functions(edge)
        try:
            return self._transfer_functions[edge]
        except KeyError:
            raise RoutingError(f"no transfer function defined for edge {edge!r}") from None

    def transfer(self, edge: Edge, route: Any) -> Any:
        """Apply the transfer function of ``edge`` to ``route``."""
        if not self.topology.has_edge(*edge):
            raise RoutingError(f"edge {edge!r} is not in the topology")
        return self.transfer_function(edge)(route)

    def merge_all(self, routes: list[Any]) -> Any:
        """Fold ``⊕`` over a non-empty list of routes."""
        if not routes:
            raise RoutingError("merge_all needs at least one route")
        merged = routes[0]
        for route in routes[1:]:
            merged = self._merge(merged, route)
        return merged

    def updated_route(self, node: str, neighbor_routes: Mapping[str, Any]) -> Any:
        """One synchronous update step at ``node`` (equation (4) of the paper).

        ``neighbor_routes`` maps every in-neighbour of ``node`` to the route it
        held at the previous time step.
        """
        contributions = [self.initial_route(node)]
        for neighbor in self.topology.predecessors(node):
            if neighbor not in neighbor_routes:
                raise RoutingError(
                    f"missing route for in-neighbour {neighbor!r} of {node!r}"
                )
            contributions.append(self.transfer((neighbor, node), neighbor_routes[neighbor]))
        return self.merge_all(contributions)

    def symbolic_constraints(self) -> SymBool:
        """The conjunction of all symbolic-variable preconditions."""
        return self._symbolic_constraints

    @property
    def is_closed(self) -> bool:
        """True when the network has no free symbolic variables."""
        return not self.symbolics

    def with_symbolics(self, *symbolics: SymbolicVariable) -> "Network":
        """A copy of this network with additional symbolic variables."""
        return Network(
            topology=self.topology,
            route_shape=self.route_shape,
            initial_routes=self._initial_routes,
            transfer_functions=self._transfer_functions,
            merge=self._merge,
            symbolics=self.symbolics + tuple(symbolics),
        )

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.topology.node_count}, edges={self.topology.edge_count}, "
            f"symbolics={len(self.symbolics)})"
        )

    # -- validation -----------------------------------------------------------------

    def _validate(self) -> None:
        if self.topology.node_count == 0:
            raise RoutingError("networks need at least one node")
        if not callable(self._merge):
            raise RoutingError("merge must be callable")
        if not callable(self._initial_routes):
            missing = [v for v in self.topology.nodes if v not in self._initial_routes]
            if missing:
                raise RoutingError(f"initial routes missing for nodes {missing}")
        if not callable(self._transfer_functions):
            missing_edges = [e for e in self.topology.edges if e not in self._transfer_functions]
            if missing_edges:
                raise RoutingError(f"transfer functions missing for edges {missing_edges}")
