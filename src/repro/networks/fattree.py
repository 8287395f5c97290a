"""Fattree data-centre topologies (Al-Fares et al., SIGCOMM 2008).

The paper's scaling evaluation uses ``k``-fattrees: ``k`` pods, each with
``k/2`` aggregation and ``k/2`` edge (top-of-rack) switches, plus ``(k/2)²``
core switches — ``1.25·k²`` nodes and ``k³`` directed edges in total.  This
module generates those topologies, tracks each node's *role* (core /
aggregation / edge) and pod, and computes the ``dist(v)`` function used for
witness times: the number of synchronous rounds before ``v`` hears a route
originated at a given destination edge node (§6, "Witness times").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.routing.topology import Topology

CORE = "core"
AGGREGATION = "aggregation"
EDGE = "edge"

ROLES = (CORE, AGGREGATION, EDGE)


@dataclass(frozen=True)
class FattreeNode:
    """Metadata for one fattree switch."""

    name: str
    role: str
    #: Pod index for aggregation/edge nodes; ``None`` for core nodes.
    pod: int | None
    #: Index of the node within its tier (and pod, where applicable).
    index: int


class Fattree:
    """A ``k``-pod fattree topology plus role/pod metadata."""

    def __init__(self, pods: int) -> None:
        if pods < 2 or pods % 2 != 0:
            raise BenchmarkError(f"fattrees require an even pod count >= 2, got {pods}")
        self.pods = pods
        self.radix = pods // 2
        self.topology = Topology()
        self._nodes: dict[str, FattreeNode] = {}
        self._build()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        radix = self.radix
        for core_index in range(radix * radix):
            self._add_node(f"core-{core_index}", CORE, None, core_index)
        for pod in range(self.pods):
            for index in range(radix):
                self._add_node(f"agg-{pod}-{index}", AGGREGATION, pod, index)
                self._add_node(f"edge-{pod}-{index}", EDGE, pod, index)
            # Full bipartite graph between the pod's aggregation and edge tiers.
            for agg_index in range(radix):
                for edge_index in range(radix):
                    self.topology.add_undirected_edge(
                        f"agg-{pod}-{agg_index}", f"edge-{pod}-{edge_index}"
                    )
            # Aggregation switch i connects to core group i (radix cores each).
            for agg_index in range(radix):
                for offset in range(radix):
                    core_name = f"core-{agg_index * radix + offset}"
                    self.topology.add_undirected_edge(f"agg-{pod}-{agg_index}", core_name)

    def _add_node(self, name: str, role: str, pod: int | None, index: int) -> None:
        self.topology.add_node(name)
        self._nodes[name] = FattreeNode(name=name, role=role, pod=pod, index=index)

    # -- metadata ----------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """The fattree's own switches (benchmarks may attach extra nodes to the
        topology — e.g. the Hijack benchmark's hijacker — which are not listed
        here)."""
        return tuple(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def info(self, node: str) -> FattreeNode:
        try:
            return self._nodes[node]
        except KeyError:
            raise BenchmarkError(f"unknown fattree node {node!r}") from None

    def role(self, node: str) -> str:
        return self.info(node).role

    def pod_of(self, node: str) -> int | None:
        return self.info(node).pod

    @property
    def core_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.role(n) == CORE)

    @property
    def aggregation_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.role(n) == AGGREGATION)

    @property
    def edge_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.role(n) == EDGE)

    def edge_nodes_of_pod(self, pod: int) -> tuple[str, ...]:
        return tuple(n for n in self.edge_nodes if self.pod_of(n) == pod)

    def aggregation_nodes_of_pod(self, pod: int) -> tuple[str, ...]:
        return tuple(n for n in self.aggregation_nodes if self.pod_of(n) == pod)

    def default_destination(self) -> str:
        """The edge node used as the fixed destination in Sp benchmarks."""
        return self.edge_nodes[-1]

    # -- down/up edges (valley-freedom policy) -------------------------------------

    def is_down_edge(self, source: str, target: str) -> bool:
        """True for edges pointing down the hierarchy (core→agg, agg→edge)."""
        order = {CORE: 2, AGGREGATION: 1, EDGE: 0}
        return order[self.role(source)] > order[self.role(target)]

    def is_up_edge(self, source: str, target: str) -> bool:
        """True for edges pointing up the hierarchy (edge→agg, agg→core)."""
        order = {CORE: 2, AGGREGATION: 1, EDGE: 0}
        return order[self.role(source)] < order[self.role(target)]

    # -- the dist(v) function -------------------------------------------------------

    def distance_to_destination(self, node: str, destination: str) -> int:
        """``dist(v)``: rounds before ``v`` first hears the route from ``destination``.

        Follows the five-case analysis of §6: 0 for the destination, 1 for
        aggregation switches in its pod, 2 for core switches and the other
        edge switches of its pod, 3 for aggregation switches of other pods,
        and 4 for edge switches of other pods.
        """
        if self.role(destination) != EDGE:
            raise BenchmarkError(f"destination {destination!r} must be an edge node")
        if node == destination:
            return 0
        node_info = self.info(node)
        dest_pod = self.pod_of(destination)
        if node_info.role == AGGREGATION and node_info.pod == dest_pod:
            return 1
        if node_info.role == CORE:
            return 2
        if node_info.role == EDGE and node_info.pod == dest_pod:
            return 2
        if node_info.role == AGGREGATION:
            return 3
        return 4

    def adjacent_to_destination(self, node: str, destination: str) -> bool:
        """The ``adj(v)`` predicate of the Vf benchmark.

        True for the destination itself and the aggregation switches of its
        pod: the nodes whose best route travels only *up* from the destination
        and therefore must not carry the "down" community.
        """
        if node == destination:
            return True
        node_info = self.info(node)
        return node_info.role == AGGREGATION and node_info.pod == self.pod_of(destination)

    def __repr__(self) -> str:
        return f"Fattree(pods={self.pods}, nodes={self.node_count})"


def fattree_size(pods: int) -> int:
    """Number of nodes of a ``pods``-fattree (the paper's ``1.25·k²``)."""
    return (pods * pods) // 4 + pods * pods


def pods_for_node_budget(max_nodes: int) -> list[int]:
    """All even pod counts whose fattree has at most ``max_nodes`` nodes."""
    sizes = []
    pods = 4
    while fattree_size(pods) <= max_nodes:
        sizes.append(pods)
        pods += 2
    return sizes
