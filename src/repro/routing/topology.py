"""Directed network topologies.

The paper's model is a directed graph ``G = (V, E)`` whose edges carry
transfer functions.  This module provides a small graph class tailored to
what the verifier needs: stable node ordering, fast predecessor lookup (the
inductive condition quantifies over in-neighbours), and a handful of
analyses (BFS distances, diameter) used when computing witness times.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.errors import RoutingError

Edge = tuple[str, str]


class Topology:
    """A directed graph with string-named nodes."""

    def __init__(self, nodes: Iterable[str] = (), edges: Iterable[Edge] = ()) -> None:
        self._successors: dict[str, list[str]] = {}
        self._predecessors: dict[str, list[str]] = {}
        for node in nodes:
            self.add_node(node)
        for source, target in edges:
            self.add_edge(source, target)

    # -- construction -----------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Add a node (idempotent)."""
        if not name:
            raise RoutingError("node names must be non-empty strings")
        if name not in self._successors:
            self._successors[name] = []
            self._predecessors[name] = []

    def add_edge(self, source: str, target: str) -> None:
        """Add the directed edge ``source -> target`` (idempotent)."""
        if source == target:
            raise RoutingError(f"self-loop edges are not allowed ({source!r})")
        self.add_node(source)
        self.add_node(target)
        if target not in self._successors[source]:
            self._successors[source].append(target)
            self._predecessors[target].append(source)

    def add_undirected_edge(self, left: str, right: str) -> None:
        """Add edges in both directions between ``left`` and ``right``."""
        self.add_edge(left, right)
        self.add_edge(right, left)

    # -- queries ----------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._successors)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            (source, target)
            for source, targets in self._successors.items()
            for target in targets
        )

    @property
    def node_count(self) -> int:
        return len(self._successors)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._successors.values())

    def __contains__(self, name: str) -> bool:
        return name in self._successors

    def has_edge(self, source: str, target: str) -> bool:
        return source in self._successors and target in self._successors[source]

    def successors(self, node: str) -> tuple[str, ...]:
        """Out-neighbours of ``node``."""
        self._check_node(node)
        return tuple(self._successors[node])

    def predecessors(self, node: str) -> tuple[str, ...]:
        """In-neighbours of ``node`` (the ``preds`` function of the paper)."""
        self._check_node(node)
        return tuple(self._predecessors[node])

    def in_degree(self, node: str) -> int:
        self._check_node(node)
        return len(self._predecessors[node])

    def out_degree(self, node: str) -> int:
        self._check_node(node)
        return len(self._successors[node])

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        """The component "centered at" ``node``: every edge ending at it."""
        self._check_node(node)
        return tuple((source, node) for source in self._predecessors[node])

    # -- analyses ----------------------------------------------------------------

    def bfs_distances(self, source: str, reverse: bool = False) -> dict[str, int]:
        """Hop distances from ``source`` along edges (or against them).

        ``reverse=True`` follows edges backwards, which measures how many hops
        a route *originating* at ``source`` needs to reach each node — exactly
        the quantity used for witness times.
        """
        self._check_node(source)
        step = self.predecessors if reverse else self.successors
        # NOTE: routes propagate along edges, so the nodes that *hear* a route
        # originated at `source` are its successors; reverse=False is the
        # propagation direction.
        distances = {source: 0}
        queue: deque[str] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in step(node):
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    queue.append(neighbor)
        return distances

    def diameter(self) -> int:
        """Longest shortest-path distance over all connected ordered pairs."""
        longest = 0
        for node in self.nodes:
            distances = self.bfs_distances(node)
            if len(distances) > 1:
                longest = max(longest, max(distances.values()))
        return longest

    def is_strongly_connected(self) -> bool:
        """True when every node can reach every other node."""
        for node in self.nodes:
            if len(self.bfs_distances(node)) != self.node_count:
                return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self._successors)

    def __repr__(self) -> str:
        return f"Topology(nodes={self.node_count}, edges={self.edge_count})"

    # -- helpers ------------------------------------------------------------------

    def _check_node(self, node: str) -> None:
        if node not in self._successors:
            raise RoutingError(f"unknown node {node!r}")


def path_topology(count: int, prefix: str = "n", bidirectional: bool = True) -> Topology:
    """A simple path ``n0 - n1 - ... - n(count-1)`` (useful in tests)."""
    if count <= 0:
        raise RoutingError("path topologies need at least one node")
    topology = Topology(nodes=[f"{prefix}{i}" for i in range(count)])
    for index in range(count - 1):
        left, right = f"{prefix}{index}", f"{prefix}{index + 1}"
        if bidirectional:
            topology.add_undirected_edge(left, right)
        else:
            topology.add_edge(left, right)
    return topology


def ring_topology(count: int, prefix: str = "n") -> Topology:
    """A bidirectional ring of ``count`` nodes."""
    if count < 3:
        raise RoutingError("ring topologies need at least three nodes")
    topology = path_topology(count, prefix=prefix, bidirectional=True)
    topology.add_undirected_edge(f"{prefix}{count - 1}", f"{prefix}0")
    return topology


def star_topology(leaf_count: int, hub: str = "hub", prefix: str = "leaf") -> Topology:
    """A hub node connected bidirectionally to ``leaf_count`` leaves."""
    if leaf_count <= 0:
        raise RoutingError("star topologies need at least one leaf")
    topology = Topology(nodes=[hub])
    for index in range(leaf_count):
        topology.add_undirected_edge(hub, f"{prefix}{index}")
    return topology
