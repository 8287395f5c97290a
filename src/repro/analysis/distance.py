"""TP004: witness-time vs topology-distance consistency.

The classic Timepiece annotation bug (§3 of the paper): an interface that
asserts "this node has a route by time τ" where τ is *smaller* than the
node's hop distance from every route origin.  Routes propagate one hop per
step, so no execution can satisfy the interface — the modular proof is
doomed before the first SAT call, it just takes a bit-blasted counterexample
to say so.

The check is deliberately conservative (zero false positives):

* Origins are nodes whose initial route is concretely present; nodes whose
  initial presence is *symbolic* (WAN internals, all-pairs fattrees, the
  hijacker) are treated as possible origins at distance 0, which can only
  shrink distances and therefore only suppress findings.
* BFS distance along propagation edges is a lower bound on arrival time
  even under filtering transfers (filters can delay or drop a route, never
  teleport it).
* An interface is only flagged when applying it to the concrete *absent*
  route at a concrete time ``t`` below the node's distance folds to the
  constant ``false`` — a purely syntactic proof that the interface demands
  a route the network provably cannot have delivered yet.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget
from repro.core.conditions import node_policy
from repro.errors import ReproError
from repro.routing.algebra import Network
from repro.symbolic import SymBV
from repro.symbolic.shapes import OptionShape


def origin_distances(network: Network) -> dict[str, int | None] | None:
    """Hop distance from the nearest (possible) route origin to every node.

    Returns ``None`` when the network's routes are not option-shaped or an
    initial route cannot be inspected — the pass then abstains entirely.
    Per node: ``0`` for (possible) origins, the BFS distance along
    propagation edges otherwise, and ``None`` for nodes no origin reaches.
    """
    if not isinstance(network.route_shape, OptionShape):
        return None
    topology = network.topology
    sources: list[str] = []
    for node in topology.nodes:
        try:
            presence = node_policy(network, node).initial.is_some.term
        except (ReproError, AttributeError):
            return None
        if not presence.is_false():
            # Concretely present, or symbolically possibly-present: both are
            # treated as origins so distances stay lower bounds.
            sources.append(node)
    distances: dict[str, int | None] = {node: None for node in topology.nodes}
    queue: deque[str] = deque()
    for source in sources:
        distances[source] = 0
        queue.append(source)
    while queue:
        node = queue.popleft()
        next_distance = distances[node] + 1  # type: ignore[operator]
        for successor in topology.successors(node):
            if distances[successor] is None:
                distances[successor] = next_distance
                queue.append(successor)
    return distances


def earliest_route_demand(
    target: LintTarget, node: str, probe_limit: int, absent: object | None = None
) -> int | None:
    """The smallest ``t < probe_limit`` at which ``A(node)`` provably rejects ∞.

    Probes the interface at the concrete absent route and concrete times;
    only a fold to constant ``false`` counts, so symbolic-witness interfaces
    (all-pairs benchmarks) never trigger.  ``absent`` lets a caller share
    one pre-built absent-route value across many probes.
    """
    interface = target.annotated.interface(node)
    if absent is None:
        absent = target.annotated.network.route_shape.none()
    width = target.annotated.time_width()
    for time_value in range(probe_limit):
        try:
            term = interface(absent, SymBV.constant(time_value, width)).term
        except ReproError:
            return None  # reported as TP001 by the sort pass
        if term.is_false():
            return time_value
    return None


class DistancePass(AnalysisPass):
    """Flag interfaces demanding a route before any origin can deliver one."""

    name = "distance"

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        distances = origin_distances(target.annotated.network)
        if distances is None:
            return
        absent = target.annotated.network.route_shape.none()
        # Nodes whose interfaces are term-identical on the shared canonical
        # probe answer every concrete probe identically too, so their demand
        # results are shared — on a symmetric fattree this collapses the
        # probing to one node per interface class.  Memoised per network, so
        # repeated lint runs skip the probing entirely.
        demand_cache: dict[tuple[int, int], int | None] = target.memo("demand")
        for node in target.nodes:
            distance = distances[node]
            if distance == 0:
                continue  # (possible) origins satisfy any demand at time 0
            if target.interface_value(node) is False:
                continue  # root cause reported as TP003 by the vacuity pass
            max_witness = target.annotated.interface(node).max_witness
            # Beyond max_witness every temporal operator is constant, so a
            # rejection at max_witness is a rejection forever; probing past
            # it adds nothing.
            probe_limit = (
                max_witness + 1 if distance is None else min(distance, max_witness + 1)
            )
            cache_key = None
            try:
                signature = target.annotation_term(node, "interface").term_id
                cache_key = (signature, probe_limit)
            except ReproError:
                pass
            if cache_key is not None and cache_key in demand_cache:
                demanded_at = demand_cache[cache_key]
            else:
                demanded_at = earliest_route_demand(target, node, probe_limit, absent=absent)
                if cache_key is not None:
                    demand_cache[cache_key] = demanded_at
            if demanded_at is None:
                continue
            interface = target.annotated.interface(node)
            if distance is None:
                yield diagnostic(
                    "TP004",
                    f"the interface of {node!r} ({interface.description}) requires "
                    f"a route at time {demanded_at}, but no route origin reaches "
                    f"{node!r} at all: the interface is unsatisfiable in every "
                    "execution",
                    node=node,
                )
            else:
                yield diagnostic(
                    "TP004",
                    f"the interface of {node!r} ({interface.description}) requires "
                    f"a route at time {demanded_at}, but the nearest route origin "
                    f"is {distance} hops away — no route can arrive before time "
                    f"{distance}",
                    node=node,
                )
