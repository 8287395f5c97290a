"""The memoised parts a condition and a dependency fingerprint are assembled from.

An *equality oracle*: whatever the process fingerprinted before — the base
network, an edited copy sharing its ``Network`` and all but one interface
object — every fingerprint must equal the one computed after
``clear_fingerprint_cache()``, i.e. with every part evaluated from scratch.
"""

from __future__ import annotations

import pytest

from repro.analysis.mutations import lower_witness_time, make_interface_vacuous
from repro.core.conditions import _query_route, _query_time, apply_annotation, node_policy
from repro.core.fingerprint import (
    clear_fingerprint_cache,
    dependency_fingerprints,
    fingerprint_statistics,
    fingerprint_value,
    node_condition_fingerprints,
)
from repro.core.temporal import TemporalPredicate
from repro.errors import AnalysisError
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.routing.algebra import Network

_CASES = [
    *(
        pytest.param(name, {"pods": 4} if name.startswith("fattree/") else {}, id=name)
        for name in registry.benchmark_names()
        if not name.startswith("wan/")
    ),
    pytest.param("fattree/reach", {"pods": 4, "all_pairs": True}, id="fattree/reach-all-pairs"),
    pytest.param("wan/reach", {"internal_routers": 4, "external_peers": 6}, id="wan/reach-4+6"),
]

_EDITS = {
    "inject_interface_failure": lambda annotated: inject_interface_failure(annotated)[0],
    "lower_witness_time": lambda annotated: lower_witness_time(annotated)[0],
    "make_interface_vacuous": lambda annotated: make_interface_vacuous(annotated)[0],
    "with_property_as_interface": lambda annotated: annotated.with_property_as_interface(),
}


def _fingerprints(annotated, delay=0):
    return (
        dependency_fingerprints(annotated, annotated.nodes, delay=delay),
        {
            node: node_condition_fingerprints(annotated, node, delay=delay)
            for node in annotated.nodes
        },
    )


@pytest.mark.parametrize("name, parameters", _CASES)
def test_warm_fingerprints_equal_cold_ones(name, parameters):
    base = registry.build(name, **parameters).annotated
    clear_fingerprint_cache()
    cold_base = _fingerprints(base)
    assert _fingerprints(base) == cold_base
    for edit_name, edit in _EDITS.items():
        try:
            edited = edit(base)
        except AnalysisError:
            continue  # the mutation has no place on this network
        _fingerprints(base)  # the state an edit stream is in: base parts memoised
        hits_before = fingerprint_statistics()["application_hits"]
        warm = _fingerprints(edited)
        assert fingerprint_statistics()["application_hits"] > hits_before, edit_name
        clear_fingerprint_cache()
        assert _fingerprints(edited) == warm, edit_name
    clear_fingerprint_cache()
    assert _fingerprints(base, delay=1) == _fingerprints(base, delay=1)


@pytest.mark.parametrize("naming", ["sender", "class"])
def test_node_policy_is_what_the_network_builds(naming):
    network = registry.build("fattree/length", pods=4).annotated.network
    for node in network.topology.nodes:
        policy = node_policy(network, node, naming)
        assert node_policy(network, node, naming) is policy
        routes = {
            neighbor: _query_route(network, neighbor, naming=naming, position=position)
            for position, neighbor in enumerate(network.topology.predecessors(node))
        }
        assert all(policy.neighbor_routes[neighbor] is route for neighbor, route in routes.items())
        direct = network.updated_route(node, routes)
        assert direct.is_some.term is policy.updated.is_some.term
        assert fingerprint_value(direct) == fingerprint_value(policy.updated)
        assert fingerprint_value(network.initial_route(node)) == fingerprint_value(policy.initial)
        assert policy.own_shape.term is network.route_shape.constraint(policy.own_route).term


def test_class_naming_shares_its_routes_across_nodes():
    """``naming="class"`` holds in-degree + 1 routes, not one set per node."""
    network = registry.build("fattree/reach", pods=4).annotated.network
    clear_fingerprint_cache()
    for node in network.topology.nodes:
        node_policy(network, node, "class")
    widest = max(network.topology.in_degree(node) for node in network.topology.nodes)
    statistics = fingerprint_statistics()
    assert statistics["query_routes"] == widest + 1
    assert statistics["node_policies"] == len(network.topology.nodes)


def test_a_new_network_or_annotation_object_misses():
    """Keys are objects: same content under a new object is evaluated again."""
    annotated = registry.build("fattree/reach", pods=4).annotated
    network = annotated.network
    node = annotated.nodes[0]
    rebuilt = Network(
        network.topology,
        network.route_shape,
        network.initial_route,
        network.transfer_function,
        network.merge,
        network.symbolics,
    )
    assert node_policy(rebuilt, node) is not node_policy(network, node)
    assert fingerprint_value(node_policy(rebuilt, node).updated) == fingerprint_value(
        node_policy(network, node).updated
    )

    calls = []
    interface = annotated.interface(node)
    route = node_policy(network, node).own_route
    time = _query_time(node, annotated.time_width())

    def counted(route, time):
        calls.append(1)
        return interface(route, time)

    first = TemporalPredicate(counted, max_witness=interface.max_witness)
    second = TemporalPredicate(counted, max_witness=interface.max_witness)
    assert apply_annotation(first, route, time) is apply_annotation(first, route, time)
    assert len(calls) == 1
    assert apply_annotation(second, route, time).term is apply_annotation(first, route, time).term
    assert len(calls) == 2
