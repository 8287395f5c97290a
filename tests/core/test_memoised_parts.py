"""The memoised parts a node's conditions and condition fingerprints are built from.

An *equality oracle*: whatever the process built before — the base network,
an edited copy sharing its ``Network`` and all but one interface object —
every canonical condition and fingerprint must equal the one computed after
``clear_fingerprint_cache()``, i.e. with every part evaluated from scratch.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.analysis.mutations import lower_witness_time, make_interface_vacuous
from repro.core import conditions as conditions_module
from repro.core.conditions import (
    _query_part,
    _query_time,
    _term_key,
    apply_annotation,
    canonical_node_conditions,
    node_conditions,
    node_policy,
)
from repro.core.fingerprint import (
    clear_fingerprint_cache,
    fingerprint_statistics,
    node_condition_fingerprints,
)
from repro.core.annotations import AnnotatedNetwork
from repro.core.results import condition_verdicts
from repro.core.temporal import TemporalPredicate, finally_, globally
from repro.errors import AnalysisError
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.routing.algebra import Network
from repro.verify import Modular, verify

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
    return {
        node: node_condition_fingerprints(annotated, node, delay=delay)
        for node in annotated.nodes
    }


def _terms(conditions):
    """Conditions by kind and term identity."""
    return [(vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id) for vc in conditions]


def _conditions(annotated, delay=0):
    """Every node's canonical conditions, by kind and term identity."""
    return {
        node: _terms(canonical_node_conditions(annotated, node, delay=delay))
        for node in annotated.nodes
    }


def _changed_keys(base, edited, delay=0):
    """Nodes whose memo key differs on ``edited`` from ``base``."""
    topology = base.network.topology
    if (
        edited.network is not base.network
        or edited.time_width() != base.time_width()
        or edited.time_width(delay) != base.time_width(delay)
        or edited.destination_symmetry != base.destination_symmetry
    ):
        return list(base.nodes)
    return [
        node
        for node in base.nodes
        if not all(
            edited.interface(reader) is base.interface(reader)
            for reader in (node, *topology.predecessors(node))
        )
        or edited.node_property(node) is not base.node_property(node)
    ]


def _hits():
    return fingerprint_statistics()["canonical_condition_hits"]


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
        # The state an edit stream is in: the base network's fingerprints memoised.
        clear_fingerprint_cache()
        _fingerprints(base)
        hits_before = _hits()
        warm = _fingerprints(edited)
        # Exactly the nodes whose inputs the edit left alone are memo hits.
        changed = _changed_keys(base, edited)
        assert _hits() - hits_before == len(base.nodes) - len(changed), edit_name
        clear_fingerprint_cache()
        assert _fingerprints(edited) == warm, edit_name
    clear_fingerprint_cache()
    assert _fingerprints(base, delay=1) == _fingerprints(base, delay=1)


def _has_route(route):
    return route.is_some


def _flat_reach():
    """``fattree/reach`` k=4 with every annotation ``globally(has_route)``.

    Its largest witness time is 0, so at the default ``minimum_time_width``
    of 2 the widths are 2 (undelayed) and 2 (delay 1).
    """
    reach = registry.build("fattree/reach", pods=4).annotated
    annotation = globally(_has_route)
    return AnnotatedNetwork(reach.network, lambda node: annotation, lambda node: annotation)


def _width_edit(base):
    """One interface with witness 1: ``time_width()`` stays 2, ``time_width(1)`` becomes 3."""
    edited = base.with_interface(base.nodes[0], finally_(1, globally(_has_route)))
    assert (base.time_width(), base.time_width(1)) == (2, 2)
    assert (edited.time_width(), edited.time_width(1)) == (2, 3)
    return edited


def _predecessor_edit(base):
    """A new interface object on one predecessor of the middle node."""
    node = base.nodes[len(base.nodes) // 2]
    predecessor = base.network.topology.predecessors(node)[0]
    return base.with_interface(predecessor, globally(lambda route: route.is_none))


def _marker_edit(base):
    """``with_interface`` on an all-pairs network drops the destination marker."""
    node = base.nodes[0]
    edited = base.with_interface(node, base.interface(node))
    assert base.destination_symmetry is not None and edited.destination_symmetry is None
    return edited


@pytest.mark.parametrize(
    "build, edit, delay",
    [
        pytest.param(_flat_reach, _width_edit, 1, id="time-width-at-delay"),
        pytest.param(
            lambda: registry.build("fattree/reach", pods=4).annotated,
            _predecessor_edit,
            0,
            id="predecessor-interface",
        ),
        pytest.param(
            lambda: registry.build("fattree/reach", pods=4, all_pairs=True).annotated,
            _marker_edit,
            0,
            id="destination-marker",
        ),
    ],
)
def test_the_memo_key_covers_every_input(build, edit, delay, tmp_path):
    """Each edit changes one input of the memo key and nothing else a hit
    would notice: the nodes it reaches miss, warm conditions equal cold
    ones, and a warm delta run gives the full engine's verdicts."""
    base = build()
    edited = edit(base)
    store = str(tmp_path / "delta.json")
    clear_fingerprint_cache()
    verify(base, Modular(delta="reuse", delay=delay, store=store))
    hits_before = _hits()
    warm = _conditions(edited, delay=delay)
    changed = _changed_keys(base, edited, delay=delay)
    assert changed and _hits() - hits_before == len(base.nodes) - len(changed)
    delta = verify(edited, Modular(delta="reuse", delay=delay, store=store))
    assert condition_verdicts(delta) == condition_verdicts(verify(edited, Modular(delay=delay)))
    clear_fingerprint_cache()
    assert _conditions(edited, delay=delay) == warm


def test_a_warm_edit_builds_each_changed_node_once(tmp_path, monkeypatch):
    """After one edit a warm delta run builds each node whose memo key
    changed exactly once, for its fingerprints and its check together, and
    no other node."""
    base = registry.build("fattree/reach", pods=4).annotated
    store = str(tmp_path / "delta.json")
    clear_fingerprint_cache()
    assert verify(base, Modular(delta="reuse", store=store)).passed
    edited, _ = inject_interface_failure(base)
    builds = []
    original = conditions_module.node_conditions

    def counted(annotated, node, delay=0, joined=True):
        builds.append(node)
        return original(annotated, node, delay=delay, joined=joined)

    monkeypatch.setattr(conditions_module, "node_conditions", counted)
    report = verify(edited, Modular(delta="reuse", store=store))
    assert not report.passed and report.conditions_discharged > 0
    changed = _changed_keys(base, edited)
    assert sorted(builds) == sorted(changed)


def test_memoised_conditions_cannot_be_mutated():
    annotated = registry.build("fattree/reach", pods=4).annotated
    built = canonical_node_conditions(annotated, annotated.nodes[0])
    assert isinstance(built, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built[0].goal = built[0].assumptions
    assert canonical_node_conditions(annotated, annotated.nodes[0]) is built


def test_delays_and_numberings_keep_their_own_entries():
    """Delay 0 and 1, and one node in its own numbering and in the network's
    (the marker dropped, every object shared), are four entries that each
    equal a cold build."""
    base = registry.build("fattree/reach", pods=4, all_pairs=True).annotated
    unmarked = _marker_edit(base)
    numberings = {node: base.destination_numbering(node) for node in base.nodes}
    node = next(node for node, numbering in numberings.items() if list(numbering) != sorted(numbering))
    clear_fingerprint_cache()
    terms = {
        (annotated, delay): _terms(canonical_node_conditions(annotated, node, delay=delay))
        for annotated in (base, unmarked)
        for delay in (0, 1)
    }
    assert fingerprint_statistics()["canonical_conditions"] == 4
    assert len({tuple(value) for value in terms.values()}) == 4
    assert terms[unmarked, 1] == _terms(node_conditions(base, node, delay=1))
    clear_fingerprint_cache()
    for (annotated, delay), value in terms.items():
        assert _terms(canonical_node_conditions(annotated, node, delay=delay)) == value


def test_entries_do_not_keep_their_network_alive():
    annotated = registry.build("fattree/reach", pods=4).annotated
    for node in annotated.nodes:
        node_condition_fingerprints(annotated, node)
    assert fingerprint_statistics()["canonical_conditions"] >= len(annotated.nodes)
    network = weakref.ref(annotated.network)
    del annotated, node
    gc.collect()
    assert network() is None


def _assert_policies_are_unmemoised_builds(network):
    """Each memoised part equals what the network builds without any memo."""
    shape = network.route_shape
    for node in network.topology.nodes:
        policy = node_policy(network, node)
        direct = network.updated_route(node, policy.neighbor_routes)
        assert _term_key(policy.updated) == _term_key(direct), node
        assert policy.own_shape.term is shape.constraint(policy.own_route).term
        for route, constraint in zip(policy.neighbor_routes.values(), policy.neighbor_shapes):
            assert constraint.term is shape.constraint(route).term


@pytest.mark.parametrize("name, parameters", _CASES)
def test_memoised_policies_equal_unmemoised_builds(name, parameters):
    base = registry.build(name, **parameters).annotated
    clear_fingerprint_cache()
    _assert_policies_are_unmemoised_builds(base.network)
    for edit_name, edit in _EDITS.items():
        try:
            edited = edit(base)
        except AnalysisError:
            continue
        _assert_policies_are_unmemoised_builds(edited.network)  # warm
        clear_fingerprint_cache()
        _assert_policies_are_unmemoised_builds(edited.network)  # cold


def test_nodes_with_different_transfer_callables_never_share_a_fold():
    """Valley-freedom's up and down edges carry different policies: an
    aggregation switch (up and down in-edges) and a core switch (up in-edges
    only) have equal in-degree and initial route, but never one fold."""
    benchmark = registry.build("fattree/valley_freedom", pods=4).raw
    network = benchmark.network
    clear_fingerprint_cache()
    folds = {}
    for node in network.topology.nodes:
        folds.setdefault(id(node_policy(network, node).updated), []).append(node)
    assert fingerprint_statistics()["merge_folds"] == len(folds) < len(network.topology.nodes)
    for nodes in folds.values():
        transfers = {
            tuple(
                network.transfer_function((neighbor, node))
                for neighbor in network.topology.predecessors(node)
            )
            for node in nodes
        }
        assert len(transfers) == 1, nodes
    aggregation, core = benchmark.fattree.aggregation_nodes[0], benchmark.fattree.core_nodes[0]
    assert network.topology.in_degree(aggregation) == network.topology.in_degree(core)
    assert _term_key(node_policy(network, aggregation).updated) != _term_key(
        node_policy(network, core).updated
    )
    _assert_policies_are_unmemoised_builds(network)


@pytest.mark.parametrize("buggy", (False, True), ids=("wan/reach", "wan/reach-buggy"))
def test_a_wan_evaluates_one_transfer_per_policy_pair_and_query_route(buggy):
    """Edges with one (export, import) policy pair share a transfer callable,
    so 10 + 120 peers fold 280 in-edges (no fold is shared: every initial
    route differs) from 50 transfer evaluations; the buggy export to
    ``peer0`` is its own callable and adds exactly one."""
    network = registry.build(
        "wan/reach", internal_routers=10, external_peers=120, buggy=buggy
    ).annotated.network
    topology = network.topology
    clear_fingerprint_cache()
    for node in topology.nodes:
        node_policy(network, node)
    statistics = fingerprint_statistics()
    in_edges = sum(topology.in_degree(node) for node in topology.nodes)
    assert (in_edges, statistics["merge_fold_hits"]) == (280, 0)
    assert statistics["transfers"] == 50 + buggy
    to_peers = {
        (source, target): network.transfer_function((source, target))
        for target in topology.nodes
        if target.startswith("peer")
        for source in topology.predecessors(target)
    }
    buggy_edge = to_peers.pop(("wan0", "peer0"))
    shared = set(to_peers.values())
    assert len(shared) == 1
    assert (buggy_edge not in shared) == buggy
    _assert_policies_are_unmemoised_builds(network)


def test_a_fresh_process_folds_once_per_distinct_shape():
    """Construction costs distinct shapes: 3 merge folds for every SpReach size."""
    for pods in (4, 6):
        network = registry.build("fattree/reach", pods=pods).annotated.network
        clear_fingerprint_cache()
        for node in network.topology.nodes:
            node_policy(network, node)
        statistics = fingerprint_statistics()
        assert statistics["merge_folds"] == 3
        assert statistics["merge_fold_hits"] == len(network.topology.nodes) - 3


def test_node_policy_is_what_the_network_builds():
    network = registry.build("fattree/length", pods=4).annotated.network
    for node in network.topology.nodes:
        policy = node_policy(network, node)
        assert node_policy(network, node) is policy
        routes = {
            neighbor: _query_part(network, position)[0]
            for position, neighbor in enumerate(network.topology.predecessors(node))
        }
        assert all(policy.neighbor_routes[neighbor] is route for neighbor, route in routes.items())
        direct = network.updated_route(node, routes)
        assert direct.is_some.term is policy.updated.is_some.term
        assert _term_key(direct) == _term_key(policy.updated)
        assert _term_key(network.initial_route(node)) == _term_key(policy.initial)
        assert policy.own_shape.term is network.route_shape.constraint(policy.own_route).term


def test_positional_routes_are_shared_across_nodes():
    """Query routes number max in-degree + 1, not one set per node."""
    network = registry.build("fattree/reach", pods=4).annotated.network
    clear_fingerprint_cache()
    for node in network.topology.nodes:
        node_policy(network, node)
    widest = max(network.topology.in_degree(node) for node in network.topology.nodes)
    statistics = fingerprint_statistics()
    assert statistics["query_routes"] == widest + 1
    assert statistics["node_policies"] == len(network.topology.nodes)


def test_a_checked_and_linted_delta_run_evaluates_one_policy_per_node(tmp_path):
    """The check, the fingerprints and the lint passes read the same policies."""
    annotated = registry.build("fattree/reach", pods=4).annotated
    clear_fingerprint_cache()
    store = str(tmp_path / "delta.json")
    assert verify(annotated, Modular(delta="reuse", store=store), lint="warn").passed
    assert fingerprint_statistics()["node_policies"] == len(annotated.nodes)


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
    assert _term_key(node_policy(rebuilt, node).updated) == _term_key(
        node_policy(network, node).updated
    )

    calls = []
    interface = annotated.interface(node)
    route = node_policy(network, node).own_route
    time = _query_time(annotated.time_width())

    def counted(route, time):
        calls.append(1)
        return interface(route, time)

    first = TemporalPredicate(counted, max_witness=interface.max_witness)
    second = TemporalPredicate(counted, max_witness=interface.max_witness)
    assert apply_annotation(first, route, time) is apply_annotation(first, route, time)
    assert len(calls) == 1
    assert apply_annotation(second, route, time).term is apply_annotation(first, route, time).term
    assert len(calls) == 2
