"""An edit costs its neighbourhood — counted in calls, not seconds.

The machine-independent gate on the memoised condition parts: after one cold
``Modular(delta="reuse")`` run, a one-node edit evaluates no policy and no
unedited annotation again; and the stale-pass guard: whatever the process
memoised before, a delta run's verdicts are the full engine's.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.mutations import lower_witness_time, make_interface_vacuous
from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import _term_key, node_policy
from repro.core.fingerprint import clear_fingerprint_cache, dependency_fingerprints
from repro.core.results import condition_verdicts
from repro.core.temporal import TemporalPredicate, globally
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.routing.algebra import Network
from repro.verify import Modular, verify


@pytest.fixture(scope="module")
def reach():
    return registry.build("fattree/reach", pods=4).annotated


def _counting(calls: Counter, key, predicate: TemporalPredicate) -> TemporalPredicate:
    def evaluate(route, time):
        calls[key] += 1
        return predicate(route, time)

    return TemporalPredicate(evaluate, max_witness=predicate.max_witness)


def _counted_copy(reach: AnnotatedNetwork, calls: Counter, merge=None) -> AnnotatedNetwork:
    """``reach`` rebuilt so every policy and annotation callable counts its calls."""
    network = reach.network
    merge = merge or network.merge

    def initial(node):
        calls["initial"] += 1
        return network.initial_route(node)

    def counted_merge(left, right):
        calls["merge"] += 1
        return merge(left, right)

    counted = Network(
        network.topology,
        network.route_shape,
        initial,
        network.transfer_function,
        counted_merge,
        network.symbolics,
    )
    return AnnotatedNetwork(
        counted,
        {n: _counting(calls, ("interface", n), reach.interface(n)) for n in reach.nodes},
        {n: _counting(calls, ("property", n), reach.node_property(n)) for n in reach.nodes},
        minimum_time_width=reach.minimum_time_width,
    )


def _fresh_nodes(report):
    return {
        result.node
        for node_report in report.node_reports.values()
        for result in node_report.results
        if not result.reused
    }


def test_an_edit_evaluates_only_the_edited_interface(reach, tmp_path):
    calls: Counter = Counter()
    annotated = _counted_copy(reach, calls)
    store = str(tmp_path / "delta.json")
    assert verify(annotated, Modular(delta="reuse", store=store)).passed
    assert calls["merge"] > 0 and calls["initial"] > 0

    topology = annotated.network.topology
    edited_node = annotated.nodes[len(annotated.nodes) // 2]
    successors = {n for n in annotated.nodes if edited_node in topology.predecessors(n)}
    positions = {topology.predecessors(n).index(edited_node) for n in successors}
    edited = annotated.with_interface(
        edited_node, _counting(calls, "edited", globally(lambda route: route.is_none))
    )
    calls.clear()
    report = verify(edited, Modular(delta="reuse", store=store))
    calls = Counter(calls)  # the full-engine run below counts too

    assert _fresh_nodes(report) == {edited_node} | successors
    assert condition_verdicts(report) == condition_verdicts(verify(edited, Modular()))
    # No policy is evaluated again — not even the re-checked nodes' (their
    # ``Network`` is the same object) — and no annotation but the new one,
    # which is applied once per distinct (route, time) it is read at: its own
    # route, initial route and update, plus the query route of each position
    # it holds among its successors' predecessors.
    assert calls["merge"] == 0 and calls["initial"] == 0
    assert calls["edited"] == 3 + len(positions)
    assert set(calls) == {"edited"}


def test_a_rebuilt_network_misses_the_memo(reach, tmp_path):
    """Every policy edit is a new ``Network``: its fingerprints are rebuilt."""
    calls: Counter = Counter()
    annotated = _counted_copy(reach, calls)
    store = str(tmp_path / "delta.json")
    assert verify(annotated, Modular(delta="reuse", store=store)).passed
    before = dependency_fingerprints(annotated, annotated.nodes)

    # Same topology, same annotation *objects*, a merge that ignores every
    # neighbour: only the ``Network`` tells the two apart.
    broken_network = _counted_copy(reach, calls, merge=lambda left, right: left).network
    broken = AnnotatedNetwork(
        broken_network,
        {n: annotated.interface(n) for n in annotated.nodes},
        {n: annotated.node_property(n) for n in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
    )
    calls.clear()
    after = dependency_fingerprints(broken, broken.nodes)
    assert calls["merge"] > 0
    # Fingerprints move only where the merge fold does.
    folded = {
        node
        for node in annotated.nodes
        if _term_key(node_policy(broken_network, node).updated)
        != _term_key(node_policy(annotated.network, node).updated)
    }
    changed = {node for node in annotated.nodes if before[node] != after[node]}
    assert changed and changed <= folded

    report = verify(broken, Modular(delta="reuse", store=store))
    full = verify(broken, Modular())
    assert not full.passed
    assert condition_verdicts(report) == condition_verdicts(full)
    assert set(full.failed_nodes) <= _fresh_nodes(report)


def test_edit_stream_in_one_process_matches_the_full_engine(reach, tmp_path):
    """Edit, revert, a different edit on the same node, edits elsewhere."""
    store = str(tmp_path / "delta.json")
    node = reach.nodes[len(reach.nodes) // 2]
    stream = [
        reach,
        inject_interface_failure(reach, node)[0],
        reach,
        make_interface_vacuous(reach, node)[0],
        lower_witness_time(reach)[0],
        inject_interface_failure(make_interface_vacuous(reach, node)[0], reach.nodes[-1])[0],
        reach.with_property_as_interface(),
        reach,
    ]
    clear_fingerprint_cache()
    reused = 0
    for position, annotated in enumerate(stream):
        delta = verify(annotated, Modular(delta="reuse", store=store))
        assert condition_verdicts(delta) == condition_verdicts(verify(annotated, Modular())), position
        reused += delta.conditions_reused
    assert delta.conditions_reused == delta.conditions_checked
    assert reused > 0
