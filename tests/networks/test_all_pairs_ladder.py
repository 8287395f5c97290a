"""``dist(v)`` of the all-pairs fattrees, held to the topology.

The ``Ap`` witness time is a ladder over the symbolic destination index.
Every expectation here comes from
:meth:`~repro.networks.fattree.Fattree.distance_to_destination`, and terms
are evaluated concretely, with no solver:

* for every in-range destination index the ladder is the node's hop count;
* a ladder mentions at most ``pods // 2`` destination atoms (one per edge
  node would be ``pods**2 // 2``);
* a core node's interface does not mention the destination at all;
* every condition assumes ``dest < size``, the premise under which a
  ladder's default case covers exactly its own hop-count group.
"""

import pytest

from repro.core import always_true
from repro.core.conditions import node_conditions
from repro.networks import registry
from repro.networks.benchmarks import COMPACT_WIDTHS, POLICIES, SymbolicDestination
from repro.networks.fattree import Fattree
from repro.routing.bgp import bgp_route_family
from repro.smt.terms import OP_AND, OP_EQ, free_variables
from repro.smt.walker import evaluate
from repro.symbolic import SymBool, SymBV

PODS = (2, 4, 6)


def _ladders(pods):
    """The fattree, its symbolic destination, and each node's ``dist`` term."""
    fattree = Fattree(pods)
    destination = SymbolicDestination(fattree, bgp_route_family(**COMPACT_WIDTHS))
    route = destination.family.route.fresh("route")
    time = SymBV.fresh(5, "time")
    ladders = {}
    for node in fattree.nodes:
        read = []
        interface = destination.until(
            node, lambda route: SymBool.true(), lambda distance: read.append(distance) or always_true()
        )
        interface(route, time)
        ladders[node] = read[0].term
    return fattree, destination, ladders


def _destination_constants(term, destination):
    """The distinct ``k`` of the ``dest == k`` atoms in ``term``."""
    constants, stack, seen = set(), [term], set()
    while stack:
        current = stack.pop()
        if current.term_id in seen:
            continue
        seen.add(current.term_id)
        if current.op == OP_EQ and any(arg is destination for arg in current.args):
            constants.update(arg.bv_value() for arg in current.args if arg is not destination)
        stack.extend(current.args)
    return constants


@pytest.mark.parametrize("pods", PODS)
def test_every_ladder_evaluates_to_the_hop_count(pods):
    fattree, destination, ladders = _ladders(pods)
    name = destination.index.term.var_name()
    for node, ladder in ladders.items():
        for index, edge_node in enumerate(fattree.edge_nodes):
            expected = fattree.distance_to_destination(node, edge_node)
            assert evaluate(ladder, {name: index}) == expected, (node, edge_node)


@pytest.mark.parametrize("pods", PODS)
def test_no_ladder_mentions_more_than_half_a_pod_of_atoms(pods):
    _, destination, ladders = _ladders(pods)
    for node, ladder in ladders.items():
        assert len(_destination_constants(ladder, destination.index.term)) <= pods // 2, node


def _all_pairs(policy, pods):
    built = registry.build(f"fattree/{policy}", pods=pods, all_pairs=True)
    (dest,) = [s for s in built.annotated.network.symbolics if s.name == "dest"]
    return built, dest


@pytest.mark.parametrize("pods", PODS)
@pytest.mark.parametrize("policy", POLICIES)
def test_core_interfaces_do_not_mention_the_destination(policy, pods):
    built, dest = _all_pairs(policy, pods)
    route = built.raw.family.route.fresh("route")
    time = SymBV.fresh(5, "time")
    for node in built.raw.fattree.core_nodes:
        term = built.annotated.interface(node)(route, time).term
        assert dest.value.term.var_name() not in free_variables(term), node


@pytest.mark.parametrize("pods", PODS)
@pytest.mark.parametrize("policy", POLICIES)
def test_every_condition_assumes_the_destination_range(policy, pods):
    built, dest = _all_pairs(policy, pods)
    in_range = dest.constraint.term
    for node in built.annotated.nodes:
        for condition in node_conditions(built.annotated, node):
            assumptions = condition.assumptions.term
            conjuncts = assumptions.args if assumptions.op == OP_AND else (assumptions,)
            assert any(conjunct is in_range for conjunct in conjuncts), (node, condition.kind)
