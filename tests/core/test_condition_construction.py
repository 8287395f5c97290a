"""Condition construction costs what a condition mentions.

Three guards on the n-ary, build-once condition builders:

* a *term identity oracle* — the left-fold builders the n-ary ones replaced
  are kept here verbatim, and every condition of every registry network must
  be the very same interned term they produce (the canonical ones after the
  conftest's independent ``sliced_and_renamed``);
* *count-based scaling gates* — operands visited by ``builder.and_`` per
  node may at most double when the network's symbolics double, and stay
  flat (within 10%) for the canonical conditions, which slice before joining;
* *memo safety* — what is computed once per network or per annotation set is
  recomputed for every new instance and never hides the reserved-prefix check.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro import core
from repro.core.annotations import AnnotatedNetwork
from repro.core.numbering import destination_numbering
from repro.core.conditions import (
    INDUCTIVE,
    INITIAL,
    SAFETY,
    VC_PREFIX,
    VerificationCondition,
    _query_part,
    _query_time,
    canonical_node_conditions,
    inductive_condition,
    initial_condition,
    node_conditions,
    safety_condition,
)
from repro.core.fingerprint import clear_fingerprint_cache
from repro.errors import VerificationError
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.routing import path_topology, shortest_path_network
from repro.routing.algebra import SymbolicVariable
from repro.smt import builder
from repro.smt.terms import OP_AND, free_variables
from repro.symbolic import SymBV, SymBool, any_of

# ---------------------------------------------------------------------------
# The oracle: the left-fold builders, verbatim from before the n-ary rewrite.
# ---------------------------------------------------------------------------


def _oracle_symbolic_constraints(network: Any) -> SymBool:
    constraint = SymBool.true()
    for symbolic in network.symbolics:
        constraint = constraint & symbolic.constraint
    return constraint


def _oracle_network_symbolics(annotated: AnnotatedNetwork) -> tuple[SymBool, dict[str, Any]]:
    reserved = [
        symbolic.name
        for symbolic in annotated.network.symbolics
        if symbolic.name.startswith(VC_PREFIX)
    ]
    if reserved:
        raise VerificationError(f"symbolic variable names {reserved} use the reserved prefix")
    assumptions = _oracle_symbolic_constraints(annotated.network)
    values = {symbolic.name: symbolic.value for symbolic in annotated.network.symbolics}
    return assumptions, values


def _oracle_initial_condition(annotated: AnnotatedNetwork, node: str) -> VerificationCondition:
    network = annotated.network
    width = annotated.time_width()
    assumptions, symbolics = _oracle_network_symbolics(annotated)
    initial_route = network.initial_route(node)
    zero = SymBV.constant(0, width)
    goal = annotated.interface(node)(initial_route, zero)
    return VerificationCondition(
        node=node,
        kind=INITIAL,
        assumptions=assumptions,
        goal=goal,
        node_route=initial_route,
        symbolics=symbolics,
    )


def _oracle_inductive_condition(
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> VerificationCondition:
    network = annotated.network
    width = annotated.time_width(delay)
    assumptions, symbolics = _oracle_network_symbolics(annotated)

    time_variable = _query_time(width)
    max_time = (1 << width) - 1
    assumptions = assumptions & (time_variable <= max_time - delay - 1)

    neighbor_routes: dict[str, Any] = {}
    for position, neighbor in enumerate(network.topology.predecessors(node)):
        route = _query_part(network, position)[0]
        neighbor_routes[neighbor] = route
        assumptions = assumptions & network.route_shape.constraint(route)
        interface = annotated.interface(neighbor)
        sent_at_some_step = any_of(
            interface(route, time_variable + step) for step in range(delay + 1)
        )
        assumptions = assumptions & sent_at_some_step

    new_route = network.updated_route(node, neighbor_routes)
    goal = annotated.interface(node)(new_route, time_variable + (delay + 1))

    return VerificationCondition(
        node=node,
        kind=INDUCTIVE,
        assumptions=assumptions,
        goal=goal,
        time=time_variable,
        reported_time_offset=delay + 1,
        neighbor_routes=neighbor_routes,
        node_route=new_route,
        symbolics=symbolics,
    )


def _oracle_safety_condition(annotated: AnnotatedNetwork, node: str) -> VerificationCondition:
    network = annotated.network
    width = annotated.time_width()
    assumptions, symbolics = _oracle_network_symbolics(annotated)

    time_variable = _query_time(width)
    route = _query_part(network)[0]
    assumptions = assumptions & network.route_shape.constraint(route)
    assumptions = assumptions & annotated.interface(node)(route, time_variable)
    goal = annotated.node_property(node)(route, time_variable)

    return VerificationCondition(
        node=node,
        kind=SAFETY,
        assumptions=assumptions,
        goal=goal,
        time=time_variable,
        node_route=route,
        symbolics=symbolics,
    )


def _oracle_node_conditions(
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> list[VerificationCondition]:
    return [
        _oracle_initial_condition(annotated, node),
        _oracle_inductive_condition(annotated, node, delay=delay),
        _oracle_safety_condition(annotated, node),
    ]


def _oracle_canonical_node_conditions(
    annotated: AnnotatedNetwork, node: str, sliced_and_renamed: Any, delay: int = 0
) -> list[VerificationCondition]:
    marker = annotated.destination_symmetry
    if marker is None:
        conditions = _oracle_node_conditions(annotated, node, delay=delay)
    else:
        with destination_numbering(marker.numbering(node)):
            conditions = _oracle_node_conditions(annotated, node, delay=delay)
    return sliced_and_renamed(annotated.network, conditions)


# ---------------------------------------------------------------------------
# (a) Term identity
# ---------------------------------------------------------------------------

#: Every registry network at its smallest size, the all-pairs variant (the
#: only one built in a node-relative destination numbering), and the wide-area shape
#: whose 50-conjunct precondition is what the n-ary builders are for.
_IDENTITY_CASES = [
    *(
        pytest.param(name, {"pods": 4} if name.startswith("fattree/") else {}, id=name)
        for name in registry.benchmark_names()
        if not name.startswith("wan/")
    ),
    pytest.param("fattree/reach", {"pods": 4, "all_pairs": True}, id="fattree/reach-all-pairs"),
    pytest.param(
        "wan/block_to_external", {"internal_routers": 3, "external_peers": 1}, id="wan-smallest"
    ),
    pytest.param("wan/reach", {"internal_routers": 10, "external_peers": 40}, id="wan/reach-10+40"),
]


def _assert_same_terms(built: list[VerificationCondition], oracle: list[VerificationCondition]):
    assert [condition.kind for condition in built] == [condition.kind for condition in oracle]
    for condition, expected in zip(built, oracle):
        where = f"{condition.node}/{condition.kind}"
        assert condition.assumptions.term is expected.assumptions.term, where
        assert condition.goal.term is expected.goal.term, where


@pytest.mark.parametrize("delay", (0, 1))
@pytest.mark.parametrize("name, parameters", _IDENTITY_CASES)
def test_conditions_are_the_left_fold_oracles_terms(name, parameters, delay, sliced_and_renamed):
    annotated = registry.build(name, **parameters).annotated
    for node in annotated.nodes:
        _assert_same_terms(
            node_conditions(annotated, node, delay=delay),
            _oracle_node_conditions(annotated, node, delay=delay),
        )
        _assert_same_terms(
            canonical_node_conditions(annotated, node, delay=delay),
            _oracle_canonical_node_conditions(annotated, node, sliced_and_renamed, delay=delay),
        )


def test_an_assumption_that_is_a_precondition_conjunct_touches_nothing(sliced_and_renamed):
    """``n0``'s interface is the precondition conjunct ``first``, so ``n1``'s
    inductive assumptions hold ``first`` twice when joined whole.  Sliced, it
    stays only where its component is touched by something else, as in a
    condition that joins the whole precondition and slices it afterwards."""
    first, second = SymBool.fresh("first"), SymBool.fresh("second")
    network = shortest_path_network(path_topology(3), "n0").with_symbolics(
        SymbolicVariable("first", first, first), SymbolicVariable("second", second, second)
    )
    interfaces = {
        "n0": core.globally(lambda route: first),
        "n1": core.globally(lambda route: route.is_some),
        "n2": core.globally(lambda route: route.is_some | second),
    }
    annotated = core.annotate(network, interfaces)
    for node in annotated.nodes:
        _assert_same_terms(
            canonical_node_conditions(annotated, node),
            sliced_and_renamed(network, node_conditions(annotated, node)),
        )
    inductive = canonical_node_conditions(annotated, "n1")[1].assumptions.term
    symbolic = [name for name in free_variables(inductive) if name.startswith("vc$symbolic")]
    assert len(symbolic) == 1  # ``second``'s, read by n2's interface


# ---------------------------------------------------------------------------
# (b) Count-based scaling gate
# ---------------------------------------------------------------------------


def _and_operands_per_node(external_peers: int, monkeypatch, build=node_conditions) -> float:
    """Flattened operands ``builder.and_`` visits per node of ``wan/reach``
    while ``build`` builds every node's conditions."""
    annotated = registry.build(
        "wan/reach", internal_routers=10, external_peers=external_peers
    ).annotated
    visited = 0
    original = builder.and_

    def counting_and(*args):
        nonlocal visited
        visited += sum(len(arg.args) if arg.op == OP_AND else 1 for arg in args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(builder, "and_", counting_and)
        for node in annotated.nodes:
            build(annotated, node)
    return visited / len(annotated.nodes)


def test_conjunction_work_per_node_at_most_doubles_with_the_network(monkeypatch):
    per_node = [_and_operands_per_node(peers, monkeypatch) for peers in (20, 40, 80)]
    for smaller, larger in zip(per_node, per_node[1:]):
        # The precondition has one conjunct per peer, so linear is the floor;
        # the left fold re-flattened it per conjunct added and grew ≈ 4x.
        assert larger <= 2.5 * smaller, per_node


def test_canonical_conjunction_work_per_node_is_flat_in_the_peers(monkeypatch):
    """A canonical condition joins only the precondition components it reads,
    so its ``and_`` work per node does not grow with the peers (joining the
    whole precondition first and slicing after read 310 → 627 → 1,425)."""
    per_node = []
    for peers in (40, 120, 320):
        clear_fingerprint_cache()
        per_node.append(_and_operands_per_node(peers, monkeypatch, canonical_node_conditions))
    for smaller, larger in zip(per_node, per_node[1:]):
        assert larger <= 1.1 * smaller, per_node


# ---------------------------------------------------------------------------
# (c) Memo safety
# ---------------------------------------------------------------------------


def _path_annotated(network=None) -> AnnotatedNetwork:
    topology = path_topology(3)
    if network is None:
        network = shortest_path_network(topology, "n0")
    interfaces = {
        node: core.finally_(index, core.globally(lambda r: r.is_some))
        for index, node in enumerate(topology.nodes)
    }
    return core.annotate(network, interfaces)


def test_with_symbolics_builds_its_own_precondition():
    original = _path_annotated()
    flag = SymBool.fresh("flag")
    # Ask the original first, so anything memoised is memoised before the copy exists.
    before = original.network.symbolic_constraints().term
    assert initial_condition(original, "n1").assumptions.term is before

    extended_network = original.network.with_symbolics(SymbolicVariable("flag", flag, flag))
    extended = _path_annotated(extended_network)
    assert extended_network.symbolic_constraints().term is (SymBool(before) & flag).term
    for condition in node_conditions(extended, "n1"):
        conjuncts = condition.assumptions.term
        assert flag.term is conjuncts or flag.term in conjuncts.args
        assert condition.symbolics == {"flag": flag}

    assert original.network.symbolic_constraints().term is before
    for condition in node_conditions(original, "n1"):
        assert flag.term is not condition.assumptions.term
        assert flag.term not in condition.assumptions.term.args
        assert condition.symbolics == {}


def test_reserved_prefix_raises_from_every_builder_every_time():
    clean = _path_annotated()
    node_conditions(clean, "n1")  # a clean network built first must not mask the check

    offending = _path_annotated(
        clean.network.with_symbolics(SymbolicVariable("vc$time", SymBool.fresh("clash")))
    )
    builders = (initial_condition, inductive_condition, safety_condition)
    for _ in range(2):
        for build in builders:
            with pytest.raises(VerificationError, match="reserved prefix"):
                build(offending, "n1")
    node_conditions(clean, "n1")


def test_max_witness_time_is_per_annotation_set():
    original = _path_annotated()
    assert original.max_witness_time() == 2
    injected, poisoned = inject_interface_failure(original, "n2")
    assert poisoned == "n2"
    # n2 carried the largest witness; the copy no longer has it.
    assert injected.max_witness_time() == 1
    assert original.max_witness_time() == 2
    assert original.with_property_as_interface().max_witness_time() == 0
