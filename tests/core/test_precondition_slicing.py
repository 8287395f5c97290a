"""Canonical conditions keep only the precondition components they read.

:func:`~repro.core.conditions.canonical_node_conditions` slices a
precondition of two or more variable-sharing components to the ones each
condition shares a variable with, and names every symbolic variable by
position.  These tests hold that to three promises:

* isomorphic WAN peers pose one query whatever the network's size;
* a sliced failure is only a candidate: where the precondition is
  unsatisfiable every raw condition holds vacuously, and every mode (and the
  delta store) decides what the raw reference run decides;
* positional names are injective: two symbolics whose variables sit at the
  same place in their values keep apart.
"""

import pytest

from repro import core, smt
from repro.core.conditions import canonical_node_conditions, node_conditions
from repro.core.results import condition_verdicts
from repro.networks import registry
from repro.routing import path_topology, shortest_path_network
from repro.routing.algebra import SymbolicVariable
from repro.smt.terms import free_variables
from repro.symbolic import BitVecShape, BoolShape, SymBV, record
from repro.verify import Modular, verify

MODES = [
    dict(symmetry=symmetry, parallel=parallel)
    for symmetry in ("off", "classes")
    for parallel in (1, 2)
]


def _terms(conditions):
    return [(vc.kind, vc.assumptions.term, vc.goal.term) for vc in conditions]


def test_a_peers_canonical_query_is_the_same_at_40_and_120_peers():
    small, large = (
        registry.build("wan/reach", internal_routers=10, external_peers=peers).annotated
        for peers in (40, 120)
    )
    canonical = _terms(canonical_node_conditions(small, "peer0"))
    assert all(
        built is expected
        for ours, theirs in zip(canonical, _terms(canonical_node_conditions(large, "peer0")))
        for built, expected in zip(ours, theirs)
    )
    # Every peer of one network poses that query too; the raw ones differ.
    assert _terms(canonical_node_conditions(small, "peer1")) == canonical
    assert _terms(node_conditions(small, "peer0")) != _terms(node_conditions(small, "peer1"))


def _two_components(contradictory):
    """A path whose ``a`` constraint may be unsatisfiable; ``b`` is its own component.

    ``n2`` claims it never has a route, which fails unless the precondition
    is unsatisfiable; ``n4``'s interface reads ``b``, so the conditions that
    read it keep ``b``'s component, and no condition reads ``a``.
    """
    topology = path_topology(5)
    a, b = SymBV.variable("a", 3), SymBV.variable("b", 3)
    network = shortest_path_network(topology, "n0").with_symbolics(
        SymbolicVariable("a", a, constraint=(a < 2) & (a > 5) if contradictory else a < 2),
        SymbolicVariable("b", b, constraint=b < 4),
    )
    has_route = core.globally(lambda r: r.is_some)
    interfaces = {node: core.finally_(index, has_route) for index, node in enumerate(topology.nodes)}
    interfaces["n2"] = core.globally(lambda r: r.is_none)
    interfaces["n4"] = core.finally_(4, core.globally(lambda r: r.is_some | (b == 7)))
    return core.annotate(network, interfaces)


@pytest.mark.parametrize("contradictory", [True, False], ids=["unsatisfiable", "satisfiable"])
@pytest.mark.parametrize("options", MODES, ids=lambda o: f"{o['symmetry']}-{o['parallel']}")
def test_every_mode_decides_what_the_raw_reference_decides(contradictory, options, reference_report):
    annotated = _two_components(contradictory)
    reference = reference_report(annotated)
    # Vacuous passes where the precondition is unsatisfiable; n2 fails otherwise.
    assert reference.passed is contradictory
    report = verify(annotated, Modular(**options))
    assert condition_verdicts(report) == condition_verdicts(reference)
    assert tuple(report.node_reports) == tuple(reference.node_reports)


def test_a_vacuous_pass_in_the_store_does_not_serve_a_satisfiable_precondition(
    tmp_path, reference_report
):
    store = str(tmp_path / "store.json")
    vacuous = verify(_two_components(True), Modular(delta="reuse", store=store))
    assert vacuous.passed
    satisfiable = _two_components(False)
    report = verify(satisfiable, Modular(delta="reuse", store=store))
    assert condition_verdicts(report) == condition_verdicts(reference_report(satisfiable))
    assert not report.passed


def test_positional_names_keep_two_symbolics_apart(reference_report):
    """``x.low`` and ``y`` are each the first 2-bit variable of their symbolic.

    ``n1``'s property claims they are equal, which is false; names that
    aliased them would make it hold.
    """
    topology = path_topology(3)
    x = record("Pair", low=BitVecShape(2), flag=BoolShape()).fresh("x")
    y = SymBV.fresh(2, "y")
    network = shortest_path_network(topology, "n0").with_symbolics(
        SymbolicVariable("x", x, constraint=x.low < 3),
        SymbolicVariable("y", y, constraint=y < 3),
    )
    true = core.always_true()
    properties = {node: true for node in topology.nodes}
    properties["n1"] = core.globally(lambda r: x.low == y)
    annotated = core.annotate(network, {node: true for node in topology.nodes}, properties)
    canonical = canonical_node_conditions(annotated, "n1")
    safety = canonical[-1]
    names = set(free_variables(safety.goal.term))
    assert names == {"vc$symbolic.%0.0:BitVec(2)", "vc$symbolic.%1.0:BitVec(2)"}
    for built, raw in zip(canonical, node_conditions(annotated, "n1")):
        assert built.check(smt.Solver()).holds == raw.check(smt.Solver()).holds, built.kind
    assert not safety.check(smt.Solver()).holds
    report = verify(annotated, Modular())
    assert condition_verdicts(report) == condition_verdicts(reference_report(annotated))


def test_a_buggy_wan_reports_raw_counterexamples(reference_report):
    annotated = registry.build("wan/reach", internal_routers=3, external_peers=2, buggy=True).annotated
    reference = reference_report(annotated)
    report = verify(annotated, Modular())
    assert not reference.passed
    assert condition_verdicts(report) == condition_verdicts(reference)
    names = {symbolic.name for symbolic in annotated.network.symbolics}
    for example in report.counterexamples():
        assert set(example.symbolics) == names
