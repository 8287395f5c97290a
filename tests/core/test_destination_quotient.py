"""Regression tests for the destination-permutation symmetry quotient.

All-pairs benchmarks bake per-node ``dest == k`` constants into every
interface, so no two nodes are term-identical and the answer memo finds
little to share.  The destination quotient builds each node's conditions in
its own destination numbering and collapses the partition to a handful of
role classes.
These tests pin:

* the partition itself (fewer classes than distinct raw condition sets for
  every k=4 all-pairs policy, ≤ 25% of them for Reach; canonical conditions
  term-identical across class members; singletons without the marker);
* the headline soundness claim — verdicts are byte-identical to the raw
  per-node reference (``reference_report``), under both modes, on both
  passing and failing networks (the latter exercises the per-member raw
  re-check of a failing class, whose counterexamples are each member's
  own), with ``quotient`` provenance exactly where the representative has a
  destination numbering;
* a failing numbered build re-discharges raw: its counterexample is in the
  network's own destination numbering;
* the guard: a member whose own verdicts differ from its class's raises;
* numbered builds under ``off``: no more queries reach the solver than
  ``classes`` discharges, and the reference builds nothing numbered;
* fingerprint stability across class members, the property that lets delta
  reuse compose with the quotient.
"""

from dataclasses import replace

import pytest

from repro.core import checker
from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import canonical_node_conditions, memo_statistics, node_conditions
from repro.core.fingerprint import node_condition_fingerprints
from repro.core.results import condition_verdicts
from repro.core.symmetry import partition_nodes
from repro.core.temporal import globally
from repro.errors import VerificationError
from repro.networks import registry
from repro.networks.benchmarks import POLICIES
from repro.smt.incremental import IncrementalSolver
from repro.verify import Modular, Session, verify


@pytest.fixture(scope="module")
def ap_bench():
    return registry.build("fattree/reach", pods=4, all_pairs=True).raw


def _verdicts(report):
    return [
        (name, [(result.condition, result.holds) for result in node_report.results])
        for name, node_report in report.node_reports.items()
    ]


def _terms(conditions):
    return tuple((vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id) for vc in conditions)


def _without_marker(annotated):
    """A copy of ``annotated`` with the DestinationSymmetry marker stripped."""
    return AnnotatedNetwork(
        annotated.network,
        {name: annotated.interface(name) for name in annotated.nodes},
        {name: annotated.node_property(name) for name in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
    )


def _poisoned(ap_bench):
    """``ap_bench`` with one edge node's interface made unsatisfiable, *keeping*
    the quotient marker: that node's class fails, and so does a class of
    several members downstream of it."""
    annotated = ap_bench.annotated
    interfaces = {name: annotated.interface(name) for name in annotated.nodes}
    interfaces[ap_bench.fattree.edge_nodes[1]] = globally(lambda r: r.is_none)
    return AnnotatedNetwork(
        annotated.network,
        interfaces,
        {name: annotated.node_property(name) for name in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
        destination_symmetry=annotated.destination_symmetry,
    )


def _vouched_poison(ap_bench):
    """``_poisoned`` with the marker also vouching for the poison, which reads no
    ``dest``: the failing nodes are built in their own numbering."""
    poisoned = _poisoned(ap_bench)
    marker = poisoned.destination_symmetry
    poison = poisoned.interface(ap_bench.fattree.edge_nodes[1])
    return AnnotatedNetwork(
        poisoned.network,
        {name: poisoned.interface(name) for name in poisoned.nodes},
        {name: poisoned.node_property(name) for name in poisoned.nodes},
        minimum_time_width=poisoned.minimum_time_width,
        destination_symmetry=replace(marker, vouched={**marker.vouched, id(poison): poison}),
    )


def _failures(report):
    return [
        (node, result.condition, result.holds)
        for node, node_report in report.node_reports.items()
        for result in node_report.results
        if not result.holds
    ]


class TestQuotientPartition:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_partition_is_much_coarser_than_the_raw_queries(self, policy):
        annotated = registry.build(f"fattree/{policy}", pods=4, all_pairs=True).annotated
        quotient_classes = partition_nodes(annotated, annotated.nodes)
        # What the answer memo alone would share: nodes whose raw conditions
        # are term-identical.
        raw_queries = {_terms(node_conditions(annotated, node)) for node in annotated.nodes}
        # At k=4 every all-pairs policy quotients to fewer classes than it
        # has distinct raw condition sets (3 vs 13 for Reach, Len and Vf,
        # 4 vs 14 for Hijack); for Reach the quotient needs at most 25% of them.
        assert len(quotient_classes) < len(raw_queries)
        if policy == "reach":
            assert 4 * len(quotient_classes) <= len(raw_queries)
        # Every class was formed through the quotient: its members built
        # term-identical canonical conditions.
        assert annotated.destination_symmetry is not None
        for cls in quotient_classes:
            assert len({_terms(canonical_node_conditions(annotated, node)) for node in cls}) == 1
        # Same node coverage, deterministic member order.
        covered = [member for cls in quotient_classes for member in cls]
        assert sorted(covered) == sorted(annotated.nodes)

    def test_without_the_marker_every_node_is_its_own_class(self, ap_bench):
        annotated = _without_marker(ap_bench.annotated)
        built = memo_statistics()["canonical_conditions"]
        classes = partition_nodes(annotated, annotated.nodes)
        assert classes == [(node,) for node in annotated.nodes]
        assert annotated.destination_symmetry is None
        # The singleton partition builds nothing.
        assert memo_statistics()["canonical_conditions"] == built

    def test_class_members_share_canonical_conditions_and_fingerprints(self, ap_bench):
        annotated = ap_bench.annotated
        classes = partition_nodes(annotated, annotated.nodes)
        largest = max(classes, key=len)
        assert len(largest) >= 2
        rep, member = largest[0], largest[-1]
        rep_conditions = canonical_node_conditions(annotated, rep)
        member_conditions = canonical_node_conditions(annotated, member)
        # Conditions built in each node's own numbering are *term-identical*
        # (hash-consed), though the raw ones bake in different constants.
        assert _terms(rep_conditions) == _terms(member_conditions)
        # ... hence identical condition fingerprints: the property that lets
        # the delta store reuse verdicts across destination permutations.
        assert node_condition_fingerprints(annotated, rep) == node_condition_fingerprints(
            annotated, member
        )


def _quotients(annotated, report):
    """Every result's ``quotient`` against what its representative's numbering implies."""
    representative = {}
    if report.symmetry == "classes":
        for cls in partition_nodes(annotated, annotated.nodes):
            representative.update(dict.fromkeys(cls, cls[0]))
    return [
        (
            result.quotient,
            "destination"
            if annotated.destination_numbering(representative.get(node, node)) is not None
            else None,
        )
        for node, node_report in report.node_reports.items()
        for result in node_report.results
    ]


class TestQuotientVerdicts:
    def test_passing_ap_verdicts_byte_identical_to_the_reference(self, ap_bench, reference_report):
        annotated = ap_bench.annotated
        reference = reference_report(annotated)
        for symmetry in ("off", "classes"):
            report = verify(annotated, Modular(symmetry=symmetry))
            assert report.passed, symmetry
            assert _verdicts(report) == _verdicts(reference), symmetry
            assert list(report.node_reports) == list(reference.node_reports), symmetry
            # Provenance follows the representative's numbering: the marker
            # vouches for every node here, so every verdict is numbered.
            quotients = _quotients(annotated, report)
            assert all(result == expected for result, expected in quotients), symmetry
            assert {result for result, _ in quotients} == {"destination"}, symmetry

    def test_failing_class_members_report_their_own_counterexamples(self, ap_bench, reference_report):
        injected = _poisoned(ap_bench)
        marker = injected.destination_symmetry
        reference = reference_report(injected)
        off = verify(injected, Modular(symmetry="off"))
        classes = verify(injected, Modular(symmetry="classes"))
        assert not off.passed and not classes.passed
        # The failing (node, condition, holds) triples are the reference's.
        for report in (off, classes):
            assert _failures(report) == _failures(reference)
            assert condition_verdicts(report) == condition_verdicts(reference)
            assert all(result == expected for result, expected in _quotients(injected, report))
        # A failing class propagates nothing: each failing member discharged
        # its own raw conditions, and its counterexample is its own model.
        topology = injected.network.topology
        failing = [
            result
            for report in classes.node_reports.values()
            for result in report.results
            if not result.holds
        ]
        assert len({result.node for result in failing}) > 1
        for result in failing:
            assert result.propagated_from is None
            example = result.counterexample
            assert example is not None and example.node == result.node
            if result.condition == "inductive":
                assert sorted(example.neighbor_routes) == sorted(
                    topology.predecessors(result.node)
                )
            assert 0 <= example.symbolics[marker.variable] < marker.size
        # Some failing class has several members (one class, several
        # discharges of their own).
        classes_by_node = {
            member: cls for cls in partition_nodes(injected, injected.nodes) for member in cls
        }
        assert any(len(classes_by_node[result.node]) > 1 for result in failing)

    @pytest.mark.parametrize("symmetry", ("off", "classes"))
    def test_a_failing_numbered_build_is_re_discharged_raw(self, ap_bench, symmetry, reference_report):
        injected = _vouched_poison(ap_bench)
        edge = ap_bench.fattree.edge_nodes[1]
        assert injected.destination_numbering(edge) is not None
        reference = reference_report(injected)
        report = verify(injected, Modular(symmetry=symmetry))
        assert _failures(report) == _failures(reference) != []
        assert all(result == expected for result, expected in _quotients(injected, report))
        (initial,) = report.node_reports[edge].failures
        assert initial.condition == "initial" and initial.quotient == "destination"
        # The edge's route exists at time 0 exactly for its own raw index; in
        # its numbering that index is 0, so only a raw model names index 1.
        variable = injected.destination_symmetry.variable
        assert initial.counterexample.symbolics[variable] == 1

    def test_a_member_whose_own_verdicts_differ_from_its_class_raises(self, ap_bench, monkeypatch):
        injected = _poisoned(ap_bench)
        shared = [
            cls
            for cls in partition_nodes(injected, injected.nodes)
            if len(cls) > 1 and not checker.check_class(injected, cls)[0].passed
        ]
        assert shared
        member = shared[0][-1]
        holding = node_conditions(_without_marker(ap_bench.annotated), member)
        original = checker.node_conditions

        def member_holds(annotated, node, delay=0):
            # The member's raw conditions now hold, against its class's failure.
            return holding if node == member else original(annotated, node, delay=delay)

        monkeypatch.setattr(checker, "node_conditions", member_holds)
        with pytest.raises(VerificationError, match=repr(member)):
            verify(injected, Modular(symmetry="classes"))


@pytest.mark.parametrize("policy", POLICIES)
def test_off_reaches_the_solver_no_more_than_classes_discharges(policy, monkeypatch, reference_report):
    """Every mode builds a node in its own numbering: on an all-pairs fattree
    ``off`` poses isomorphic nodes one query, which the answer memo answers
    once, so no more queries reach the solver than ``classes`` discharges.
    The raw reference builds nothing numbered."""
    annotated = registry.build(f"fattree/{policy}", pods=4, all_pairs=True).annotated
    reports = {}
    for symmetry in ("off", "classes"):
        with Session(annotated, Modular(symmetry=symmetry), solver=IncrementalSolver()) as session:
            reports[symmetry] = session.run()
    answered = reports["off"].conditions_discharged - reports["off"].backend_cache["answer_hits"]
    assert answered <= reports["classes"].conditions_discharged

    def numbered(*args, **kwargs):
        raise AssertionError("the reference built a numbered condition")

    monkeypatch.setattr(checker, "canonical_node_conditions", numbered)
    with pytest.raises(AssertionError, match="numbered"):
        verify(annotated, Modular())
    assert condition_verdicts(reference_report(annotated)) == condition_verdicts(reports["off"])
