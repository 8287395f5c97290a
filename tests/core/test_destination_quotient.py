"""Regression tests for the destination-permutation symmetry quotient.

All-pairs benchmarks bake per-node ``dest == k`` constants into every
interface, so no two nodes are term-identical and the answer memo finds
little to share.  The destination quotient abstracts those constants into
permutation slots and collapses the partition to a handful of role classes.
These tests pin:

* the partition itself (fewer classes than distinct raw condition sets for
  every k=4 all-pairs policy, ≤ 25% of them for Reach; canonical conditions
  term-identical across class members; singletons without the marker);
* the headline soundness claim — verdicts are byte-identical to
  ``symmetry="off"``, on both passing and failing networks (the latter
  exercises the per-member raw re-check of a failing class, whose
  counterexamples are each member's own);
* the guard: a member whose own verdicts differ from its class's raises;
* fingerprint stability across class members, the property that lets delta
  reuse compose with the quotient.
"""

import pytest

from repro.core import checker
from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import canonical_node_conditions, node_conditions
from repro.core.fingerprint import node_condition_fingerprints
from repro.core.results import condition_verdicts
from repro.core.symmetry import partition_nodes
from repro.core.temporal import globally
from repro.errors import VerificationError
from repro.networks import registry
from repro.networks.benchmarks import POLICIES
from repro.verify import Modular, verify


@pytest.fixture(scope="module")
def ap_bench():
    return registry.build("fattree/reach", pods=4, all_pairs=True).raw


def _verdicts(report):
    return [
        (name, [(result.condition, result.holds) for result in node_report.results])
        for name, node_report in report.node_reports.items()
    ]


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
        raw_queries = {
            tuple(
                (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
                for vc in node_conditions(annotated, node)
            )
            for node in annotated.nodes
        }
        # At k=4 every all-pairs policy quotients to fewer classes than it
        # has distinct raw condition sets (3 vs 13 for Reach, Len and Vf,
        # 4 vs 14 for Hijack); for Reach the quotient needs at most 25% of them.
        assert len(quotient_classes) < len(raw_queries)
        if policy == "reach":
            assert 4 * len(quotient_classes) <= len(raw_queries)
        # Every class was formed through the quotient (all nodes are eligible).
        assert all(cls.destination for cls in quotient_classes)
        # Same node coverage, deterministic member order.
        covered = [member for cls in quotient_classes for member in cls.members]
        assert sorted(covered) == sorted(annotated.nodes)

    def test_without_the_marker_every_node_is_its_own_class(self, ap_bench):
        annotated = _without_marker(ap_bench.annotated)
        classes = partition_nodes(annotated, annotated.nodes)
        assert [cls.members for cls in classes] == [(node,) for node in annotated.nodes]
        assert not any(cls.destination or cls.conditions for cls in classes)

    def test_class_members_share_canonical_conditions_and_fingerprints(self, ap_bench):
        annotated = ap_bench.annotated
        classes = partition_nodes(annotated, annotated.nodes)
        largest = max(classes, key=len)
        assert len(largest) >= 2
        rep, member = largest.members[0], largest.members[-1]
        rep_conditions, rep_witness = canonical_node_conditions(annotated, rep)
        member_conditions, member_witness = canonical_node_conditions(annotated, member)
        assert rep_witness is not None and member_witness is not None
        # Canonicalized conditions are *term-identical* (hash-consed), even
        # though the raw conditions bake in different destination constants.
        assert [
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
            for vc in rep_conditions
        ] == [
            (vc.kind, vc.assumptions.term.term_id, vc.goal.term.term_id)
            for vc in member_conditions
        ]
        # ... hence identical condition fingerprints: the property that lets
        # the delta store reuse verdicts across destination permutations.
        assert node_condition_fingerprints(annotated, rep) == node_condition_fingerprints(
            annotated, member
        )


class TestQuotientVerdicts:
    def test_passing_ap_verdicts_byte_identical_to_off(self, ap_bench):
        annotated = ap_bench.annotated
        off = verify(annotated, Modular(symmetry="off"))
        classes = verify(annotated, Modular(symmetry="classes"))
        assert off.passed and classes.passed
        assert _verdicts(off) == _verdicts(classes)
        assert list(off.node_reports) == list(classes.node_reports)
        # Provenance: every verdict in the classes run travelled through the
        # destination quotient; the off run has no quotient provenance.
        assert {
            result.quotient
            for report in classes.node_reports.values()
            for result in report.results
        } == {"destination"}
        assert {
            result.quotient
            for report in off.node_reports.values()
            for result in report.results
        } == {None}

    def test_failing_class_members_report_their_own_counterexamples(self, ap_bench):
        injected = _poisoned(ap_bench)
        marker = injected.destination_symmetry
        off = verify(injected, Modular(symmetry="off"))
        classes = verify(injected, Modular(symmetry="classes"))
        assert not off.passed and not classes.passed
        # The failing (node, condition, holds) triples are those of ``off``.
        assert _failures(classes) == _failures(off)
        assert condition_verdicts(classes) == condition_verdicts(off)
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
            assert result.quotient == "destination"
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
            member: cls for cls in partition_nodes(injected, injected.nodes) for member in cls.members
        }
        assert any(len(classes_by_node[result.node]) > 1 for result in failing)

    def test_a_member_whose_own_verdicts_differ_from_its_class_raises(self, ap_bench, monkeypatch):
        injected = _poisoned(ap_bench)
        shared = [
            cls
            for cls in partition_nodes(injected, injected.nodes)
            if len(cls) > 1 and not checker.check_class(injected, cls)[0].passed
        ]
        assert shared
        member = shared[0].members[-1]
        holding = node_conditions(_without_marker(ap_bench.annotated), member)
        original = checker.node_conditions

        def member_holds(annotated, node, delay=0):
            # The member's raw conditions now hold, against its class's failure.
            return holding if node == member else original(annotated, node, delay=delay)

        monkeypatch.setattr(checker, "node_conditions", member_holds)
        with pytest.raises(VerificationError, match=repr(member)):
            verify(injected, Modular(symmetry="classes"))
