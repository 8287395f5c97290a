"""Regression tests for the destination-permutation symmetry quotient.

All-pairs benchmarks bake per-node ``dest == k`` constants into every
interface, so no two nodes are term-identical and the hash-only partition
degenerates to near-singletons.  The destination quotient abstracts those
constants into permutation slots and collapses the partition to a handful of
role classes.  These tests pin:

* the permutation algebra (witness slots map across, the rest ascending);
* counterexample re-concretization (:func:`reindex_destination`);
* the partition itself (coarser than hash-only for every k=4 all-pairs
  policy, ≤ 25% of it for Reach; canonical conditions term-identical across
  class members);
* the headline soundness claim — verdicts are byte-identical to
  ``symmetry="off"``, on both passing and failing networks (the latter
  exercises the raw re-check + counterexample translation path);
* fingerprint stability across class members, the property that lets delta
  reuse compose with the quotient.
"""

import pytest

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import canonical_node_conditions
from repro.core.counterexample import Counterexample, reindex_destination
from repro.core.fingerprint import node_condition_fingerprints
from repro.core.symmetry import (
    DestinationQuotient,
    destination_permutation,
    partition_nodes,
)
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
    """A copy of ``annotated`` with the DestinationSymmetry marker stripped,
    forcing the generic hash-only partition."""
    return AnnotatedNetwork(
        annotated.network,
        {name: annotated.interface(name) for name in annotated.nodes},
        {name: annotated.node_property(name) for name in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
    )


class TestPermutationAlgebra:
    def test_witness_slots_map_across_and_rest_ascending(self):
        mapping = destination_permutation((2, 0), (3, 1), 4)
        # Slot constants map slot-to-slot; the unmatched indices {1, 3} and
        # {0, 2} pair up in ascending order.
        assert mapping == {2: 3, 0: 1, 1: 0, 3: 2}

    def test_identity_when_witnesses_agree(self):
        assert destination_permutation((1, 3), (1, 3), 4) == {i: i for i in range(4)}

    def test_mismatched_witness_lengths_are_rejected(self):
        with pytest.raises(VerificationError, match="witnesses disagree"):
            destination_permutation((0,), (1, 2), 4)

    def test_quotient_permutation_uses_member_witnesses(self):
        quotient = DestinationQuotient(
            variable="dest", size=4, witnesses={"a": (0,), "b": (2,)}
        )
        mapping = quotient.permutation("a", "b")
        assert mapping[0] == 2
        assert sorted(mapping) == [0, 1, 2, 3]
        assert sorted(mapping.values()) == [0, 1, 2, 3]


class TestReindexDestination:
    def _example(self, symbolics):
        return Counterexample(node="x", condition="inductive", time=1, symbolics=symbolics)

    def test_maps_destination_through_permutation(self):
        example = self._example({"dest": 1, "other": 5})
        translated = reindex_destination(example, "dest", {1: 3, 3: 1})
        assert translated.symbolics == {"dest": 3, "other": 5}
        assert translated.node == "x" and translated.condition == "inductive"

    def test_missing_or_non_integer_values_pass_through(self):
        untouched = self._example({"other": 5})
        assert reindex_destination(untouched, "dest", {0: 1}) is untouched
        symbolic = self._example({"dest": "unconstrained"})
        assert reindex_destination(symbolic, "dest", {0: 1}) is symbolic

    def test_value_outside_mapping_passes_through(self):
        example = self._example({"dest": 7})
        assert reindex_destination(example, "dest", {0: 1}) is example


class TestQuotientPartition:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_partition_is_much_coarser_than_hash_only(self, policy):
        annotated = registry.build(f"fattree/{policy}", pods=4, all_pairs=True).annotated
        quotient_classes = partition_nodes(annotated, annotated.nodes)
        hash_classes = partition_nodes(_without_marker(annotated), annotated.nodes)
        # At k=4 every all-pairs policy quotients to fewer classes than the
        # hash-only partition (3 vs 13 for Reach, Len and Vf, 4 vs 14 for
        # Hijack); for Reach the quotient needs at most 25% of them.
        assert len(quotient_classes) < len(hash_classes)
        if policy == "reach":
            assert 4 * len(quotient_classes) <= len(hash_classes)
        # Every class carries its quotient (all nodes are eligible) and a
        # witness per member.
        for cls in quotient_classes:
            assert cls.destination is not None
            assert set(cls.destination.witnesses) == set(cls.members)
        # Same node coverage, deterministic member order.
        covered = [member for cls in quotient_classes for member in cls.members]
        assert sorted(covered) == sorted(annotated.nodes)

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

    def test_failing_ap_translates_counterexamples_through_permutation(self, ap_bench):
        annotated = ap_bench.annotated
        marker = annotated.destination_symmetry
        # Poison one edge node's interface *keeping* the quotient marker: the
        # canonical representative instance now fails, forcing the checker's
        # raw re-check for a genuine counterexample, and members re-concretize
        # it through their slot permutations.
        poisoned = ap_bench.fattree.edge_nodes[1]
        interfaces = {name: annotated.interface(name) for name in annotated.nodes}
        interfaces[poisoned] = globally(lambda r: r.is_none)
        injected = AnnotatedNetwork(
            annotated.network,
            interfaces,
            {name: annotated.node_property(name) for name in annotated.nodes},
            minimum_time_width=annotated.minimum_time_width,
            destination_symmetry=marker,
        )
        off = verify(injected, Modular(symmetry="off"))
        classes = verify(injected, Modular(symmetry="classes"))
        assert not off.passed and not classes.passed
        # The headline soundness claim on a failing network: byte-identical
        # verdicts and identical failing node sets.
        assert _verdicts(off) == _verdicts(classes)
        assert off.failed_nodes == classes.failed_nodes
        # At least one failure was propagated (not discharged) — the
        # translation path ran — and every propagated counterexample names
        # its own node with an in-range concrete destination.
        propagated = [
            result
            for report in classes.node_reports.values()
            for result in report.results
            if not result.holds and result.propagated_from is not None
        ]
        assert propagated
        for result in propagated:
            assert result.quotient == "destination"
            example = result.counterexample
            assert example is not None and example.node == result.node
            destination = example.symbolics.get(marker.variable)
            if isinstance(destination, int):
                assert 0 <= destination < marker.size
