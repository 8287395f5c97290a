"""Tests for annotated networks and the three verification conditions."""

import pytest

from repro import core, smt
from repro.core.conditions import inductive_condition, initial_condition, safety_condition
from repro.errors import SolverError, VerificationError
from repro.routing import build_running_example, path_topology, shortest_path_network
from repro.smt.model import Model
from repro.smt.solver import ProofResult


def reach_example():
    """A 3-node path with shortest-path routing, annotated for reachability."""
    topology = path_topology(3)
    network = shortest_path_network(topology, "n0")
    interfaces = {
        node: core.finally_(index, core.globally(lambda r: r.is_some))
        for index, node in enumerate(("n0", "n1", "n2"))
    }
    properties = {
        node: core.finally_(2, core.globally(lambda r: r.is_some)) for node in topology.nodes
    }
    return core.AnnotatedNetwork(network, interfaces, properties)


class TestAnnotatedNetwork:
    def test_missing_interface_detected(self):
        example = build_running_example("none")
        with pytest.raises(VerificationError):
            core.AnnotatedNetwork(example.network, {"n": core.always_true()}, {})

    def test_unknown_node_detected(self):
        example = build_running_example("none")
        complete = {node: core.always_true() for node in example.network.topology.nodes}
        with pytest.raises(VerificationError):
            core.AnnotatedNetwork(example.network, {**complete, "zzz": core.always_true()}, complete)

    def test_callable_annotations(self):
        annotated = core.annotate(
            build_running_example("none").network, lambda node: core.always_true()
        )
        assert annotated.interface("v").max_witness == 0
        assert annotated.node_property("v").max_witness == 0

    def test_unknown_node_lookup(self):
        annotated = reach_example()
        with pytest.raises(VerificationError):
            annotated.interface("missing")
        with pytest.raises(VerificationError):
            annotated.node_property("missing")

    def test_time_width_covers_witness_times(self):
        annotated = reach_example()
        assert annotated.max_witness_time() == 2
        width = annotated.time_width()
        assert (1 << width) - 1 >= annotated.max_witness_time() + 1
        assert annotated.time_width(delay=4) >= annotated.time_width()

    def test_property_as_interface_heuristic(self):
        annotated = reach_example().with_property_as_interface()
        assert annotated.interface("n2").max_witness == 2

    def test_missing_annotation_message_lists_nodes_sorted(self):
        network = shortest_path_network(path_topology(3), "n0")
        with pytest.raises(VerificationError) as excinfo:
            core.AnnotatedNetwork(network, {}, {})
        assert "missing interface annotation for 3 node(s): 'n0', 'n1', 'n2'" in str(
            excinfo.value
        )

    def test_unknown_annotation_message_lists_nodes_sorted(self):
        network = shortest_path_network(path_topology(2), "n0")
        complete = {node: core.always_true() for node in network.topology.nodes}
        extras = {**complete, "zzz": core.always_true(), "aaa": core.always_true()}
        with pytest.raises(VerificationError) as excinfo:
            core.AnnotatedNetwork(network, extras, complete)
        assert "interface annotation given for 2 unknown node(s): 'aaa', 'zzz'" in str(
            excinfo.value
        )

    def test_annotate_defaults_properties_to_true(self):
        example = build_running_example("none")
        annotated = core.annotate(
            example.network, {node: core.always_true() for node in example.network.topology.nodes}
        )
        assert annotated.node_property("e").max_witness == 0


class TestConditionEncodings:
    def test_initial_condition_holds_for_correct_interface(self):
        annotated = reach_example()
        for node in annotated.nodes:
            result = initial_condition(annotated, node).check()
            assert result.holds, node

    def test_initial_condition_fails_for_wrong_interface(self):
        topology = path_topology(2)
        network = shortest_path_network(topology, "n0")
        annotated = core.annotate(
            network, {node: core.globally(lambda r: r.is_some) for node in topology.nodes}
        )
        result = initial_condition(annotated, "n1").check()
        assert not result.holds
        assert result.counterexample is not None
        assert result.counterexample.time == 0
        assert result.counterexample.route is None  # n1 starts with ∞

    def test_inductive_condition_holds(self):
        annotated = reach_example()
        for node in annotated.nodes:
            assert inductive_condition(annotated, node).check().holds, node

    def test_inductive_condition_fails_for_too_strong_interface(self):
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            "n0": core.globally(lambda r: r.is_some),
            # n1 claims it never has a route, but n0 sends it one at time 1.
            "n1": core.globally(lambda r: r.is_none),
            "n2": core.always_true(),
        }
        annotated = core.annotate(network, interfaces)
        result = inductive_condition(annotated, "n1").check()
        assert not result.holds
        counterexample = result.counterexample
        assert counterexample is not None
        assert "n0" in counterexample.neighbor_routes
        assert counterexample.route is not None

    def test_safety_condition_checks_implication(self):
        annotated = reach_example()
        for node in annotated.nodes:
            assert safety_condition(annotated, node).check().holds, node

    def test_safety_condition_fails_when_interface_too_weak(self):
        topology = path_topology(2)
        network = shortest_path_network(topology, "n0")
        annotated = core.AnnotatedNetwork(
            network,
            interfaces={node: core.always_true() for node in topology.nodes},
            properties={node: core.globally(lambda r: r.is_some) for node in topology.nodes},
        )
        result = safety_condition(annotated, "n1").check()
        assert not result.holds
        assert result.counterexample is not None

    def test_a_model_that_does_not_refute_the_condition_is_no_verdict(self, monkeypatch):
        # The inductive condition of n1 holds, so no model satisfies its
        # assumptions and falsifies its goal: a solver that claims one is wrong.
        condition = inductive_condition(reach_example(), "n1")
        assert condition.check().holds
        monkeypatch.setattr(smt, "prove", lambda *terms, **options: ProofResult(False, Model({})))
        with pytest.raises(SolverError, match="inductive condition of 'n1'"):
            condition.check()

    def test_negative_delay_rejected(self):
        with pytest.raises(VerificationError):
            inductive_condition(reach_example(), "n0", delay=-1)

    def test_node_conditions_produces_all_three(self):
        annotated = reach_example()
        kinds = [condition.kind for condition in core.node_conditions(annotated, "n1")]
        assert kinds == [core.INITIAL, core.INDUCTIVE, core.SAFETY]


class TestDelayExtension:
    def test_delay_preserves_valid_reachability_interfaces_with_slack(self):
        """With one unit of delay, interfaces need one extra time step of slack."""
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        # Allow each node twice the synchronous time to account for delay.
        interfaces = {
            node: core.finally_(2 * index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(("n0", "n1", "n2"))
        }
        annotated = core.annotate(network, interfaces)
        for node in annotated.nodes:
            assert inductive_condition(annotated, node, delay=1).check().holds, node

    def test_tight_interfaces_fail_under_delay(self):
        """The exact synchronous witness times are too strong once delay is allowed."""
        annotated = reach_example()
        results = [
            inductive_condition(annotated, node, delay=1).check().holds
            for node in annotated.nodes
        ]
        assert not all(results)
