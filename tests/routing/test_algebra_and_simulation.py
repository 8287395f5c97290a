"""Tests for network instances and the synchronous simulator."""

import pytest

from repro.errors import RoutingError
from repro.routing import (
    Network,
    SymbolicVariable,
    Topology,
    build_running_example,
    path_topology,
    reachability_network,
    shortest_path_network,
    simulate,
    stable_routes,
)
from repro.routing.simulation import SimulationTrace
from repro.symbolic import BitVecShape, OptionShape, SymBool


class TestNetworkConstruction:
    def _tiny(self):
        topology = Topology(edges=[("a", "b")])
        shape = OptionShape(BitVecShape(4))
        return topology, shape

    def test_mapping_based_definitions(self):
        topology, shape = self._tiny()
        network = Network(
            topology,
            shape,
            initial_routes={"a": shape.some(0), "b": shape.none()},
            transfer_functions={("a", "b"): lambda r: r},
            merge=lambda x, y: x,
        )
        assert network.initial_route("b").is_none.concrete_value() is True
        assert network.transfer(("a", "b"), shape.some(1)).payload.concrete_value() == 1

    def test_missing_initial_routes_detected(self):
        topology, shape = self._tiny()
        with pytest.raises(RoutingError):
            Network(
                topology,
                shape,
                initial_routes={"a": shape.none()},
                transfer_functions={("a", "b"): lambda r: r},
                merge=lambda x, y: x,
            )

    def test_missing_transfer_functions_detected(self):
        topology, shape = self._tiny()
        with pytest.raises(RoutingError):
            Network(
                topology,
                shape,
                initial_routes={"a": shape.none(), "b": shape.none()},
                transfer_functions={},
                merge=lambda x, y: x,
            )

    def test_transfer_on_unknown_edge_rejected(self):
        network = reachability_network(path_topology(2), "n0")
        with pytest.raises(RoutingError):
            network.transfer(("n0", "n5"), network.route_shape.none())

    def test_merge_all_requires_routes(self):
        network = reachability_network(path_topology(2), "n0")
        with pytest.raises(RoutingError):
            network.merge_all([])

    def test_symbolic_variables(self):
        topology, shape = self._tiny()
        announcement = shape.fresh("ann")
        network = Network(
            topology,
            shape,
            initial_routes=lambda node: announcement if node == "a" else shape.none(),
            transfer_functions=lambda edge: (lambda r: r),
            merge=lambda x, y: x,
            symbolics=(SymbolicVariable("ann", announcement, announcement.is_some),),
        )
        assert not network.is_closed
        assert network.symbolic_constraints().term is announcement.is_some.term
        extra = shape.fresh("extra")
        extended = network.with_symbolics(SymbolicVariable("extra", extra, extra.is_none))
        assert len(extended.symbolics) == 2
        assert (
            extended.symbolic_constraints().term
            is (announcement.is_some & extra.is_none).term
        )

    def test_merge_is_read_only(self):
        """An edited policy is a new ``Network``: per-network memos rely on it."""
        topology, shape = self._tiny()
        network = Network(topology, shape, lambda node: shape.none(), lambda edge: (lambda r: r),
                          merge=lambda x, y: x)
        with pytest.raises(AttributeError):
            network.merge = lambda x, y: y
        assert network.with_symbolics().merge is network.merge

    def test_symbolic_variable_needs_name(self):
        with pytest.raises(RoutingError):
            SymbolicVariable("", SymBool.true())


class TestSimulation:
    def test_running_example_matches_figure_3(self):
        example = build_running_example("none")
        trace = simulate(example.network)
        assert trace.converged
        expected = {
            0: {"n": None, "w": (100, 0, False), "v": None, "d": None, "e": None},
            1: {"n": None, "w": (100, 0, False), "v": (100, 1, True), "d": None, "e": None},
            2: {"n": None, "w": (100, 0, False), "v": (100, 1, True), "d": (100, 2, True), "e": None},
            3: {
                "n": None,
                "w": (100, 0, False),
                "v": (100, 1, True),
                "d": (100, 2, True),
                "e": (100, 3, True),
            },
        }
        for time, state in expected.items():
            simulated = trace.state_at(time)
            for node, fields in state.items():
                if fields is None:
                    assert simulated[node] is None
                else:
                    lp, length, tag = fields
                    assert simulated[node] == {"lp": lp, "len": length, "tag": tag}

    def test_shortest_path_matches_bfs(self):
        topology = path_topology(5)
        network = shortest_path_network(topology, "n0")
        stable = stable_routes(network)
        distances = topology.bfs_distances("n0")
        for node, hops in distances.items():
            assert stable[node] == hops

    def test_reachability_network(self):
        topology = path_topology(4)
        stable = stable_routes(reachability_network(topology, "n3"))
        assert all(value is True for value in stable.values())

    def test_unreachable_nodes_keep_no_route(self):
        topology = Topology(nodes=["a", "b", "island"], edges=[("a", "b"), ("b", "a")])
        stable = stable_routes(shortest_path_network(topology, "a"))
        assert stable["island"] is None
        assert stable["b"] == 1

    def test_open_networks_cannot_be_simulated(self):
        example = build_running_example("symbolic")
        with pytest.raises(RoutingError):
            simulate(example.network)

    def test_state_at_clamps_only_after_convergence(self):
        example = build_running_example("none")
        trace = simulate(example.network)
        assert trace.state_at(100) == trace.stable_state()
        with pytest.raises(RoutingError):
            trace.state_at(-1)
        with pytest.raises(RoutingError):
            trace.route_at("zzz", 0)

    def test_unconverged_trace_reports_failure(self):
        trace = SimulationTrace(states=[{"a": None}, {"a": 1}], converged_at=None)
        assert not trace.converged
        with pytest.raises(RoutingError):
            trace.stable_state()
        with pytest.raises(RoutingError):
            trace.state_at(5)

    def test_ghost_field_is_threaded_through(self):
        example = build_running_example("none", with_fromw_ghost=True)
        stable = simulate(example.network).stable_state()
        assert stable["e"]["fromw"] is True
        assert stable["w"]["fromw"] is True
