"""Integration tests: the paper's §2 narrative and the example scripts."""

import dataclasses
import runpy
import sys

import pytest

from repro import core
from repro.networks import build_wan_benchmark, registry
from repro.networks.benchmarks import inject_interface_failure
from repro.verify import Strawperson, verify
from repro.config import WanParameters
from repro.routing import build_running_example, simulate
from repro.symbolic import SymBool


class TestSection2Narrative:
    """The complete §2 story in one place, as an executable specification."""

    def test_simulation_then_unsound_then_sound(self):
        # 1. The closed network converges exactly as Figure 3 shows.
        closed = build_running_example("none")
        trace = simulate(closed.network)
        assert trace.stable_state()["e"] == {"lp": 100, "len": 3, "tag": True}

        # 2. The naïve stable-state modular check accepts circular interfaces
        #    that exclude v's real route (execution interference, §2.2).
        open_example = build_running_example("symbolic")
        spurious = lambda r: r.is_some & (r.payload.lp == 200) & ~r.payload.tag  # noqa: E731
        strawperson = verify(
            open_example.network,
            Strawperson(
                interfaces={
                    "n": lambda r: SymBool.true(),
                    "w": lambda r: r.is_some & (r.payload.lp == 100),
                    "v": spurious,
                    "d": spurious,
                    "e": lambda r: r.is_none,
                }
            ),
        )
        assert strawperson.passed
        assert trace.stable_state()["v"]["lp"] == 100  # ... yet the real route has lp 100

        # 3. The temporal procedure rejects those interfaces (§2.3) ...
        bad = core.annotate(
            open_example.network,
            {
                "n": core.always_true(),
                "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
                "v": core.globally(spurious),
                "d": core.globally(spurious),
                "e": core.globally(lambda r: r.is_none),
            },
        )
        assert not verify(bad).passed

        # 4. ... and accepts the Figure 8 interfaces, proving reachability.
        no_route = lambda r: r.is_none  # noqa: E731
        tagged = lambda r: r.is_some & r.payload.tag & (r.payload.lp == 100)  # noqa: E731
        good = core.AnnotatedNetwork(
            open_example.network,
            interfaces={
                "n": core.always_true(),
                "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
                "v": core.until(1, no_route, core.globally(tagged)),
                "d": core.until(2, no_route, core.globally(tagged)),
                "e": core.finally_(3, core.globally(lambda r: r.is_some)),
            },
            properties={
                **{node: core.always_true() for node in "nwvd"},
                "e": core.finally_(3, core.globally(lambda r: r.is_some)),
            },
        )
        assert verify(good).passed


class TestEvaluationSmoke:
    """Scaled-down versions of the §6 experiments run end to end."""

    def test_modular_beats_monolithic_shape_on_wan(self):
        """The headline shape: per-node checks stay small as the network grows."""
        small = build_wan_benchmark(WanParameters(internal_routers=4, external_peers=4))
        large = build_wan_benchmark(WanParameters(internal_routers=4, external_peers=12))
        small_report = verify(small.annotated)
        large_report = verify(large.annotated)
        assert small_report.passed and large_report.passed
        # The per-node median stays within a small factor even though the
        # network tripled in external peers.
        assert large_report.median_node_time <= max(10 * small_report.median_node_time, 0.5)

    def test_hijack_counterexample_mentions_the_hijacker(self):
        from repro.networks.benchmarks import HIJACKER
        from repro.routing import Network
        from repro.routing.bgp import BgpPolicy

        benchmark = registry.build("fattree/hijack", pods=4).raw
        network = benchmark.network

        def broken_transfer(edge):
            if edge[0] == HIJACKER:
                return BgpPolicy().apply  # filter removed
            return network.transfer_function(edge)

        broken = Network(
            topology=network.topology,
            route_shape=network.route_shape,
            initial_routes=network.initial_route,
            transfer_functions=broken_transfer,
            merge=network.merge,
            symbolics=network.symbolics,
        )
        annotated = core.AnnotatedNetwork(
            broken,
            interfaces={n: benchmark.annotated.interface(n) for n in benchmark.annotated.nodes},
            properties={n: benchmark.annotated.node_property(n) for n in benchmark.annotated.nodes},
        )
        report = verify(annotated)
        assert not report.passed
        assert any(
            HIJACKER in counterexample.neighbor_routes
            for counterexample in report.counterexamples()
        )


class TestExampleScripts:
    """The runnable examples must keep working (they are part of the API surface)."""

    @pytest.mark.parametrize(
        "script", ["quickstart", "debugging_interfaces", "hijack_protection", "wan_isolation"]
    )
    def test_script_runs_to_completion(self, script, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [f"{script}.py"])
        runpy.run_path(f"examples/{script}.py", run_name="__main__")
        output = capsys.readouterr().out
        assert output

    def test_fattree_example_exits_1_on_a_failing_report(self, monkeypatch, capsys):
        """The example CI smoke-runs must fail on a wrong verdict, not print and pass."""
        build = registry.build

        def poisoned(name, **parameters):
            built = build(name, **parameters)
            return dataclasses.replace(
                built, annotated=inject_interface_failure(built.annotated)[0]
            )

        monkeypatch.setattr(registry, "build", poisoned)
        monkeypatch.setattr(sys, "argv", ["fattree_reachability.py", "2", "--skip-monolithic"])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path("examples/fattree_reachability.py", run_name="__main__")
        assert exited.value.code == 1
        assert "FAILED" in capsys.readouterr().out
