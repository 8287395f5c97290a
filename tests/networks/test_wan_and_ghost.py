"""Tests for the WAN BlockToExternal benchmark and the ghost-state constructions."""

from repro import core
from repro.config import BTE_COMMUNITY, WanParameters
from repro.verify import Modular, Monolithic, verify
from repro.networks import (
    build_wan_benchmark,
    block_to_external_predicate,
    ghost_state_catalog,
    no_transit_network,
    reachability_from_destination,
    unordered_waypoint_network,
)


SMALL = WanParameters(internal_routers=4, external_peers=4)


class TestWanBenchmark:
    def test_structure(self):
        benchmark = build_wan_benchmark(SMALL)
        assert benchmark.node_count == 8
        assert len(benchmark.compiled.internal_nodes) == 4
        assert len(benchmark.compiled.external_nodes) == 4
        assert benchmark.config_line_count > 50
        assert BTE_COMMUNITY in benchmark.config_text

    def test_interfaces_follow_node_roles(self):
        benchmark = build_wan_benchmark(SMALL)
        annotated = benchmark.annotated
        # Internal nodes are unconstrained; external nodes carry the isolation
        # predicate (so their interface is not the trivial one).
        internal = benchmark.compiled.internal_nodes[0]
        external = benchmark.compiled.external_nodes[0]
        route = benchmark.compiled.family.route.some(
            benchmark.compiled.family.default_announcement(communities=(BTE_COMMUNITY,))
        )
        from repro.symbolic import SymBV

        width = annotated.time_width()
        time = SymBV.constant(0, width)
        assert annotated.interface(internal)(route, time).concrete_value() is True
        assert annotated.interface(external)(route, time).concrete_value() is False

    def test_block_to_external_verifies_modularly(self):
        benchmark = build_wan_benchmark(SMALL)
        report = verify(benchmark.annotated)
        assert report.passed

    def test_block_to_external_verifies_monolithically(self):
        benchmark = build_wan_benchmark(SMALL)
        report = verify(benchmark.annotated, Monolithic(timeout=120))
        assert report.passed or report.timed_out

    def test_buggy_configuration_is_rejected_with_counterexample(self):
        benchmark = build_wan_benchmark(
            WanParameters(internal_routers=4, external_peers=4, buggy=True)
        )
        report = verify(benchmark.annotated)
        assert not report.passed
        assert "peer0" in report.failed_nodes
        counterexample = report.counterexamples()[0]
        assert counterexample.node == "peer0"

    def test_predicate_semantics(self):
        benchmark = build_wan_benchmark(SMALL)
        family = benchmark.compiled.family
        clean = family.route.some(family.default_announcement())
        tagged = family.route.some(family.default_announcement(communities=(BTE_COMMUNITY,)))
        absent = family.route.none()
        assert block_to_external_predicate(clean).concrete_value() is True
        assert block_to_external_predicate(tagged).concrete_value() is False
        assert block_to_external_predicate(absent).concrete_value() is True

    def test_custom_config_text_is_used(self):
        text = build_wan_benchmark(SMALL).config_text
        again = build_wan_benchmark(SMALL, config_text=text)
        assert again.config_text == text


class TestGhostState:
    def test_catalog_matches_table_1(self):
        rows = {row.property_name: row for row in ghost_state_catalog()}
        assert len(rows) == 8
        assert rows["reachability to d"].bits(20, 64) == 1
        assert rows["routing loops"].bits(20, 64) == 20
        assert rows["fault tolerance"].bits(20, 64) == 64
        assert rows["ordered waypoint"].bits(16, 0) == 4
        assert rows["no-transit"].bits(5, 6) == 2

    def test_reachability_from_destination_verifies(self):
        report = verify(reachability_from_destination())
        assert report.passed

    def test_unordered_waypoint_verifies(self):
        annotated = unordered_waypoint_network()
        report = verify(annotated)
        assert report.passed, report.counterexamples()[:1]

    def test_no_transit_verifies(self):
        report = verify(no_transit_network())
        assert report.passed, report.counterexamples()[:1]


class TestSymmetryFallback:
    """WAN and ghost networks carry no symmetry hints: ``symmetry="classes"``
    must take the generic canonical-hash path (or degrade to singleton
    classes, i.e. per-node checking) with verdicts identical to ``off``."""

    def _agree_across_modes(self, annotated):
        from repro.smt.incremental import reset_process_solver

        assert annotated.symmetry_key is None
        baseline = None
        for mode in ("off", "classes", "spot-check"):
            reset_process_solver()
            report = verify(annotated, Modular(symmetry=mode))
            verdicts = core.condition_verdicts(report)
            if baseline is None:
                baseline = verdicts
            assert verdicts == baseline, mode
        reset_process_solver()
        return report

    def test_wan_generic_path_matches_off(self):
        report = self._agree_across_modes(build_wan_benchmark(SMALL).annotated)
        # structurally identical external peers collapse into shared classes
        assert report.symmetry_classes < len(report.node_reports)

    def test_buggy_wan_counterexamples_survive_symmetry(self):
        from repro.smt.incremental import reset_process_solver

        buggy = WanParameters(internal_routers=4, external_peers=4, buggy=True)
        annotated = build_wan_benchmark(buggy).annotated
        off = verify(annotated, Modular(symmetry="off"))
        reset_process_solver()
        classes = verify(annotated, Modular(symmetry="classes"))
        assert not off.passed
        assert off.failed_nodes == classes.failed_nodes
        assert core.condition_verdicts(off) == core.condition_verdicts(classes)

    def test_ghost_networks_generic_path_matches_off(self):
        for annotated in (
            reachability_from_destination(),
            unordered_waypoint_network(),
            no_transit_network(),
        ):
            self._agree_across_modes(annotated)
