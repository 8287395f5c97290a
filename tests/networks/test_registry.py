"""Tests for the benchmark registry (:mod:`repro.networks.registry`)."""

import pytest

from repro.core.annotations import AnnotatedNetwork
from repro.errors import BenchmarkError
from repro.networks import registry
from repro.networks.registry import BuiltBenchmark, Parameter
from repro.verify import verify


class TestCatalogue:
    def test_builtin_names(self):
        names = registry.benchmark_names()
        assert {
            "fattree/reach",
            "fattree/length",
            "fattree/valley_freedom",
            "fattree/hijack",
            "wan/block_to_external",
            "ghost/reach",
            "ghost/no_transit",
            "ghost/waypoint",
        } <= set(names)

    def test_aliases_resolve(self):
        assert registry.get_spec("wan/reach") is registry.get_spec("wan/block_to_external")
        assert "wan/reach" in registry.benchmark_names(include_aliases=True)
        assert "wan/reach" not in registry.benchmark_names()

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(BenchmarkError) as excinfo:
            registry.build("fattree/bogus")
        assert "fattree/reach" in str(excinfo.value)

    def test_names_and_aliases_are_unique(self):
        names = [spec.name for spec in registry._SPECS]
        aliases = [alias for spec in registry._SPECS for alias in spec.aliases]
        assert len(set(names + aliases)) == len(names) + len(aliases)

    def test_specs_carry_descriptions(self):
        for name in registry.benchmark_names():
            assert registry.get_spec(name).description


class TestBuild:
    def test_fattree_build_is_uniform(self):
        built = registry.build("fattree/reach", pods=4)
        assert isinstance(built, BuiltBenchmark)
        assert built.name == "SpReach"
        assert built.node_count == 20
        assert built.parameters == {"pods": 4, "all_pairs": False, "widths": None}
        assert isinstance(built.annotated, AnnotatedNetwork)
        assert built.raw.policy == "reach"

    def test_wan_build_via_alias(self):
        built = registry.build("wan/reach", internal_routers=4, external_peers=4)
        assert built.name == "BlockToExternal"
        assert built.node_count == 8

    def test_ghost_builds_wrap_annotated_networks(self):
        for name in ("ghost/reach", "ghost/no_transit", "ghost/waypoint"):
            built = registry.build(name)
            assert isinstance(built.annotated, AnnotatedNetwork)
            assert built.node_count == built.annotated.network.topology.node_count

    def test_ghost_waypoint_parameter(self):
        built = registry.build("ghost/waypoint", waypoints=("firewall",))
        assert "firewall" in built.annotated.nodes
        assert "scrubber" not in built.annotated.nodes

    def test_built_benchmarks_verify(self):
        report = verify(registry.build("ghost/no_transit").annotated)
        assert report.passed


class TestValidation:
    def test_unknown_parameter_rejected_with_allowed_list(self):
        with pytest.raises(BenchmarkError) as excinfo:
            registry.build("fattree/reach", pods=4, frobnicate=True)
        assert "frobnicate" in str(excinfo.value)
        assert "pods" in str(excinfo.value)

    def test_type_checked(self):
        with pytest.raises(BenchmarkError, match="must be int"):
            registry.build("fattree/reach", pods="four")
        with pytest.raises(BenchmarkError, match="must be bool"):
            registry.build("fattree/reach", pods=4, all_pairs="yes")

    def test_range_checked_before_building(self):
        with pytest.raises(BenchmarkError, match="even pod count"):
            registry.build("fattree/reach", pods=5)
        with pytest.raises(BenchmarkError, match="at least 3"):
            registry.build("wan/block_to_external", internal_routers=1)

    def test_bool_is_not_an_int(self):
        with pytest.raises(BenchmarkError, match="must be int"):
            registry.build("fattree/reach", pods=True)

    def test_none_rejected_unless_default_is_none(self):
        with pytest.raises(BenchmarkError, match="'pods' must be int"):
            registry.build("fattree/reach", pods=None)
        # widths defaults to None, so None stays allowed there.
        assert registry.build("fattree/reach", pods=4, widths=None).name == "SpReach"


class TestRegistration:
    def test_parameter_validate_reports_benchmark_and_value(self):
        parameter = Parameter("n", int, 1, check=lambda v: None if v > 0 else "must be positive")
        with pytest.raises(BenchmarkError, match=r"'bench'.*'n' must be positive.*-3"):
            parameter.validate("bench", -3)
