"""Tests for the experiment harness: sweeps, tables and result records."""

import pytest

from repro.harness import (
    ExperimentResult,
    figure14_table,
    format_table,
    ghost_state_table,
    internet2_table,
    lines_of_code_table,
    results_to_json,
    run_point,
    scaling_table,
    sweep_fattree,
    sweep_wan,
    symmetry_table,
)
from repro.networks import registry
from repro.verify import Modular, Monolithic


class TestSweeps:
    def test_fattree_sweep_produces_one_point_per_size(self):
        results = sweep_fattree("reach", [4], monolithic=None)
        assert len(results) == 1
        point = results[0]
        assert point.benchmark == "SpReach"
        assert point.nodes == 20
        assert point.modular is not None and point.modular.passed
        assert point.monolithic is None
        row = point.as_row()
        assert row["tp_pass"] is True
        assert row["ms_outcome"] == "skipped"

    def test_fattree_sweep_with_monolithic(self):
        results = sweep_fattree("reach", [4], monolithic=Monolithic(timeout=60))
        point = results[0]
        assert point.monolithic is not None
        assert point.as_row()["ms_outcome"] in ("pass", "timeout")
        assert point.modular_wall_time is not None
        assert point.modular_median is not None
        assert point.modular_p99 is not None

    def test_wan_sweep(self):
        results = sweep_wan([4], internal_routers=4, monolithic=None)
        assert len(results) == 1
        assert results[0].nodes == 8
        assert results[0].modular.passed

    def test_all_pairs_sweep(self):
        results = sweep_fattree("reach", [4], all_pairs=True, monolithic=None)
        assert results[0].benchmark == "ApReach"

    def test_sweep_streams_events_to_observer(self):
        events = []
        results = sweep_fattree("reach", [4], monolithic=None, on_event=events.append)
        assert len(events) == results[0].modular.conditions_checked
        assert all(event.holds for event in events)

    def test_monolithic_events_reach_the_observer(self):
        """Regression: run_point only streamed the modular session to
        on_event; monolithic verdicts were silently dropped."""
        benchmark = registry.build("ghost/reach")
        events = []
        point = run_point(
            "unit",
            benchmark.name,
            benchmark.annotated,
            nodes=len(benchmark.annotated.nodes),
            modular=Modular(),
            monolithic=Monolithic(timeout=60),
            on_event=events.append,
        )
        monolithic_events = [
            event for event in events if event.condition.startswith("monolithic")
        ]
        assert len(monolithic_events) == 1
        assert monolithic_events[0].node == "*"
        assert monolithic_events[0].holds == point.monolithic.passed
        modular_events = [
            event for event in events if not event.condition.startswith("monolithic")
        ]
        assert len(modular_events) == point.modular.conditions_checked

    def test_run_point_with_strategy_objects(self):
        benchmark = registry.build("fattree/reach", pods=4)
        point = run_point(
            "unit",
            benchmark.name,
            benchmark.annotated,
            nodes=benchmark.node_count,
            modular=Modular(symmetry="classes"),
            monolithic=None,
        )
        assert point.modular.symmetry == "classes"
        assert point.modular.passed

    def test_json_records_carry_backend_cache(self):
        results = sweep_fattree("reach", [4], monolithic=None)
        records = results_to_json(results)
        assert len(records) == 1
        record = records[0]
        assert record["benchmark"] == "SpReach"
        assert record["modular"]["verdict"] == "pass"
        # The cache counters must be present both nested and at top level so
        # BENCH_*.json trajectories can track hit-rates across PRs.
        assert record["backend_cache"] is not None
        assert record["backend_cache"]["tseitin_hits"] >= 0
        assert record["modular"]["backend_cache"] == record["backend_cache"]
        import json

        json.dumps(records)  # must be serialisable as-is

    def test_json_records_round_trip_delta_counters(self, tmp_path):
        """Regression: the delta reuse counters must survive the full
        as_row/to_json path so ``--json``/``BENCH_*.json`` trajectories can
        track reuse rates across PRs."""
        import json

        benchmark = registry.build("fattree/reach", pods=4)
        store = str(tmp_path / "delta.json")
        strategy = Modular(delta="reuse", store=store)

        def point():
            return run_point(
                "unit",
                benchmark.name,
                benchmark.annotated,
                nodes=benchmark.node_count,
                modular=strategy,
                monolithic=None,
            )

        cold, warm = point(), point()
        record = json.loads(json.dumps(results_to_json([cold, warm])))
        cold_row, warm_row = record[0]["row"], record[1]["row"]
        assert cold_row["tp_delta"] == warm_row["tp_delta"] == "reuse"
        assert cold_row["tp_reused"] == 0
        assert cold_row["tp_recheck"] == cold_row["tp_conditions"]
        assert warm_row["tp_reused"] == warm_row["tp_conditions"] > 0
        assert warm_row["tp_recheck"] == 0
        modular = record[1]["modular"]
        assert modular["delta"] == "reuse"
        assert modular["conditions_reused"] == warm_row["tp_reused"]
        assert modular["conditions_recheck"] == 0


class TestTables:
    def test_format_table_alignment_and_none(self):
        text = format_table(("a", "bee"), [(1, None), ("xx", 2.5)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-" in lines[1]
        assert "2.500" in text
        assert "-" in lines[2]

    def test_scaling_and_figure14_tables(self):
        results = sweep_fattree("reach", [4], monolithic=None)
        scaling = scaling_table(results)
        assert "nodes" in scaling and "20" in scaling
        figure = figure14_table(results)
        assert "SpReach" in figure and "Tp median [s]" in figure

    def test_symmetry_table_partitions_conditions(self, tmp_path):
        """The --stats table: discharged + propagated + reused = conditions."""
        store = str(tmp_path / "delta.json")
        strategy = Modular(delta="reuse", store=store, symmetry="classes")
        cold = sweep_fattree("reach", [4], modular=strategy, monolithic=None)
        warm = sweep_fattree("reach", [4], modular=strategy, monolithic=None)
        table = symmetry_table(cold + warm)
        assert "reused" in table and "delta" in table and "reuse" in table
        warm_row = warm[0].as_row()
        assert warm_row["tp_reused"] == warm_row["tp_conditions"]
        assert warm_row["tp_discharged"] == 0
        assert str(warm_row["tp_reused"]) in table

    def test_internet2_table(self):
        results = sweep_wan([4], internal_routers=4, monolithic=None)
        table = internet2_table(results)
        assert "external" in table and "8" in table

    def test_ghost_state_table(self):
        table = ghost_state_table(node_count=20, edge_count=64)
        assert "reachability to d" in table
        assert "fault tolerance" in table
        assert "64" in table

    def test_lines_of_code_table_structure(self):
        table = lines_of_code_table()
        for benchmark in ("Reach", "Len", "Vf", "Hijack", "BlockToExternal"):
            assert benchmark in table
        assert "interface LoC" in table
