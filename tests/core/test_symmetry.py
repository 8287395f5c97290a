"""Tests for symmetry-aware modular checking (:mod:`repro.core.symmetry`)."""

import pytest

from repro import core
from repro.core.symmetry import SYMMETRY_MODES
from repro.networks import registry
from repro.networks.benchmarks import POLICIES
from repro.routing import build_running_example
from repro.smt.incremental import process_solver, reset_process_solver
from repro.smt.sat.solver import CdclSolver
from repro.verify import Modular, verify


@pytest.fixture(autouse=True)
def _fresh_process_solver():
    reset_process_solver()
    yield
    reset_process_solver()


def _verdicts_for_modes(annotated, modes=SYMMETRY_MODES, **kwargs):
    verdicts = {}
    reports = {}
    for mode in modes:
        reset_process_solver()
        reports[mode] = verify(annotated, Modular(symmetry=mode, **kwargs))
        verdicts[mode] = core.condition_verdicts(reports[mode])
    return verdicts, reports


class TestSingleDestinationFattrees:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sp_benchmarks_agree_across_all_modes(self, policy):
        instance = registry.build(f"fattree/{policy}", pods=4).raw
        verdicts, reports = _verdicts_for_modes(instance.annotated)
        assert verdicts["off"] == verdicts["classes"]
        assert reports["off"].passed
        # No marker: ``classes`` is the singleton partition, and the answer
        # memo, not a partition, answers each distinct query once.
        assert reports["classes"].symmetry_classes == len(instance.annotated.nodes)
        assert reports["classes"].conditions_propagated == 0
        for report in reports.values():
            answers = report.conditions_discharged - report.backend_cache["answer_hits"]
            assert answers < report.conditions_checked / 2

    def test_report_metadata_and_summary(self, assert_scopes_follow_size):
        instance = registry.build("fattree/reach", pods=4).raw
        report = verify(instance.annotated, Modular(symmetry="classes"))
        assert report.symmetry == "classes"
        assert report.conditions_checked == report.conditions_discharged + report.conditions_propagated
        assert "symmetry=classes" in report.summary()
        assert report.backend_cache is not None
        assert_scopes_follow_size(report.backend_cache)
        off = verify(instance.annotated, Modular(symmetry="off"))
        assert off.backend_cache is not None
        assert "symmetry" not in off.summary()

    def test_counterexamples_name_their_own_neighbours(self):
        instance = registry.build("fattree/reach", pods=4).raw
        fattree, destination = instance.fattree, instance.destination
        # Too-tight witness times: structurally symmetric, and failing.
        interfaces = {
            node: core.finally_(
                max(0, fattree.distance_to_destination(node, destination) - 1),
                core.globally(lambda r: r.is_some),
            )
            for node in fattree.nodes
        }
        broken = core.AnnotatedNetwork(
            instance.annotated.network,
            interfaces,
            {node: core.always_true() for node in fattree.nodes},
        )
        off = verify(broken, Modular(symmetry="off"))
        reset_process_solver()
        classes = verify(broken, Modular(symmetry="classes"))
        assert not off.passed
        assert off.failed_nodes == classes.failed_nodes
        assert core.condition_verdicts(off) == core.condition_verdicts(classes)
        topology = broken.network.topology
        failures = 0
        for node, node_report in classes.node_reports.items():
            for result in node_report.results:
                assert result.propagated_from is None
                if result.counterexample is None:
                    continue
                failures += 1
                assert result.counterexample.node == node
                for neighbor in result.counterexample.neighbor_routes:
                    assert neighbor in topology.predecessors(node)
        # Isomorphic failures pose one query: the memo answered the repeats.
        assert failures > 0
        assert classes.backend_cache["answer_hits"] > 0


class TestPartition:
    def test_running_example_agrees_with_off(self):
        example = build_running_example("symbolic")
        interfaces = {
            "n": core.always_true(),
            "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
            "v": core.globally(lambda r: r.is_none | r.payload.tag),
            "d": core.globally(lambda r: r.is_none | r.payload.tag),
            "e": core.globally(lambda r: r.is_none | r.payload.tag),
        }
        annotated = core.annotate(example.network, interfaces)
        verdicts, reports = _verdicts_for_modes(annotated)
        assert verdicts["off"] == verdicts["classes"]

    def test_all_pairs_fattree_agrees_with_off(self):
        instance = registry.build("fattree/reach", pods=4, all_pairs=True).raw
        verdicts, reports = _verdicts_for_modes(instance.annotated)
        assert verdicts["off"] == verdicts["classes"]
        assert reports["classes"].symmetry_classes <= len(instance.annotated.nodes)

    def test_partition_is_deterministic_and_ordered(self):
        instance = registry.build("fattree/reach", pods=4, all_pairs=True).raw
        first = core.partition_nodes(instance.annotated, instance.annotated.nodes)
        second = core.partition_nodes(instance.annotated, instance.annotated.nodes)
        assert [c.members for c in first] == [c.members for c in second]
        flattened = [node for c in first for node in c.members]
        assert sorted(flattened) == sorted(instance.annotated.nodes)
        # representatives appear in node order
        representatives = [c.representative for c in first]
        order = {node: i for i, node in enumerate(instance.annotated.nodes)}
        assert representatives == sorted(representatives, key=order.__getitem__)


class TestParallelClasses:
    def test_parallel_matches_sequential_with_symmetry(self, assert_scopes_follow_size):
        instance = registry.build("fattree/reach", pods=4).raw
        sequential = verify(instance.annotated, Modular(symmetry="classes", parallel=1))
        reset_process_solver()
        parallel = verify(instance.annotated, Modular(symmetry="classes", parallel=4))
        assert core.condition_verdicts(sequential) == core.condition_verdicts(parallel)
        assert tuple(parallel.node_reports) == instance.annotated.nodes
        assert parallel.parallelism == 4
        assert parallel.backend_cache is not None
        assert_scopes_follow_size(parallel.backend_cache)


class TestSolverRecovery:
    def test_crashed_check_does_not_poison_later_nodes(self, monkeypatch, reference_report):
        instance = registry.build("fattree/reach", pods=4).raw
        solver = process_solver()
        calls = {"n": 0}
        original = CdclSolver.solve

        def explode_once(self, *args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("interrupted mid-solve")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CdclSolver, "solve", explode_once)
        with pytest.raises(RuntimeError, match="interrupted mid-solve"):
            core.check_node(instance.annotated, instance.annotated.nodes[0])
        # The shared solver was recovered: frames balanced, fresh scope.
        assert len(solver._frames) == 1
        report = verify(instance.annotated)
        assert report.passed
        fresh = reference_report(instance.annotated)
        assert core.condition_verdicts(report) == core.condition_verdicts(fresh)

    def test_crash_leaves_caller_pinned_solver_untouched(self, monkeypatch):
        from repro.smt.incremental import IncrementalSolver

        instance = registry.build("fattree/reach", pods=4).raw
        pinned = IncrementalSolver()
        import repro.smt as smt

        context = smt.bool_var("pinned_context")
        pinned.push()
        pinned.add(context)

        def explode(self, *args, **kwargs):
            raise RuntimeError("interrupted mid-solve")

        monkeypatch.setattr(CdclSolver, "solve", explode)
        with pytest.raises(RuntimeError):
            core.check_node(instance.annotated, instance.annotated.nodes[0], solver=pinned)
        # The checker must not recover() a solver it does not own: the
        # caller's pushed frame (and its assertions) survive the crash.
        assert pinned.assertions == (context,)

    def test_recover_preserves_root_assertions(self):
        from repro import smt
        from repro.smt.incremental import IncrementalSolver

        solver = IncrementalSolver()
        root = smt.bool_var("recovery_root")
        solver.add(root)
        solver.push()
        solver.add(smt.not_(root))
        solver.recover()
        assert solver.assertions == (root,)
        assert solver.check().is_sat

    def test_unknown_symmetry_mode_rejected(self):
        with pytest.raises(ValueError, match="symmetry mode"):
            Modular(symmetry="bogus")
