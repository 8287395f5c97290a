"""Engine-level tests for ``Modular(delta="reuse")`` re-verification.

The delta contract: a warm re-run reuses every recorded verdict with
byte-identical results, a one-node config edit re-checks only the edited
neighbourhood, and the layer composes with symmetry, parallel dispatch and
stop-on-failure without changing any verdict.
"""

import os

import pytest

from repro.core.results import condition_verdicts
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.verify import DEFAULT_STORE_DIR, Modular, verify


@pytest.fixture(scope="module")
def reach():
    return registry.build("fattree/reach", pods=4).annotated


def _store(tmp_path, name="delta.json"):
    return str(tmp_path / name)


def _fresh_nodes(report):
    """Nodes that reached the SMT backend this run (any non-reused result)."""
    return {
        result.node
        for node_report in report.node_reports.values()
        for result in node_report.results
        if not result.reused
    }


class TestColdWarm:
    def test_cold_then_warm_roundtrip(self, reach, tmp_path):
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        assert cold.passed and cold.conditions_reused == 0
        assert cold.conditions_recheck == cold.conditions_checked
        assert os.path.exists(store)

        warm = verify(reach, Modular(delta="reuse", store=store))
        assert warm.conditions_reused == warm.conditions_checked > 0
        assert warm.conditions_recheck == 0
        assert condition_verdicts(warm) == condition_verdicts(cold)

    def test_delta_off_never_touches_a_store(self, reach, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = verify(reach, Modular())
        assert report.delta == "off" and report.conditions_reused == 0
        assert not os.path.exists(DEFAULT_STORE_DIR)

    def test_default_store_path_under_dot_directory(self, reach, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        verify(reach, Modular(delta="reuse"))
        stores = os.listdir(DEFAULT_STORE_DIR)
        assert len(stores) == 1 and stores[0].endswith(".json")
        warm = verify(reach, Modular(delta="reuse"))
        assert warm.conditions_reused == warm.conditions_checked

    def test_delay_keeps_its_own_store(self, reach, tmp_path, monkeypatch):
        # The delay is the one verdict-affecting knob: a different strategy
        # signature, hence a different default store and no cross-reuse.
        monkeypatch.chdir(tmp_path)
        verify(reach, Modular(delta="reuse"))
        delayed = verify(reach, Modular(delta="reuse", delay=1))
        assert delayed.conditions_reused == 0
        assert len(os.listdir(DEFAULT_STORE_DIR)) == 2

    def test_engine_knobs_share_the_default_store(self, reach, tmp_path, monkeypatch):
        # Symmetry and stop-on-failure change how verdicts are computed, not
        # what is proved: a plain cold run warms the store they use.
        monkeypatch.chdir(tmp_path)
        cold = verify(reach, Modular(delta="reuse"))
        warm = verify(
            reach, Modular(delta="reuse", symmetry="classes", stop_on_failure=True)
        )
        assert warm.conditions_reused == warm.conditions_checked > 0
        assert condition_verdicts(warm) == condition_verdicts(cold)
        assert len(os.listdir(DEFAULT_STORE_DIR)) == 1

    def test_explicit_store_with_other_signature_degrades(self, reach, tmp_path):
        store = _store(tmp_path)
        verify(reach, Modular(delta="reuse", store=store))
        with pytest.warns(RuntimeWarning, match="different strategy signature"):
            other = verify(reach, Modular(delta="reuse", store=store, delay=1))
        assert other.conditions_reused == 0


class TestEditInvalidation:
    def test_one_node_edit_rechecks_only_the_neighbourhood(self, reach, tmp_path):
        store = _store(tmp_path)
        verify(reach, Modular(delta="reuse", store=store))
        edited, poisoned = inject_interface_failure(reach)

        delta = verify(edited, Modular(delta="reuse", store=store))
        full = verify(edited, Modular())
        assert condition_verdicts(delta) == condition_verdicts(full)
        assert delta.conditions_reused > 0

        topology = reach.network.topology
        successors = {
            node for node in reach.nodes if poisoned in topology.predecessors(node)
        }
        assert _fresh_nodes(delta) == {poisoned} | successors
        assert len(_fresh_nodes(delta)) <= 1 + max(
            len(list(topology.predecessors(node))) for node in reach.nodes
        )

    def test_failing_nodes_are_never_recorded(self, reach, tmp_path):
        store = _store(tmp_path)
        edited, poisoned = inject_interface_failure(reach)
        first = verify(edited, Modular(delta="reuse", store=store))
        assert not first.passed
        # A second run on the same broken network must re-discharge every
        # failing condition (fresh counterexamples), reusing only passes.
        second = verify(edited, Modular(delta="reuse", store=store))
        assert condition_verdicts(second) == condition_verdicts(first)
        failing = {
            result.node
            for node_report in second.node_reports.values()
            for result in node_report.results
            if not result.holds
        }
        assert failing and failing <= _fresh_nodes(second)

    def test_reverted_edit_is_fully_reusable(self, reach, tmp_path):
        """The slow path: an edit overwrote neighbour entries, but their
        original condition hashes are still recorded — the revert reuses."""
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        edited, _ = inject_interface_failure(reach)
        verify(edited, Modular(delta="reuse", store=store))
        reverted = verify(reach, Modular(delta="reuse", store=store))
        assert reverted.conditions_reused == reverted.conditions_checked
        assert condition_verdicts(reverted) == condition_verdicts(cold)


class TestComposition:
    def test_with_symmetry_classes(self, tmp_path):
        # The destination quotient is the only partition with members to
        # propagate to.
        reach = registry.build("fattree/reach", pods=4, all_pairs=True).annotated
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store, symmetry="classes"))
        assert cold.passed and cold.conditions_reused == 0
        warm = verify(reach, Modular(delta="reuse", store=store, symmetry="classes"))
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)
        # Reused class members still carry their propagation provenance.
        propagated = {
            result.node
            for node_report in warm.node_reports.values()
            for result in node_report.results
            if result.propagated_from is not None
        }
        assert propagated and len(propagated) == len(reach.nodes) - warm.symmetry_classes

    def test_sequentially_warmed_store_serves_a_parallel_run(self, reach, tmp_path):
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        warm = verify(reach, Modular(delta="reuse", store=store, parallel=2))
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)
        assert warm.parallelism == 2

    def test_stopped_run_records_nothing_unproved(
        self, one_failing_node_annotated, tmp_path
    ):
        annotated = one_failing_node_annotated(length=6, failing="n2")
        store = _store(tmp_path)
        stopped = verify(
            annotated, Modular(delta="reuse", store=store, stop_on_failure=True)
        )
        assert stopped.stopped_early and stopped.conditions_skipped > 0
        # The warm run may only reuse nodes the stopped run fully proved.
        warm = verify(annotated, Modular(delta="reuse", store=store))
        proved_before_stop = {
            report.node
            for report in stopped.node_reports.values()
            if report.passed and all(r.condition for r in report.results)
        }
        reused_now = {
            result.node
            for node_report in warm.node_reports.values()
            for result in node_report.results
            if result.reused
        }
        assert reused_now <= proved_before_stop
        full = verify(annotated, Modular())
        assert condition_verdicts(warm) == condition_verdicts(full)
