"""Tests for the modular checker on the §2 running example (Figures 7-10)."""

import pytest

from repro import core
from repro.errors import VerificationError
from repro.verify import Modular, Strawperson, verify
from repro.routing import build_running_example
from repro.symbolic import SymBool


def figure7_interfaces():
    tagged_or_none = lambda r: r.is_none | r.payload.tag  # noqa: E731
    return {
        "n": core.always_true(),
        "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
        "v": core.globally(tagged_or_none),
        "d": core.globally(tagged_or_none),
        "e": core.globally(tagged_or_none),
    }


def figure8_interfaces():
    no_route = lambda r: r.is_none  # noqa: E731
    tagged = lambda r: r.is_some & r.payload.tag & (r.payload.lp == 100)  # noqa: E731
    return {
        "n": core.always_true(),
        "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
        "v": core.until(1, no_route, core.globally(tagged)),
        "d": core.until(2, no_route, core.globally(tagged)),
        "e": core.finally_(3, core.globally(lambda r: r.is_some)),
    }


def figure9_interfaces():
    spurious = lambda r: r.is_some & (r.payload.lp == 200) & ~r.payload.tag  # noqa: E731
    return {
        "n": core.always_true(),
        "w": core.globally(lambda r: r.is_some & (r.payload.lp == 100)),
        "v": core.globally(spurious),
        "d": core.globally(spurious),
        "e": core.globally(lambda r: r.is_none),
    }


class TestRunningExample:
    def test_figure7_interfaces_verify(self):
        example = build_running_example("symbolic")
        properties = {node: core.always_true() for node in "nwvd"}
        properties["e"] = core.globally(lambda r: r.is_none | r.payload.tag)
        annotated = core.AnnotatedNetwork(example.network, figure7_interfaces(), properties)
        report = verify(annotated)
        assert report.passed
        core.assert_verified(report)  # must not raise

    def test_figure8_reachability_verifies(self):
        example = build_running_example("symbolic")
        properties = {node: core.always_true() for node in "nwvd"}
        properties["e"] = core.finally_(3, core.globally(lambda r: r.is_some))
        annotated = core.AnnotatedNetwork(example.network, figure8_interfaces(), properties)
        report = verify(annotated)
        assert report.passed

    def test_figure9_bad_interfaces_rejected_at_time_zero(self):
        example = build_running_example("symbolic")
        annotated = core.annotate(example.network, figure9_interfaces())
        report = verify(annotated)
        assert not report.passed
        assert set(report.failed_nodes) == {"v", "d"}
        for counterexample in report.counterexamples():
            assert counterexample.condition == core.INITIAL
            assert counterexample.time == 0
        with pytest.raises(VerificationError):
            core.assert_verified(report)

    def test_patched_figure9_interfaces_fail_one_step_later(self):
        example = build_running_example("symbolic")
        spurious = lambda r: r.is_some & (r.payload.lp == 200) & ~r.payload.tag  # noqa: E731
        interfaces = figure9_interfaces()
        interfaces["v"] = core.globally(lambda r: spurious(r) | r.is_none)
        interfaces["d"] = core.globally(lambda r: spurious(r) | r.is_none)
        annotated = core.annotate(example.network, interfaces)
        report = verify(annotated)
        assert not report.passed
        kinds = {c.condition for c in report.counterexamples()}
        assert core.INDUCTIVE in kinds

    def test_figure10_ghost_state_verifies(self):
        from repro.networks import reachability_from_destination

        report = verify(reachability_from_destination())
        assert report.passed

    def test_strawperson_accepts_what_temporal_rejects(self):
        example = build_running_example("symbolic")
        spurious = lambda r: r.is_some & (r.payload.lp == 200) & ~r.payload.tag  # noqa: E731
        stable_interfaces = {
            "n": lambda r: SymBool.true(),
            "w": lambda r: r.is_some & (r.payload.lp == 100),
            "v": spurious,
            "d": spurious,
            "e": lambda r: r.is_none,
        }
        strawperson = verify(example.network, Strawperson(interfaces=stable_interfaces))
        assert strawperson.passed  # the unsound §2.2 procedure accepts them
        temporal = verify(core.annotate(example.network, figure9_interfaces()))
        assert not temporal.passed  # the temporal procedure does not

    def test_strawperson_reports_counterexamples_for_honest_failures(self):
        example = build_running_example("symbolic")
        stable_interfaces = {
            "n": lambda r: SymBool.true(),
            "w": lambda r: r.is_some & (r.payload.lp == 100),
            "v": lambda r: r.is_none,  # plainly wrong: v does get a route from w
            "d": lambda r: SymBool.true(),
            "e": lambda r: SymBool.true(),
        }
        report = verify(example.network, Strawperson(interfaces=stable_interfaces))
        assert not report.passed
        assert "v" in report.failed_nodes
        assert report.counterexamples

    def test_strawperson_requires_full_interfaces(self):
        example = build_running_example("none")
        with pytest.raises(VerificationError):
            verify(example.network, Strawperson(interfaces={"n": lambda r: SymBool.true()}))


class TestCheckerMechanics:
    def test_check_node_fail_fast_stops_after_first_failure(self):
        example = build_running_example("symbolic")
        annotated = core.annotate(example.network, figure9_interfaces())
        report = core.check_node(annotated, "v", fail_fast=True)
        assert len(report.results) == 1
        report_full = core.check_node(annotated, "v", fail_fast=False)
        assert len(report_full.results) == 3

    def test_check_selected_conditions_only(self):
        example = build_running_example("symbolic")
        annotated = core.annotate(example.network, figure7_interfaces())
        report = core.check_node(annotated, "v", conditions=(core.INITIAL,))
        assert [result.condition for result in report.results] == [core.INITIAL]
        with pytest.raises(VerificationError):
            core.check_node(annotated, "v", conditions=("bogus",))
        with pytest.raises(VerificationError, match="unknown condition kinds"):
            core.check_class(
                annotated, core.SymmetryClass(key=0, members=("v", "d")), conditions=("bogus",)
            )

    def test_verify_subset_of_nodes(self):
        example = build_running_example("symbolic")
        annotated = core.annotate(example.network, figure7_interfaces())
        report = verify(annotated, nodes=["v", "d"])
        assert set(report.node_reports) == {"v", "d"}
        with pytest.raises(VerificationError):
            verify(annotated, nodes=["nope"])

    def test_parallel_matches_sequential(self):
        example = build_running_example("symbolic")
        properties = {node: core.always_true() for node in "nwvd"}
        properties["e"] = core.finally_(3, core.globally(lambda r: r.is_some))
        annotated = core.AnnotatedNetwork(example.network, figure8_interfaces(), properties)
        sequential = verify(annotated, Modular(parallel=1))
        parallel = verify(annotated, Modular(parallel=4))
        assert sequential.passed == parallel.passed is True
        assert set(sequential.node_reports) == set(parallel.node_reports)
        assert parallel.parallelism == 4

    def test_report_statistics(self):
        example = build_running_example("symbolic")
        annotated = core.annotate(example.network, figure7_interfaces())
        report = verify(annotated)
        assert report.total_node_time >= report.max_node_time >= report.p99_node_time >= 0
        assert report.median_node_time <= report.p99_node_time
        assert "PASS" in report.summary()
        assert core.percentile([], 0.5) == 0.0
        assert core.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
