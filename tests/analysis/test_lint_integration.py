"""End-to-end lint integration: registry hygiene, seeded mutations, zero SAT.

This file enforces the two-sided contract of the static-analysis layer:
healthy benchmarks lint *clean* (info notes allowed), the documented seeded
mutations are *detected*, and linting performs no solver work whatsoever —
no SAT checks, no bit-blasting, no Tseitin encoding.  It also covers the
session/CLI wiring: ``Session.run(lint=...)``, ``verify(..., lint=...)``
and the ``timepiece-bench lint`` subcommand.
"""

import json

import pytest

from repro import core, smt
from repro.analysis import lint_benchmark, lint_network
from repro.analysis.mutations import (
    add_unused_community,
    lower_witness_time,
    make_interface_vacuous,
)
from repro.config import WanParameters, generate_wan_config
from repro.core.annotations import AnnotatedNetwork
from repro.errors import AnalysisError, VerificationError
from repro.harness.cli import main as cli_main
from repro.networks import registry
from repro.networks.wan import build_wan_benchmark
from repro.routing import path_topology, shortest_path_network
from repro.smt.incremental import process_cache_statistics
from repro.verify import LINT_MODES, Session, verify


def reach_example(broken_node=None):
    """A 3-node reachability path; optionally plant the §3 bug on one node."""
    topology = path_topology(3)
    network = shortest_path_network(topology, "n0")
    interfaces = {
        node: core.finally_(index, core.globally(lambda r: r.is_some))
        for index, node in enumerate(("n0", "n1", "n2"))
    }
    if broken_node is not None:
        # Demand the route one step before it can arrive.
        distance = int(broken_node[1])
        interfaces[broken_node] = core.finally_(
            distance - 1, core.globally(lambda r: r.is_some)
        )
    return core.annotate(network, interfaces)


class TestRegistryHygiene:
    @pytest.mark.parametrize("name", registry.benchmark_names())
    def test_benchmarks_lint_clean(self, name):
        report = lint_benchmark(registry.build(name))
        assert report.clean, report.describe()
        assert report.target == registry.build(name).name
        assert report.passes  # every registered pass ran

    def test_lint_performs_no_solver_work(self):
        solver_before = smt.GLOBAL_STATISTICS.snapshot()
        cache_before = process_cache_statistics()
        lint_benchmark(registry.build("fattree/reach"))
        lint_network(reach_example(broken_node="n2"))
        assert smt.GLOBAL_STATISTICS.since(solver_before).checks == 0
        assert process_cache_statistics() == cache_before


class TestSeededMutations:
    def test_witness_time_mutation_detected(self):
        built = registry.build("fattree/reach")
        mutated, node, distance = lower_witness_time(built.annotated)
        report = lint_network(mutated, name="mutated")
        assert "TP004" in report.codes()
        [finding] = report.by_code("TP004")
        assert finding.node == node
        assert f"{distance} hops away" in finding.message
        # The edit drops the builder's role hint; re-attached, the hint is
        # caught filing the mutated member under a class it diverges from.
        hinted = AnnotatedNetwork(
            mutated.network,
            {name: mutated.interface(name) for name in mutated.nodes},
            {name: mutated.node_property(name) for name in mutated.nodes},
            minimum_time_width=mutated.minimum_time_width,
            symmetry_key=built.annotated.symmetry_key,
        )
        assert "TP008" not in report.codes()
        assert "TP008" in lint_network(hinted, name="hinted").codes()

    def test_vacuous_interface_mutation_detected(self):
        built = registry.build("fattree/reach")
        mutated, node = make_interface_vacuous(built.annotated)
        report = lint_network(mutated, name="mutated")
        assert "TP002" in report.codes()
        assert any(finding.node == node for finding in report.by_code("TP002"))

    def test_unused_community_mutation_detected(self):
        parameters = WanParameters(internal_routers=4, external_peers=2)
        mutated_text = add_unused_community(generate_wan_config(parameters))
        wan = build_wan_benchmark(parameters, config_text=mutated_text)
        report = lint_network(
            wan.annotated, config=wan.compiled.resolved, name="mutated"
        )
        [finding] = report.by_code("TP010")
        assert "LINT-UNUSED" in finding.message
        assert finding.line is not None

    def test_mutation_detection_needs_no_solver(self):
        solver_before = smt.GLOBAL_STATISTICS.snapshot()
        cache_before = process_cache_statistics()
        built = registry.build("fattree/reach")
        mutated, _, _ = lower_witness_time(built.annotated)
        assert not lint_network(mutated).clean
        assert smt.GLOBAL_STATISTICS.since(solver_before).checks == 0
        assert process_cache_statistics() == cache_before


class TestSessionWiring:
    def test_strict_mode_fails_fast_before_any_dispatch(self):
        annotated = reach_example(broken_node="n2")
        solver_before = smt.GLOBAL_STATISTICS.snapshot()
        with pytest.raises(AnalysisError) as excinfo:
            Session(annotated).run(lint="strict")
        assert any(finding.code == "TP004" for finding in excinfo.value.diagnostics)
        # Fail-fast means fail-before-SAT.
        assert smt.GLOBAL_STATISTICS.since(solver_before).checks == 0

    def test_strict_mode_passes_clean_networks_through(self):
        report = Session(reach_example()).run(lint="strict")
        assert report.verdict == "pass"
        assert report.diagnostics == []

    def test_warn_mode_attaches_diagnostics_and_serialises(self):
        report = Session(reach_example(broken_node="n2")).run(lint="warn")
        # The SAT run corroborates what lint predicted without a solver.
        assert report.verdict == "fail"
        assert any(finding.code == "TP004" for finding in report.diagnostics)
        payload = report.to_json()
        assert any(entry["code"] == "TP004" for entry in payload["diagnostics"])

    def test_no_lint_means_no_diagnostics(self):
        report = Session(reach_example()).run()
        assert report.diagnostics == []

    def test_verify_forwards_the_lint_keyword(self):
        with pytest.raises(AnalysisError):
            verify(reach_example(broken_node="n2"), lint="strict")

    def test_unknown_lint_mode_rejected_eagerly(self):
        assert LINT_MODES == ("warn", "strict")
        with pytest.raises(VerificationError):
            Session(reach_example()).run(lint="loud")


class TestCliLint:
    def test_lint_subcommand_clean_benchmark_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint clean" in out

    def test_lint_subcommand_writes_json(self, tmp_path, capsys):
        path = tmp_path / "lint.json"
        assert cli_main(["lint", "fattree/reach", "--json", str(path)]) == 0
        capsys.readouterr()
        [entry] = json.loads(path.read_text())
        assert entry["clean"] is True
        assert entry["target"] == "SpReach"

    def test_lint_subcommand_unknown_benchmark_exits_two(self, capsys):
        assert cli_main(["lint", "no/such_benchmark"]) == 2
        assert "no/such_benchmark" in capsys.readouterr().err
