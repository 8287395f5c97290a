"""Unit tests for the individual lint passes and their building blocks."""

from repro import core
from repro.analysis import LintTarget, default_passes, lint_network
from repro.analysis.configlint import ConfigLintPass
from repro.analysis.distance import DistancePass, earliest_route_demand, origin_distances
from repro.analysis.sortcheck import check_term_sorts, term_path
from repro.analysis.vacuity import conjuncts, propagate, unit_assignments
from repro.config import analyze, parse_config
from repro.routing import path_topology, shortest_path_network
from repro.smt.sorts import BOOL, BitVecSort
from repro.smt.terms import FALSE, OP_AND, OP_BVCONST, OP_ITE, OP_NOT, TRUE, make_term
from repro.symbolic import SymBV, SymBool


def reach(interfaces=None, properties=None, symmetry_key=None):
    """A 3-node path annotated for reachability, with optional overrides."""
    topology = path_topology(3)
    network = shortest_path_network(topology, "n0")
    if interfaces is None:
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(("n0", "n1", "n2"))
        }
    if properties is None:
        properties = {
            node: core.finally_(2, core.globally(lambda r: r.is_some))
            for node in topology.nodes
        }
    return core.AnnotatedNetwork(network, interfaces, properties, symmetry_key=symmetry_key)


class TestSortChecker:
    def test_well_sorted_cone_is_clean(self):
        x, y = SymBool.variable("x"), SymBool.variable("y")
        assert check_term_sorts((x & ~y).term) == []

    def test_ill_sorted_argument_reported_with_path(self):
        x = SymBool.variable("x")
        clock = SymBV.variable("clock", 4)
        bad = make_term(OP_NOT, (clock.term,), None, BOOL)
        root = make_term(OP_AND, (x.term, bad), None, BOOL)
        problems = check_term_sorts(root)
        assert any(term is bad and "argument 0 of not" in message for term, message in problems)
        assert term_path(root, bad) == "and[1]"

    def test_unknown_operator_reported(self):
        rogue = make_term("frobnicate", (), None, BOOL)
        [(term, message)] = check_term_sorts(rogue)
        assert term is rogue
        assert "unknown operator" in message

    def test_wrong_arity_reported(self):
        x, y = SymBool.variable("x"), SymBool.variable("y")
        truncated = make_term(OP_ITE, (x.term, y.term), None, BOOL)
        [(_, message)] = check_term_sorts(truncated)
        assert "expects 3 argument(s), got 2" in message

    def test_bvconst_out_of_range_reported(self):
        oversized = make_term(OP_BVCONST, (), 999, BitVecSort(4))
        [(_, message)] = check_term_sorts(oversized)
        assert "out of range" in message

    def test_visited_set_collects_only_clean_cones(self):
        x = SymBool.variable("x")
        clock = SymBV.variable("clock", 4)
        bad = make_term(OP_NOT, (clock.term,), None, BOOL)
        root = make_term(OP_AND, (x.term, bad), None, BOOL)
        visited: set[int] = set()
        assert check_term_sorts(root, visited)
        assert x.term.term_id in visited  # the clean leaf is cleared
        assert bad.term_id not in visited  # offenders are re-reported next run
        assert root.term_id not in visited  # ...and so is anything containing one
        clean_root = (x & SymBool.variable("y")).term
        assert check_term_sorts(clean_root, visited) == []
        assert clean_root.term_id in visited
        # A second walk over a cleared cone prunes immediately.
        assert check_term_sorts(clean_root, visited) == []


class TestConstraintPropagation:
    def test_conjuncts_flatten_nested_conjunctions(self):
        x, y, z = (SymBool.variable(name) for name in "xyz")
        term = ((x & y) & z).term
        assert {conjunct.payload for conjunct in conjuncts(term)} == {"x", "y", "z"}

    def test_unit_assignments_recognise_all_unit_shapes(self):
        x, y = SymBool.variable("x"), SymBool.variable("y")
        clock = SymBV.variable("clock", 4)
        assumptions = (x & ~y & (clock == SymBV.constant(2, 4))).term
        units = unit_assignments(assumptions)
        assert units["x"] is TRUE
        assert units["y"] is FALSE
        assert units["clock"].payload == 2

    def test_unit_assignments_detect_contradictory_constants(self):
        clock = SymBV.variable("clock", 4)
        both = ((clock == SymBV.constant(2, 4)) & (clock == SymBV.constant(3, 4))).term
        assert unit_assignments(both) is None

    def test_propagate_refutes_goal_under_units(self):
        x = SymBool.variable("x")
        clock = SymBV.variable("clock", 4)
        assumptions = (x & (clock == SymBV.constant(2, 4))).term
        goal = (clock == SymBV.constant(3, 4)).term
        folded_assumptions, folded_goal = propagate(assumptions, goal)
        assert folded_assumptions.is_bool_const() and folded_assumptions.bool_value()
        assert folded_goal.is_false()

    def test_propagate_collapses_contradictory_assumptions(self):
        clock = SymBV.variable("clock", 4)
        assumptions = ((clock == SymBV.constant(2, 4)) & (clock == SymBV.constant(3, 4))).term
        goal = SymBool.variable("x").term
        folded_assumptions, _ = propagate(assumptions, goal)
        assert folded_assumptions.is_false()


class TestVacuityPass:
    def test_trivially_false_interface_is_tp003(self):
        annotated = reach(
            interfaces={
                "n0": core.globally(lambda r: r.is_some),
                "n1": core.finally_(1, core.globally(lambda r: r.is_some)),
                "n2": core.globally(lambda r: SymBool.false()),
            }
        )
        report = lint_network(annotated)
        findings = report.by_code("TP003")
        assert [finding.node for finding in findings] == ["n2"]
        # TP003 is the root cause: n2 itself gets no per-condition or distance
        # findings (the neighbour n1, whose inductive assumptions embed the
        # contradictory interface, legitimately reports TP005).
        assert not report.by_code("TP004")
        assert all(finding.node != "n2" for finding in report.by_code("TP005"))

    def test_vacuously_true_interface_is_tp002(self):
        annotated = reach(
            interfaces={
                "n0": core.globally(lambda r: r.is_some),
                "n1": core.finally_(1, core.globally(lambda r: r.is_some)),
                "n2": core.always_true(),
            }
        )
        report = lint_network(annotated)
        assert [finding.node for finding in report.by_code("TP002")] == ["n2"]

    def test_always_true_interface_with_trivial_property_is_not_tp002(self):
        annotated = reach(
            interfaces={node: core.always_true() for node in ("n0", "n1", "n2")},
            properties={node: core.always_true() for node in ("n0", "n1", "n2")},
        )
        report = lint_network(annotated)
        assert not report.by_code("TP002")
        # Fully unconstrained nodes are coverage notes instead...
        assert len(report.by_code("TP007")) == 3
        # ...and notes alone keep the report clean.
        assert report.clean

    def test_constant_false_property_is_tp006(self):
        annotated = reach(properties={
            "n0": core.always_true(),
            "n1": core.always_true(),
            "n2": core.globally(lambda r: SymBool.false()),
        })
        report = lint_network(annotated)
        findings = report.by_code("TP006")
        assert findings
        assert all(finding.node == "n2" for finding in findings)
        assert any(finding.condition == "safety" for finding in findings)


class TestDistancePass:
    def test_origin_distances_bfs(self):
        annotated = reach()
        assert origin_distances(annotated.network) == {"n0": 0, "n1": 1, "n2": 2}

    def test_earliest_route_demand_probes_concrete_times(self):
        annotated = reach()
        target = LintTarget(annotated)
        # F^2(G(has route)) tolerates the absent route until time 2.
        assert earliest_route_demand(target, "n2", probe_limit=3) == 2
        assert earliest_route_demand(target, "n2", probe_limit=2) is None

    def test_witness_time_below_distance_is_tp004(self):
        annotated = reach(
            interfaces={
                "n0": core.finally_(0, core.globally(lambda r: r.is_some)),
                "n1": core.finally_(1, core.globally(lambda r: r.is_some)),
                # n2 sits two hops from the origin but demands a route at time 1.
                "n2": core.finally_(1, core.globally(lambda r: r.is_some)),
            }
        )
        report = lint_network(annotated)
        [finding] = report.by_code("TP004")
        assert finding.node == "n2"
        assert "2 hops away" in finding.message

    def test_consistent_interfaces_are_not_flagged(self):
        report = lint_network(reach())
        assert not report.by_code("TP004")
        assert report.clean


class TestCoveragePass:
    def test_inconsistent_symmetry_class_is_tp008(self):
        annotated = reach(symmetry_key=lambda node: "tail" if node != "n0" else None)
        # n1 and n2 share a hint key but carry different witness times.
        report = lint_network(annotated)
        [finding] = report.by_code("TP008")
        assert finding.node == "n1"  # the representative
        assert "'n2'" in finding.message

    def test_consistent_symmetry_class_is_silent(self):
        shared = core.finally_(2, core.globally(lambda r: r.is_some))
        annotated = reach(
            interfaces={"n0": core.globally(lambda r: r.is_some), "n1": shared, "n2": shared},
            symmetry_key=lambda node: "tail" if node != "n0" else None,
        )
        # n2's interface is loose but identical to n1's: no TP008 (the
        # inductive failure, if any, is the verifier's to find on the
        # representative).
        assert not lint_network(annotated).by_code("TP008")


class TestLintTarget:
    def test_deep_nodes_without_hint_is_every_node(self):
        target = LintTarget(reach())
        assert target.deep_nodes() == target.nodes

    def test_deep_nodes_with_hint_keeps_representatives_and_unhinted(self):
        annotated = reach(symmetry_key=lambda node: "tail" if node != "n0" else None)
        target = LintTarget(annotated)
        assert target.deep_nodes() == ("n0", "n1")

    def test_interface_values_fold_constants_only(self):
        annotated = reach(
            interfaces={
                "n0": core.always_true(),
                "n1": core.globally(lambda r: SymBool.false()),
                "n2": core.globally(lambda r: r.is_some),
            }
        )
        target = LintTarget(annotated)
        assert target.interface_value("n0") is True
        assert target.interface_value("n1") is False
        assert target.interface_value("n2") is None

    def test_targets_for_the_same_network_share_memos(self):
        annotated = reach()
        first = LintTarget(annotated)
        first.conditions("n1")
        second = LintTarget(annotated)
        assert second.memo("conditions") is first.memo("conditions")
        assert "n1" in second.memo("conditions")


class TestBuiltinPasses:
    def test_pass_order_is_the_literal_list(self):
        names = [lint_pass.name for lint_pass in default_passes()]
        assert names == ["config", "coverage", "distance", "sorts", "vacuity"]
        assert lint_network(reach()).passes == tuple(names)

    def test_an_explicit_pass_list_runs_as_given(self):
        # Without a registry, a caller picks passes by instantiating them.
        report = lint_network(reach(), passes=[DistancePass(), ConfigLintPass()])
        assert report.passes == ("distance", "config")


HYGIENE_CONFIG = """
community GOLD members 65535:1;
community UNUSED members 65535:2;
prefix-list internal { 10; }
prefix-list dead { 99; }
policy-statement keep {
    term all { then { accept; } }
    term never { then { reject; } }
}
policy-statement GOLD {
    term by-list { from { prefix-list internal; } then { accept; } }
    term by-tag { from { community GOLD; } then { accept; } }
}
router a {
    announce prefix 10;
    neighbor b { import keep; export GOLD; }
}
router b {
    neighbor a { import keep; }
}
"""


class TestConfigLintPass:
    def test_config_findings_map_to_stable_codes(self):
        resolved = analyze(parse_config(HYGIENE_CONFIG))
        report = lint_network(reach(), config=resolved, passes=[ConfigLintPass()])
        assert report.codes() == ("TP009", "TP010", "TP011", "TP012")
        [unreachable] = report.by_code("TP009")
        assert "'never'" in unreachable.message
        [unused_community] = report.by_code("TP010")
        assert unused_community.source == "community 'UNUSED'"
        assert unused_community.line is not None
        [unused_list] = report.by_code("TP011")
        assert "'dead'" in unused_list.message
        [shadowed] = report.by_code("TP012")
        assert "'GOLD'" in shadowed.message

    def test_targets_without_config_skip_the_pass(self):
        report = lint_network(reach(), passes=[ConfigLintPass()])
        assert len(report) == 0
        assert report.passes == ("config",)


class TestDistanceHelpers:
    def test_distance_pass_abstains_without_option_routes(self):
        class Opaque:
            route_shape = object()
            topology = None

        assert origin_distances(Opaque()) is None
        assert list(DistancePass().run(LintTarget(reach()))) == []
