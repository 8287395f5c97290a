"""Clause shipping: range bookkeeping, scope numbering and the recorded search.

The incremental backend ships clause cones into SAT scopes as ranges of the
flat CNF.  These tests pin the three things that makes safe: the per-clause
flags ship exactly what a per-index ``set`` would, the scope-local numbering
and the loaded clause database are the ones the per-clause loop produced,
and the CDCL search and shipped volume on registry benchmarks are
count-for-count the recorded ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import smt
from repro.core import condition_verdicts
from repro.networks import registry
from repro.smt.incremental import IncrementalSolver, _merge_spans, reset_process_solver
from repro.smt.sat import CdclSolver
from repro.verify import Modular, verify

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``GLOBAL_STATISTICS`` deltas and clauses shipped by ``verify(..., Modular())``
#: in a fresh process.  They depend on nothing but the code: not on the
#: machine, not on ``PYTHONHASHSEED``.  A change here means the search or the
#: shipped volume moved — the machine-independent gate for "clauses shipped
#: per check".  Re-recorded when scopes stopped rotating per node (with a
#: scope per node: 59/68/1121 and 27,876 shipped on ``fattree/reach``,
#: 742/1937/52727 and 34,949 on ``fattree/length``; now every encoded
#: clause ships exactly once); encoded clauses, variables and checks did
#: not move, and verdicts were shown identical to the parent commit in
#: every mode (see CHANGES.md) before re-recording.  Re-recorded again when
#: every condition came to be built with positional route names (was
#: 49/183/1831 and 16,477 clauses over 4,156 variables on ``fattree/reach``,
#: 611/1740/52924 and 20,789 over 4,904 on ``fattree/length``): isomorphic
#: nodes' queries are term-identical, so each is encoded once; checks did
#: not move.  Re-recorded when ``IncrementalSolver.check`` came to memoise
#: answers by query (was 777 propagations over 60 checks on
#: ``fattree/reach``, 17,015 over 60 on ``fattree/length``): each distinct
#: query is solved once, so a repeat no longer re-propagates its assumptions;
#: conflicts, decisions, encoded and shipped clauses did not move, and every
#: report differed from the parent's in ``backend_cache`` alone.
GOLDEN = {
    "fattree/reach": {
        "conflicts": 9,
        "decisions": 17,
        "propagations": 245,
        "clauses": 2069,
        "variables": 575,
        "checks": 12,
        "clauses_shipped": 2069,
    },
    "fattree/length": {
        "conflicts": 211,
        "decisions": 541,
        "propagations": 14359,
        "clauses": 3272,
        "variables": 821,
        "checks": 12,
        "clauses_shipped": 3272,
    },
}

_GOLDEN_SCRIPT = """
import json, sys
from repro import smt
from repro.networks import registry
from repro.verify import Modular, verify

annotated = registry.build(sys.argv[1], pods=4).annotated
before = smt.GLOBAL_STATISTICS.snapshot()
report = verify(annotated, Modular())
delta = smt.GLOBAL_STATISTICS.since(before)
counts = {name: getattr(delta, name) for name in
          ("conflicts", "decisions", "propagations", "clauses", "variables", "checks")}
counts["clauses_shipped"] = report.backend_cache["clauses_shipped"]
print(json.dumps(counts))
"""


class TestSearchIsUnchanged:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_counts_match_the_parent_commit(self, name):
        # A fresh process: hash-consed term ids (and with them the encoding
        # order) depend on what the process built before.
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", _GOLDEN_SCRIPT, name],
            capture_output=True,
            text=True,
            env=environment,
            check=True,
        )
        assert json.loads(completed.stdout.splitlines()[-1]) == GOLDEN[name]


def _reference_ship(cnf, shipped, var_map, sat, spans):
    """The per-clause shipping loop of the parent commit, kept as the oracle."""
    clauses = cnf.clauses
    for start, end in spans:
        for index in range(start, end):
            if index in shipped:
                continue
            shipped.add(index)
            mapped = []
            for literal in clauses[index]:
                variable = abs(literal)
                local = var_map.get(variable)
                if local is None:
                    local = len(var_map) + 1
                    var_map[variable] = local
                mapped.append(local if literal > 0 else -local)
            sat.add_clause_unchecked(mapped)


class TestRangeShipping:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_interval_tracker_equals_the_per_index_set(self, data):
        num_vars = data.draw(st.integers(2, 10))
        literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
        raw_clauses = data.draw(st.lists(st.lists(literal, min_size=1, max_size=4), min_size=1, max_size=24))
        solver = IncrementalSolver()
        cnf = solver._cnf
        for _ in range(num_vars):
            cnf.new_var()
        for clause in raw_clauses:
            cnf.add_clause(clause)  # drops tautologies, merges duplicates
        count = cnf.num_clauses
        span = st.tuples(st.integers(0, count), st.integers(0, count)).map(lambda s: tuple(sorted(s)))
        cones = data.draw(st.lists(st.lists(span, max_size=5), max_size=6))

        reference = CdclSolver()
        shipped: set[int] = set()
        var_map: dict[int, int] = {}
        for cone in cones:
            # What _activate hands to _ship: merged, sorted, disjoint ranges.
            spans = _merge_spans([s for s in cone if s[0] < s[1]])
            solver._ship(spans)
            _reference_ship(cnf, shipped, var_map, reference, spans)
            # The scope's per-clause flags mark exactly the indices the
            # per-index set holds.
            assert len(solver._shipped) == count
            assert {index for index, flag in enumerate(solver._shipped) if flag} == shipped

        # Every clause index shipped exactly once, with the same numbering...
        assert solver.clauses_shipped == len(shipped)
        assert solver.variables_mapped == len(var_map)
        for variable in range(1, num_vars + 1):
            assert solver.local_variable(variable) == var_map.get(variable)
        # ... leaving the SAT core in the state the per-clause loop built.
        sat = solver._sat
        assert sat.num_vars == reference.num_vars
        assert sat._clauses == reference._clauses
        assert sat._pending_units == reference._pending_units
        assert sat._unsatisfiable == reference._unsatisfiable
        assert dict(sat._watches) == dict(reference._watches)

    def test_overlapping_cones_ship_only_the_gap(self):
        solver = IncrementalSolver()
        x = smt.bv_var("ship_x", 6)
        low = smt.bv_ugt(x, smt.bv_const(3, 6))
        both = smt.and_(low, smt.bv_ult(x, smt.bv_const(40, 6)))
        assert solver.check(low).is_sat
        after_first = solver.clauses_shipped
        assert 0 < after_first == solver._cnf.num_clauses
        # The second cone contains the first; only the new clauses travel, so
        # every clause of the CNF has now been shipped exactly once.
        assert solver.check(both).is_sat
        assert after_first < solver.clauses_shipped == solver._cnf.num_clauses
        shipped_twice = solver.clauses_shipped
        # A conjunct that blasts to true ships nothing but makes the query
        # distinct, so each repeat below is solved, not answered from memo.
        assert solver.check(both, smt.true()).is_sat
        assert solver.clauses_shipped == shipped_twice
        # A new scope starts empty and pays for the cone again.
        solver.new_scope()
        assert solver.check(low, smt.true()).is_sat
        assert solver.clauses_shipped == shipped_twice + after_first
        assert solver.answer_hits == 0

    def test_counters_reach_the_report(self):
        reset_process_solver()
        report = verify(registry.build("fattree/reach", pods=4).annotated, Modular())
        cache = report.backend_cache
        assert cache["clauses_shipped"] > 0 and cache["variables_mapped"] > 0
        assert report.to_json()["backend_cache"]["clauses_shipped"] == cache["clauses_shipped"]
        # Workers report deltas that sum like every other cumulative counter.
        reset_process_solver()
        parallel = verify(
            registry.build("fattree/reach", pods=4).annotated, Modular(parallel=2)
        )
        assert parallel.backend_cache["clauses_shipped"] > 0
        # Isomorphic nodes pose one query; a worker answers its repeats from memo.
        assert parallel.backend_cache["answer_hits"] > 0

    def test_compaction_rebuilds_the_flat_store(self):
        solver = IncrementalSolver(max_variables=1)
        x = smt.bv_var("flat_compact", 6)
        formula = smt.bv_ult(x, smt.bv_const(13, 6))
        assert smt.check_sat(formula, solver=solver).is_sat
        assert solver.compactions == 1
        shipped = solver.clauses_shipped
        # The rebuilt CNF is empty and no scope state refers to the old one.
        assert solver._cnf.num_clauses == 0 and len(solver._cnf.literals) == 0
        assert solver.local_variable(1) is None
        # A distinct query (see above), so the rebuilt store is really used.
        result = solver.check(formula, smt.true())
        assert result.is_sat and result.model()["flat_compact"] < 13
        assert solver.clauses_shipped > shipped  # cumulative across rebuilds
        assert solver.answer_hits == 0


class TestRegistryVerdicts:
    @pytest.mark.parametrize("name", registry.benchmark_names())
    def test_engine_is_byte_identical_to_the_reference_on_the_registry(self, name, reference_report):
        if name.startswith("fattree/"):
            parameters = {"pods": 4}
        elif name.startswith("wan/"):
            parameters = {"internal_routers": 4, "external_peers": 4}
        else:
            parameters = {}
        annotated = registry.build(name, **parameters).annotated
        reset_process_solver()

        def verdicts(report):
            return json.dumps(condition_verdicts(report), sort_keys=True, default=str)

        assert verdicts(verify(annotated, Modular())) == verdicts(reference_report(annotated))
