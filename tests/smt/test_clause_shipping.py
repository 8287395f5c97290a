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
#: every mode (see CHANGES.md) before re-recording.
GOLDEN = {
    "fattree/reach": {
        "conflicts": 49,
        "decisions": 183,
        "propagations": 1831,
        "clauses": 16477,
        "variables": 4156,
        "checks": 60,
        "clauses_shipped": 16477,
    },
    "fattree/length": {
        "conflicts": 611,
        "decisions": 1740,
        "propagations": 52924,
        "clauses": 20789,
        "variables": 4904,
        "checks": 60,
        "clauses_shipped": 20789,
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
        assert solver.check(both).is_sat
        assert solver.clauses_shipped == shipped_twice
        # A new scope starts empty and pays for the cone again.
        solver.new_scope()
        assert solver.check(low).is_sat
        assert solver.clauses_shipped == shipped_twice + after_first

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
        result = smt.check_sat(formula, solver=solver)
        assert result.is_sat and result.model()["flat_compact"] < 13
        assert solver.clauses_shipped > shipped  # cumulative across rebuilds


def _conflict_heavy_query():
    x, y, z = (smt.bv_var(f"roundtrip_{name}", 8) for name in "xyz")
    return smt.and_(
        smt.eq(smt.bv_add(x, y), z),
        smt.eq(smt.bv_add(y, z), x),
        smt.bv_ult(x, y),
        smt.bv_ugt(z, smt.bv_const(77, 8)),
        smt.not_(smt.eq(smt.bv_add(x, z), smt.bv_const(5, 8))),
    )


class TestLearnedClauseRoundTrip:
    def test_harvest_then_inject_reproduces_the_learned_clauses(self, monkeypatch):
        solver = IncrementalSolver(persist_learned=True)
        solver.add(_conflict_heavy_query())
        first = solver.check()
        retiring = solver._sat
        learned = [[unit] for unit in retiring.root_implied_literals()] + retiring.learned_clauses()
        expected = {tuple(c) for c in learned if len(c) <= solver.max_carried_literals}
        assert len(expected) > 5

        injected = []
        original = CdclSolver.add_clause_unchecked

        def recording(self, literals):
            injected.append(tuple(literals))
            return original(self, literals)

        monkeypatch.setattr(CdclSolver, "add_clause_unchecked", recording)
        solver.new_scope()
        second = solver.check()
        # The new scope receives the same cone in the same order, so its
        # local numbering equals the retired scope's: translating out through
        # the signed literal map and back in must reproduce each clause.
        assert set(injected) == expected
        assert solver.cache_statistics()["learned_carried"] == len(expected)
        assert second.status == first.status

    @pytest.mark.parametrize("name", registry.benchmark_names())
    def test_persistent_backend_is_byte_identical_on_the_registry(self, name):
        if name.startswith("fattree/"):
            parameters = {"pods": 4}
        elif name.startswith("wan/"):
            parameters = {"internal_routers": 4, "external_peers": 4}
        else:
            parameters = {}
        annotated = registry.build(name, **parameters).annotated
        verdicts = {}
        for backend in ("fresh", "incremental", "persistent"):
            reset_process_solver()
            verdicts[backend] = json.dumps(
                condition_verdicts(verify(annotated, Modular(backend=backend))), sort_keys=True, default=str
            )
        assert verdicts["incremental"] == verdicts["fresh"]
        assert verdicts["persistent"] == verdicts["fresh"]
