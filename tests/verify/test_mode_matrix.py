"""One oracle for every engine mode, plus golden report digests.

Every combination of ``symmetry`` × ``parallel`` × ``delta`` ×
``stop_on_failure`` that :class:`Modular` accepts, over every node or a
reordered subset, on the per-process solver or a supplied one (also one small
enough to rotate mid-run), must agree with the reference
(``reference_report`` in ``tests/conftest.py``: ``check_node``'s raw
conditions on a fresh SAT instance per condition, outside the engine, where
every mode builds numbered ones) on verdicts, node order and
counterexample validity — on every registry network at its smallest size
(every all-pairs variant too), on each of them with its first node's interface
made unsatisfiable (the all-pairs copies keep their quotient marker, so a
class of several members fails and each member re-discharges its own
conditions), on two failing paths, and on one-node edits placed off the first
node of a role.  The golden digests additionally pin the
full timing-free report JSON of the sequential modes to what the pre-merge
engine (four loops, two work-item types) produced.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import core
from repro.analysis.mutations import lower_witness_time, make_interface_vacuous
from repro.core.annotations import AnnotatedNetwork
from repro.core.results import condition_verdicts
from repro.core.symmetry import SYMMETRY_MODES
from repro.networks import registry
from repro.networks.benchmarks import POLICIES, inject_interface_failure
from repro.routing import path_topology, shortest_path_network
from repro.smt.incremental import IncrementalSolver
from repro.verify import Modular, Session, verify

#: The smallest parameters each registry family accepts.
SMALLEST = {
    "fattree": {"pods": 2},
    "wan": {"internal_routers": 3, "external_peers": 1},
    "ghost": {},
}


def _registry_case(name, **extra):
    return lambda: registry.build(name, **SMALLEST[name.split("/")[0]], **extra).annotated


def _symmetric_failing_path():
    # The two ends promise a route one step too early, so both fail their
    # inductive condition with one query: the second is a memoised answer,
    # whose counterexample names the second end's own neighbour.
    topology = path_topology(5)
    has_route = core.globally(lambda r: r.is_some)
    interfaces = {node: core.finally_(1, has_route) for node in topology.nodes}
    interfaces["n2"] = has_route
    return core.annotate(shortest_path_network(topology, "n2"), interfaces)


def _injected_failure(name):
    # The poisoned node is the middle of the subset selection (rounded to its
    # start), so both selections hold a failure and a run stopped by it has
    # answered enough queries to rotate the small scope of the rotating solver.
    def build():
        annotated = registry.build(name, **SMALLEST[name.split("/")[0]]).annotated
        selected = SELECTIONS["subset"](annotated)
        return inject_interface_failure(annotated, selected[(len(selected) - 1) // 2])[0]

    return build


def _quotient_failure(policy):
    # ``inject_interface_failure`` drops the quotient marker; this copy keeps
    # it.  With ``core-0`` unsatisfiable, the class of both aggregation
    # switches fails, and each member re-discharges its own raw conditions.
    def build():
        annotated = _registry_case(f"fattree/{policy}", all_pairs=True)()
        interfaces = {node: annotated.interface(node) for node in annotated.nodes}
        interfaces[annotated.nodes[0]] = core.globally(lambda r: r.is_none)
        return AnnotatedNetwork(
            annotated.network,
            interfaces,
            {node: annotated.node_property(node) for node in annotated.nodes},
            minimum_time_width=annotated.minimum_time_width,
            destination_symmetry=annotated.destination_symmetry,
        )

    return build


#: name -> builder of the annotated network (``None``: the shared
#: ``one_failing_node_annotated`` conftest factory).
PASSING_NETWORKS = {
    **{name: _registry_case(name) for name in registry.benchmark_names()},
    **{
        f"fattree/{policy}[all_pairs]": _registry_case(f"fattree/{policy}", all_pairs=True)
        for policy in POLICIES
    },
}
FAILING_NETWORKS = {
    # ``ghost/no_transit`` has three nodes: either one of its subset's two is
    # the first a selection checks, and a run stopped there never rotates.
    **{
        f"{name}[failure]": _injected_failure(name)
        for name in registry.benchmark_names()
        if name != "ghost/no_transit"
    },
    **{f"fattree/{policy}[all_pairs,failure]": _quotient_failure(policy) for policy in POLICIES},
    "path[symmetric_failure]": _symmetric_failing_path,
    "path[one_failing_node]": None,
}
NETWORKS = {**PASSING_NETWORKS, **FAILING_NETWORKS}
#: Runs that contain failing conditions (``stop_on_failure`` then cuts them short).
FAILING = tuple(FAILING_NETWORKS)

#: How a run picks its nodes: every node in network order, or every other
#: node in reverse order (a proper subset whose selection order differs from
#: the network's, still holding each failing network's failing nodes).
SELECTIONS = {
    "all": lambda annotated: None,
    "subset": lambda annotated: tuple(reversed(annotated.nodes[::2])),
}

#: Where a run's solver comes from: the per-process one (``verify``), or one
#: supplied ``IncrementalSolver`` pinned to every phase's session — with the
#: default bounds, or bounds small enough to rotate the SAT scope and compact
#: the encoding mid-run.  A supplied solver cannot serve a parallel run.
SOLVERS = {
    "process": None,
    "pinned": lambda: IncrementalSolver(),
    "rotating": lambda: IncrementalSolver(max_scope_clauses=10, max_variables=10),
}

_CACHE: dict = {}


@pytest.fixture
def case(request, one_failing_node_annotated, reference_report):
    """``(name, annotated, selected nodes, reference report)``, memoised."""
    name, selection = request.param
    if (name, selection) not in _CACHE:
        annotated = (NETWORKS[name] or one_failing_node_annotated)()
        nodes = SELECTIONS[selection](annotated)
        _CACHE[name, selection] = (name, annotated, nodes, reference_report(annotated, nodes))
    return _CACHE[name, selection]


def _counterexamples(report, annotated):
    """Per failing condition: who it names, and whether its time is in range."""
    last = (1 << annotated.time_width()) - 1
    valid_times = {"initial": range(0, 1), "inductive": range(1, last + 1), "safety": range(0, last + 1)}
    shapes = []
    for node, node_report in report.node_reports.items():
        for result in node_report.failures:
            example = result.counterexample
            shapes.append(
                (
                    node,
                    result.condition,
                    example is not None
                    and (example.node, example.condition) == (node, result.condition)
                    and example.time in valid_times[result.condition],
                    sorted(example.neighbor_routes) if example is not None else None,
                )
            )
    return shapes


def _assert_matches_reference(report, reference, annotated, strategy):
    expected = condition_verdicts(reference)
    if not report.stopped_early:
        assert condition_verdicts(report) == expected
        assert tuple(report.node_reports) == tuple(reference.node_reports)
        assert report.conditions_skipped == 0
        assert _counterexamples(report, annotated) == _counterexamples(reference, annotated)
        assert all(valid for _, _, valid, _ in _counterexamples(report, annotated))
        return
    # A stopped run reports a selection-ordered subset of the nodes, each with
    # its reference verdicts, at least one of them failing.
    assert strategy.stop_on_failure and not report.passed
    observed = condition_verdicts(report)
    assert [node for node in expected if node in observed] == list(observed)
    assert all(observed[node] == expected[node] for node in observed)
    assert report.conditions_skipped == len(core.CONDITION_KINDS) * (len(expected) - len(observed))


#: Every mode :class:`Modular` accepts, per network, selection and solver;
#: ``stop_on_failure`` is inert without a failing condition, so passing
#: networks run it off only.
MODES = [
    pytest.param(
        (name, selection),
        dict(symmetry=symmetry, parallel=parallel, stop_on_failure=stop),
        solver,
        id=f"{name}-{symmetry}-{parallel}" + ("-stop" if stop else "") + f"-{solver}-{selection}",
    )
    for name in NETWORKS
    for selection in SELECTIONS
    for symmetry in SYMMETRY_MODES
    for parallel in (1, 2)
    for solver in (SOLVERS if parallel == 1 else ("process",))
    for stop in ((False, True) if name in FAILING else (False,))
]


@pytest.mark.parametrize("case, options, solver", MODES, indirect=["case"])
def test_every_mode_matches_the_reference(case, options, solver, tmp_path):
    name, annotated, nodes, reference = case
    failing = name in FAILING
    assert reference.passed is not failing
    supplied = SOLVERS[solver]() if SOLVERS[solver] is not None else None
    store = str(tmp_path / "store.json")
    # delta: off, then reuse over a cold store, then reuse over the store
    # the cold run wrote; a supplied solver carries its scope across all three.
    for phase, delta in (("off", {}), ("cold", {"delta": "reuse", "store": store}),
                         ("warm", {"delta": "reuse", "store": store})):
        strategy = Modular(**options, **delta)
        with Session(annotated, strategy, solver=supplied) as session:
            report = session.run(nodes)
        _assert_matches_reference(report, reference, annotated, strategy)
        assert report.stopped_early is (failing and options["stop_on_failure"]), phase
        if phase == "cold":
            assert report.conditions_reused == 0
        if phase == "warm" and not failing:
            assert report.conditions_recheck == 0
    if solver == "rotating":
        assert supplied.scopes > 1 and supplied.compactions > 0


#: The one-node edits of ``analysis/mutations.py`` and the failure injector.
EDITS = {
    "lower_witness_time": lambda annotated, node: lower_witness_time(annotated, node)[0],
    "make_interface_vacuous": lambda annotated, node: make_interface_vacuous(annotated, node)[0],
    "inject_interface_failure": lambda annotated, node: inject_interface_failure(annotated, node)[0],
}


@pytest.mark.parametrize("symmetry", SYMMETRY_MODES)
@pytest.mark.parametrize("node", [None, "core-1"], ids=["default", "core-1"])
@pytest.mark.parametrize("edit", EDITS)
def test_an_edited_node_is_checked_whatever_its_role_class(edit, node, symmetry, reference_report):
    """An edit outside the first node of its role (``core-1``) must still fail.

    No partition is trusted: the edited node poses its own queries, which no
    answer for an unedited node of its role can serve.
    """
    edited = EDITS[edit](registry.build("fattree/reach", pods=4).annotated, node)
    reference = reference_report(edited)
    report = verify(edited, Modular(symmetry=symmetry))
    assert not reference.passed
    assert condition_verdicts(report) == condition_verdicts(reference)


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

#: sha256 of the timing-free ``to_json()`` of one sequential run, one fresh
#: subprocess per digest: hash-consed term ids — and with them the cache
#: counters in ``backend_cache`` — depend on what the process built before,
#: but not on the machine or on ``PYTHONHASHSEED``.  First recorded from
#: commit 0887dbe (the last one with separate node and class loops);
#: re-recorded when SAT scopes stopped rotating per work item, under this
#: rule: against the parent commit, all twelve JSONs differ in
#: ``backend_cache`` only (scope/shipping counters moved, two counters were
#: added), and verdicts, failing-condition names, node order, fingerprints
#: and delta-store bytes are identical on every registry network in every
#: symmetry × backend × parallel mode (the comparison is in CHANGES.md).
#: Re-recorded again when the learned-clause carry was removed: each parent
#: JSON minus ``backend_cache["learned_carried"]`` and
#: ``backend_cache["learned_carry_size"]`` (both 0 on this path) hashes to
#: the new digest, in all twelve cases (the output is in CHANGES.md).
#: The four ``"off"`` digests were re-recorded when every condition came to be
#: built with positional route names: each parent JSON differs from the new
#: one in ``backend_cache`` alone (the singleton classes encode the same
#: queries the merging partitions do, so less); the other eight are unchanged.
#: All twelve were re-recorded when ``IncrementalSolver.check`` came to
#: memoise answers by query: each parent JSON differs from the new one in
#: ``backend_cache`` alone (the new ``answer_hits`` key in all twelve; fewer
#: ``guard_hits`` and, except for the two quotiented all-pairs modes, fewer
#: ``branch_variables`` / ``scope_variables``, because a repeated query no
#: longer re-activates its guards or searches).
#: The four ``"spot-check"`` digests went with that mode.  The ``"classes"``
#: digests of ``fattree/reach`` and ``wan/reach`` were re-recorded when the
#: trusted role hint and the canonical-hash partition went: each new JSON is
#: that network's ``"off"`` JSON apart from ``symmetry`` and
#: ``symmetry_classes`` (``backend_cache`` included: the singleton partition
#: poses the queries ``off`` does).  ``ghost/reach`` already partitioned into
#: singletons, and the all-pairs quotient is untouched; both digests held.
#: The two ``fattree/reach[all_pairs]`` digests were re-recorded when the
#: all-pairs ``dist(v)`` ladder came to be built by value: each parent JSON
#: differs from the new one in ``backend_cache`` alone (fewer bit-blast and
#: Tseitin entries, clauses shipped and learned, because the ladders are
#: smaller terms); the other six digests held.
#: The ``("fattree/reach[all_pairs]", "off")`` digest was re-recorded when every
#: mode came to build a node in its own destination numbering: the parent
#: JSON differs from the new one in ``backend_cache`` (the memo answers
#: isomorphic nodes' shared queries) and in ``quotient`` (``None`` →
#: ``"destination"``) alone; the other seven digests held.
#: The two ``wan/reach`` digests were re-recorded when canonical conditions
#: came to slice the precondition and name symbolics by position: each
#: parent JSON differs from the new one in ``backend_cache`` alone (the
#: isomorphic peers pose one query: ``answer_hits`` 35 → 53, far fewer
#: bit-blast, Tseitin, shipped and scope entries); the other six digests held.
GOLDEN = {
    ("fattree/reach", "off"): "2f5e0f7cf8a0a2b726b7d87852f74dd521cdb2054a7d0867436c68ae5b0b3eda",
    ("fattree/reach", "classes"): "d8548562b97dd2e62c2270e68d6894f516487b8e975949f520ee045650468c4b",
    ("fattree/reach[all_pairs]", "off"): "641b5de982b29cabb55fd58413eb2448b0ec5e77d4cde58d61c0a4444b8bd010",
    ("fattree/reach[all_pairs]", "classes"): "0704b525d60c4cd6adfe64fd435153e8b8cf6a777e25e2de21b6f2cc533ce9ec",
    ("wan/reach", "off"): "fd7c395c6d9d554ff3f020e7033efea267d06f56c8e1bb50d4798aec346a24a3",
    ("wan/reach", "classes"): "ebd1d208f8716078be50d76590f9787c577e82d46acf70f8d4d9ae835907b5b8",
    ("ghost/reach", "off"): "d6a4bcfb3109fab8794d9c90c66cf011ae54da56084055ead04ae0804074d961",
    ("ghost/reach", "classes"): "d10398955408fa4487791058d93254b612e40986ce297a7522bb26185dea07e0",
}

GOLDEN_NETWORKS = {
    "fattree/reach": ("fattree/reach", {"pods": 4}),
    "fattree/reach[all_pairs]": ("fattree/reach", {"pods": 4, "all_pairs": True}),
    "wan/reach": ("wan/reach", {"internal_routers": 10, "external_peers": 10}),
    "ghost/reach": ("ghost/reach", {}),
}

_TIMINGS = ("wall_time_s", "median_node_time_s", "p99_node_time_s", "max_node_time_s")


def report_digest(name, parameters, symmetry):
    """The digest of one run; executed in the subprocess (see ``__main__``)."""
    report = verify(registry.build(name, **parameters).annotated, Modular(symmetry=symmetry))
    data = {key: value for key, value in report.to_json().items() if key not in _TIMINGS}
    for node in data["nodes"].values():
        del node["duration_s"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def digests():
    """Every golden case's digest, each from its own fresh subprocess (run concurrently)."""
    source = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), *sys.path])}
    processes = {
        key: subprocess.Popen(
            [sys.executable, __file__, *key], stdout=subprocess.PIPE, text=True, env=environment
        )
        for key in GOLDEN
    }
    results = {}
    for key, process in processes.items():
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, key
        results[key] = output.strip()
    return results


@pytest.mark.parametrize("key", GOLDEN, ids=lambda key: f"{key[0]}-{key[1]}")
def test_sequential_report_json_is_byte_identical_to_the_premerge_engine(digests, key):
    assert digests[key] == GOLDEN[key]


if __name__ == "__main__":
    print(report_digest(*GOLDEN_NETWORKS[sys.argv[1]], sys.argv[2]))
