"""One oracle for every engine mode, plus golden report digests.

Every combination of ``symmetry`` × ``backend`` × ``parallel`` × ``delta`` ×
``stop_on_failure`` that :class:`Modular` accepts must agree with the plain
reference run ``Modular(symmetry="off", backend="fresh", parallel=1)`` on
verdicts, node order and counterexample validity — on every registry network
at its smallest size and on failure-injected networks.  The golden digests
additionally pin the full timing-free report JSON of the sequential modes to
what the pre-merge engine (four loops, two work-item types) produced.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import core
from repro.core.results import condition_verdicts
from repro.core.symmetry import SYMMETRY_MODES
from repro.networks import registry
from repro.routing import path_topology, shortest_path_network
from repro.verify import BACKENDS, Modular, verify

REFERENCE = Modular(symmetry="off", backend="fresh", parallel=1)

#: The smallest parameters each registry family accepts.
SMALLEST = {
    "fattree": {"pods": 2},
    "wan": {"internal_routers": 3, "external_peers": 1},
    "ghost": {},
}


def _registry_case(name, **extra):
    return lambda: registry.build(name, **SMALLEST[name.split("/")[0]], **extra).annotated


def _symmetric_failing_path():
    # The two ends promise a route one step too early, so the class (n0, n4)
    # fails its inductive condition: a propagated failure whose
    # counterexample is translated from n0's neighbour to n4's.
    topology = path_topology(5)
    has_route = core.globally(lambda r: r.is_some)
    interfaces = {node: core.finally_(1, has_route) for node in topology.nodes}
    interfaces["n2"] = has_route
    return core.annotate(shortest_path_network(topology, "n2"), interfaces)


#: name -> builder of the annotated network (``None``: the shared
#: ``one_failing_node_annotated`` conftest factory).
NETWORKS = {
    **{name: _registry_case(name) for name in registry.benchmark_names()},
    "fattree/reach[all_pairs]": _registry_case("fattree/reach", all_pairs=True),
    "path[symmetric_failure]": _symmetric_failing_path,
    "path[one_failing_node]": None,
}
#: Runs that contain failing conditions (``stop_on_failure`` then cuts them short).
FAILING = ("path[symmetric_failure]", "path[one_failing_node]")

_CACHE: dict = {}


@pytest.fixture
def case(request, one_failing_node_annotated):
    """``(name, annotated, reference report)`` of the named network, memoised."""
    name = request.param
    if name not in _CACHE:
        annotated = (NETWORKS[name] or one_failing_node_annotated)()
        _CACHE[name] = (name, annotated, verify(annotated, REFERENCE))
    return _CACHE[name]


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
    assert report.conditions_skipped == len(strategy.conditions) * (len(expected) - len(observed))


def _accepted(**options):
    try:
        Modular(**options)
    except ValueError:
        return False
    return True


#: Every mode :class:`Modular` accepts, per network; ``stop_on_failure`` is
#: inert without a failing condition, so passing networks run it off only.
MODES = [
    pytest.param(
        name,
        dict(symmetry=symmetry, backend=backend, parallel=parallel, stop_on_failure=stop),
        id=f"{name}-{symmetry}-{backend}-{parallel}" + ("-stop" if stop else ""),
    )
    for name in NETWORKS
    for symmetry in SYMMETRY_MODES
    for backend in BACKENDS
    for parallel in (1, 2)
    for stop in ((False, True) if name in FAILING else (False,))
    if _accepted(backend=backend, parallel=parallel)
]


@pytest.mark.parametrize("case, options", MODES, indirect=["case"])
def test_every_mode_matches_the_reference(case, options, tmp_path):
    name, annotated, reference = case
    failing = name in FAILING
    assert reference.passed is not failing
    store = str(tmp_path / "store.json")
    # delta: off, then reuse over a cold store, then reuse over the store
    # the cold run wrote.
    for phase, delta in (("off", {}), ("cold", {"delta": "reuse", "store": store}),
                         ("warm", {"delta": "reuse", "store": store})):
        strategy = Modular(**options, **delta)
        report = verify(annotated, strategy)
        _assert_matches_reference(report, reference, annotated, strategy)
        assert report.stopped_early is (failing and options["stop_on_failure"]), phase
        if phase == "cold":
            assert report.conditions_reused == 0
        if phase == "warm" and not failing:
            assert report.conditions_recheck == 0


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
GOLDEN = {
    ("fattree/reach", "off"): "0f8e7368b0fa71afd39fa0b8ccf6497b7a088a5a1f521fc751338a59a49c6175",
    ("fattree/reach", "classes"): "e936c724886d45065049f0ca649acbf5d16814ea42ee33c19cdf0c5398baa196",
    ("fattree/reach", "spot-check"): "1dadf12ba23cbff2ba5b596095ddfe6853dff036ae1e5acae0f19c48d46911e8",
    ("fattree/reach[all_pairs]", "off"): "d2f3561450a4047ac2f1b81f71aa1405b74625c707427da4ae4f459efa53f929",
    ("fattree/reach[all_pairs]", "classes"): "b6ab65a3ff3ae4d98bf0be7f7b14a1a6a3bf8394cd6e151db9988ffa8e7a830c",
    ("fattree/reach[all_pairs]", "spot-check"): "63735f3ae025191f1fadcaea85d2782548f8988be008f989642e5ae44eb52950",
    ("wan/reach", "off"): "164108f1ae358a867f4b89a70974c4da9ef6ee8d9443882bc42dcc0dbf8dbb02",
    ("wan/reach", "classes"): "52efa2b3dd22b321ddfd8bea046c859b27e443bc2c10fd792b7aa7aab929af0b",
    ("wan/reach", "spot-check"): "bfd803bac7b8f284d73b97b68903ba5c371ca4744b9e1d13c74f304643fa777f",
    ("ghost/reach", "off"): "334581c6bcb9858d10235bc07c0be5775d42a0c7b1307897f9841d5af087a5fb",
    ("ghost/reach", "classes"): "0c054c224f3fda289d2c347107022573b52553b088523665446e32ed21298eca",
    ("ghost/reach", "spot-check"): "090c37a5a3830e865420e8f4e4b54f5a1c6744bd4566f79c829319a96300e3db",
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
