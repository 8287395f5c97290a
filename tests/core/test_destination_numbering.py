"""Each all-pairs node's conditions in its own destination numbering ``π_v``.

:func:`~repro.core.conditions.canonical_node_conditions` builds node ``v``
with the marker's ``π_v`` active, so no rewrite runs after the build.  These
tests hold that build to the raw one, for every ``Ap`` node of every policy
at pods 2 and 4:

* ``π_v`` is a permutation of ``range(size)`` that numbers ``v``'s pod first
  and ``v`` itself first of all;
* each condition built in ``π_v`` is equivalent (a fresh ``smt.Solver``
  query) to the raw condition with every ``dest == k`` atom renamed to
  ``dest == π_v(k)`` by the test-only substitution below (then sliced and
  renamed by the conftest's oracle, which changes only hijack's);
* with a failure injected, every mode decides the ``(node, condition,
  holds)`` triples the raw reference run does;
* a node that reads an annotation the marker does not vouch for (one that
  reads ``dest`` itself) is built raw, and every mode still decides what
  the raw reference run does;
* memo isolation: a process that builds the raw conditions before or after
  the numbered ones builds the terms a fresh process builds for each.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro import smt
from repro.core import TemporalPredicate, condition_verdicts
from repro.core.annotations import AnnotatedNetwork, DestinationSymmetry
from repro.core.conditions import canonical_node_conditions, node_conditions
from repro.errors import VerificationError
from repro.networks import registry
from repro.networks.benchmarks import HIJACKER, POLICIES, inject_interface_failure
from repro.smt import builder
from repro.smt.terms import OP_EQ, make_term
from repro.symbolic import SymBool
from repro.verify import Modular, verify

CASES = [(policy, pods) for pods in (2, 4) for policy in POLICIES]


def _built(policy, pods):
    return registry.build(f"fattree/{policy}", pods=pods, all_pairs=True).raw


def _renumbered(term, destination, numbering):
    """``term`` with every ``dest == k`` atom replaced by ``dest == numbering[k]``."""
    done = {}
    stack = [term]
    while stack:
        current = stack[-1]
        pending = [arg for arg in current.args if arg.term_id not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if current.op == OP_EQ and any(arg is destination for arg in current.args):
            (constant,) = [arg for arg in current.args if arg is not destination]
            renamed = builder.bv_const(numbering[constant.bv_value()], destination.width())
            done[current.term_id] = builder.eq(destination, renamed)
        else:
            args = tuple(done[arg.term_id] for arg in current.args)
            done[current.term_id] = make_term(current.op, args, current.payload, current.sort)
    return done[term.term_id]


@pytest.mark.parametrize("policy, pods", CASES)
def test_each_node_numbers_its_own_pod_first(policy, pods):
    built = _built(policy, pods)
    marker = built.annotated.destination_symmetry
    edge_nodes = built.fattree.edge_nodes
    for node in built.annotated.nodes:
        numbering = marker.numbering(node)
        assert sorted(numbering) == list(range(marker.size)), node
        if node == HIJACKER or built.fattree.role(node) == "core":
            assert numbering == tuple(range(marker.size)), node
            continue
        pod = built.fattree.pod_of(node)
        own = [k for k, edge in enumerate(edge_nodes) if built.fattree.pod_of(edge) == pod]
        assert sorted(numbering[k] for k in own) == list(range(len(own))), node
        # The other pods keep their order.
        others = [numbering[k] for k in range(len(edge_nodes)) if k not in own]
        assert others == sorted(others), node
        if node in edge_nodes:
            assert numbering[edge_nodes.index(node)] == 0, node


def test_the_marker_rejects_a_numbering_that_is_not_a_permutation():
    marker = DestinationSymmetry("dest", 3, lambda node: [0, 0, 1])
    with pytest.raises(VerificationError, match="not a permutation"):
        marker.numbering("edge-0-0")


@pytest.mark.parametrize("policy, pods", CASES)
def test_numbered_conditions_are_the_renamed_raw_ones(policy, pods, sliced_and_renamed):
    # Hijack's precondition falls apart (``dest`` and the hijacker), so its
    # canonical conditions are also sliced and name symbolics by position:
    # the renumbered raw ones go through the conftest's independent slice.
    annotated = _built(policy, pods).annotated
    marker = annotated.destination_symmetry
    (destination,) = [s.value.term for s in annotated.network.symbolics if s.name == marker.variable]
    for node in annotated.nodes:
        numbering = marker.numbering(node)
        raw = [
            replace(
                vc,
                assumptions=SymBool(_renumbered(vc.assumptions.term, destination, numbering)),
                goal=SymBool(_renumbered(vc.goal.term, destination, numbering)),
            )
            for vc in node_conditions(annotated, node)
        ]
        numbered = canonical_node_conditions(annotated, node)
        assert [vc.kind for vc in numbered] == [vc.kind for vc in raw]
        for condition, reference in zip(numbered, sliced_and_renamed(annotated.network, raw)):
            same = builder.and_(
                builder.eq(condition.assumptions.term, reference.assumptions.term),
                builder.eq(condition.goal.term, reference.goal.term),
            )
            assert smt.prove(same, solver=smt.Solver()).valid, (node, condition.kind)


@pytest.mark.parametrize("policy, pods", CASES)
def test_an_injected_failure_is_decided_as_without_the_quotient(policy, pods, reference_report):
    injected, _ = inject_interface_failure(_built(policy, pods).annotated)

    def decided(report):
        return [
            (node, result.condition, result.holds)
            for node, node_report in report.node_reports.items()
            for result in node_report.results
        ]

    # Hold each mode to the raw reference, not to the other mode.
    reference = decided(reference_report(injected))
    for symmetry in ("off", "classes"):
        report = verify(injected, Modular(symmetry=symmetry))
        assert not report.passed, symmetry
        assert decided(report) == reference, symmetry


def _reading_dest(built, node, index):
    """``built`` with ``node``'s interface narrowed by a clause that reads ``dest`` itself.

    The clause claims no route at time 0 when ``dest == index``, so an edge
    node of raw index ``index`` fails its initial condition and nothing
    else.  Were the node built in its own numbering, its initial route would
    be renamed and the clause not, and every condition would hold.  The
    marker is kept.
    """
    annotated = built.annotated
    (dest,) = [s.value for s in annotated.network.symbolics if s.name == "dest"]
    quiet = TemporalPredicate(
        lambda route, time: ((dest == index) & (time == 0)).implies(route.is_none),
        max_witness=0,
    )
    interfaces = {name: annotated.interface(name) for name in annotated.nodes}
    interfaces[node] = annotated.interface(node).intersect(quiet)
    return AnnotatedNetwork(
        annotated.network,
        interfaces,
        {name: annotated.node_property(name) for name in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
        destination_symmetry=annotated.destination_symmetry,
    )


@pytest.mark.parametrize("pods", (2, 4))
def test_an_annotation_the_marker_does_not_vouch_for_is_built_raw(pods, reference_report):
    built = _built("reach", pods)
    edge = built.fattree.edge_nodes[1]
    annotated = _reading_dest(built, edge, 1)
    unvouched = {edge, *annotated.network.topology.successors(edge)}
    for node in annotated.nodes:
        numbering = annotated.destination_numbering(node)
        if node in unvouched:
            assert numbering is None, node
            built_raw, numbered = (
                [(vc.assumptions.term, vc.goal.term) for vc in build(annotated, node)]
                for build in (node_conditions, canonical_node_conditions)
            )
            assert numbered == built_raw, node
        else:
            assert numbering == annotated.destination_symmetry.numbering(node), node

    def failures(report):
        return [
            (node, result.condition, result.holds)
            for node, node_report in report.node_reports.items()
            for result in node_report.results
            if not result.holds
        ]

    reference = reference_report(annotated)
    assert failures(reference) == [(edge, "initial", False)]
    for symmetry in ("off", "classes"):
        report = verify(annotated, Modular(symmetry=symmetry))
        assert failures(report) == failures(reference), symmetry
        assert condition_verdicts(report) == condition_verdicts(reference), symmetry


# ---------------------------------------------------------------------------
# Memo isolation
# ---------------------------------------------------------------------------

#: The build orders compared; each runs in its own fresh process.
ORDERS = ("numbered,raw", "raw,numbered", "numbered", "raw")


def build_digests(order):
    """Structural digests of what ``order`` builds; executed in the subprocess.

    ``raw`` builds every node's conditions and fingerprints in the network's
    own numbering: the fingerprints through a copy of the network whose
    marker numbers every node by the identity, so only the numbering tells
    its memo entries from the numbered ones.  ``numbered`` builds both in each node's ``π_v``.
    Valley freedom reads ``adjacent`` as well as ``dist``.
    """
    from repro.core.fingerprint import fingerprint_term, node_condition_fingerprints

    annotated = _built("valley_freedom", 4).annotated
    marker = annotated.destination_symmetry
    identity = AnnotatedNetwork(
        annotated.network,
        {node: annotated.interface(node) for node in annotated.nodes},
        {node: annotated.node_property(node) for node in annotated.nodes},
        minimum_time_width=annotated.minimum_time_width,
        destination_symmetry=DestinationSymmetry(
            marker.variable, marker.size, lambda node: range(marker.size), marker.vouched
        ),
    )
    builds = {
        "raw": (node_conditions, identity),
        "numbered": (canonical_node_conditions, annotated),
    }
    record = {}
    for name in order.split(","):
        build, target = builds[name]
        record[name] = {
            f"{node}@{delay}": [
                [
                    (fingerprint_term(vc.assumptions.term), fingerprint_term(vc.goal.term))
                    for vc in build(annotated, node, delay=delay)
                ],
                node_condition_fingerprints(target, node, delay=delay),
            ]
            for node in annotated.nodes
            for delay in (0, 1)
        }
    return json.dumps(record, sort_keys=True)


def _digests_in_subprocess(order):
    source = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), *sys.path])}
    completed = subprocess.run(
        [sys.executable, __file__, order],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def test_no_memo_serves_a_term_across_numberings():
    with ThreadPoolExecutor(len(ORDERS)) as pool:
        records = dict(zip(ORDERS, pool.map(_digests_in_subprocess, ORDERS)))
    fresh = {name: records[name][name] for name in ("raw", "numbered")}
    assert fresh["raw"] != fresh["numbered"]
    for order in ORDERS[:2]:
        for name in ("raw", "numbered"):
            assert records[order][name] == fresh[name], (order, name)


if __name__ == "__main__":
    print(build_digests(sys.argv[1]))
