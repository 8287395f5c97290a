"""Tests for the stable content fingerprints of :mod:`repro.core.fingerprint`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import smt
from repro.core.conditions import CONDITION_KINDS, node_conditions
from repro.core.fingerprint import (
    clear_fingerprint_cache,
    condition_fingerprint,
    dependency_fingerprints,
    fingerprint_statistics,
    fingerprint_term,
    network_fingerprint,
    node_condition_fingerprints,
    node_dependency_fingerprint,
    strategy_signature,
)
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure


@pytest.fixture(scope="module")
def reach_annotated():
    return registry.build("fattree/reach", pods=4).annotated


class TestTermFingerprints:
    def test_equal_structure_equal_digest(self):
        x = smt.bv_var("fp_x", 4)
        left = smt.bv_add(x, smt.bv_const(1, 4))
        right = smt.bv_add(smt.bv_var("fp_x", 4), smt.bv_const(1, 4))
        assert fingerprint_term(left) == fingerprint_term(right)

    def test_structure_payload_and_sort_all_distinguish(self):
        x4 = smt.bv_var("fp_x", 4)
        digests = {
            fingerprint_term(x4),
            fingerprint_term(smt.bv_var("fp_y", 4)),  # payload differs
            fingerprint_term(smt.bv_var("fp_x", 8)),  # sort differs
            fingerprint_term(smt.bv_add(x4, smt.bv_const(1, 4))),  # op differs
            fingerprint_term(smt.bv_add(x4, smt.bv_const(2, 4))),  # child differs
        }
        assert len(digests) == 5

    def test_commutative_operands_digest_order_insensitively(self):
        """Regression: the builder orders ``eq`` operands by interning
        counter (``term_id``), which varies with process history — the
        fingerprint must not.  Raw terms bypass the builder normalization so
        both operand orders actually exist here."""
        from repro.smt.sorts import BOOL
        from repro.smt.terms import OP_AND, OP_EQ, Term

        x = smt.bv_var("fp_cx", 4)
        y = smt.bv_var("fp_cy", 4)
        forward = Term(OP_EQ, (x, y), None, BOOL)
        backward = Term(OP_EQ, (y, x), None, BOOL)
        assert forward is not backward
        assert fingerprint_term(forward) == fingerprint_term(backward)
        a, b = smt.bool_var("fp_ca"), smt.bool_var("fp_cb")
        assert fingerprint_term(Term(OP_AND, (a, b), None, BOOL)) == fingerprint_term(
            Term(OP_AND, (b, a), None, BOOL)
        )
        # Non-commutative comparisons keep their operand order.
        assert fingerprint_term(smt.bv_ult(x, y)) != fingerprint_term(smt.bv_ult(y, x))

    def test_digest_is_hex_and_survives_cache_clear(self):
        term = smt.and_(smt.bool_var("fp_a"), smt.bool_var("fp_b"))
        first = fingerprint_term(term)
        assert len(first) == 64 and int(first, 16) >= 0
        clear_fingerprint_cache()
        assert fingerprint_statistics()["memoised_terms"] == 0
        assert fingerprint_term(term) == first

    def test_deep_terms_do_not_overflow_recursion(self):
        term = smt.bool_var("fp_deep")
        for _ in range(sys.getrecursionlimit() + 100):
            term = smt.not_(term)
        assert len(fingerprint_term(term)) == 64


class TestConditionFingerprints:
    def test_every_kind_fingerprinted(self, reach_annotated):
        fingerprints = node_condition_fingerprints(reach_annotated, reach_annotated.nodes[0])
        assert set(fingerprints) == set(CONDITION_KINDS)
        assert len(set(fingerprints.values())) == len(CONDITION_KINDS)

    def test_method_agrees_with_module_function(self, reach_annotated):
        node = reach_annotated.nodes[0]
        for condition in node_conditions(reach_annotated, node):
            assert condition.fingerprint() == condition_fingerprint(condition)

    def test_isomorphic_nodes_share_fingerprints(self, reach_annotated):
        """Positional route names erase node identity from the digest."""
        # Nodes of one role pose term-identical conditions (one answer-memo
        # entry); their fingerprints must agree too.
        by_query: dict = {}
        for node in reach_annotated.nodes:
            key = tuple(
                (vc.assumptions.term.term_id, vc.goal.term.term_id)
                for vc in node_conditions(reach_annotated, node)
            )
            by_query.setdefault(key, []).append(node)
        largest = max(by_query.values(), key=len)
        assert len(largest) > 1
        reference = node_condition_fingerprints(reach_annotated, largest[0])
        for member in largest:
            assert node_condition_fingerprints(reach_annotated, member) == reference


class TestDependencyFingerprints:
    def test_stable_across_cache_clears(self, reach_annotated):
        node = reach_annotated.nodes[0]
        first = node_dependency_fingerprint(reach_annotated, node)
        clear_fingerprint_cache()
        assert node_dependency_fingerprint(reach_annotated, node) == first

    def test_edit_invalidates_exactly_the_neighbourhood(self, reach_annotated):
        """Editing one interface changes the edited node and its successors."""
        edited, poisoned = inject_interface_failure(reach_annotated)
        before = dependency_fingerprints(reach_annotated, reach_annotated.nodes)
        after = dependency_fingerprints(edited, edited.nodes)
        successors = {
            node
            for node in reach_annotated.nodes
            if poisoned in reach_annotated.network.topology.predecessors(node)
        }
        changed = {node for node in reach_annotated.nodes if before[node] != after[node]}
        assert changed == {poisoned} | successors

    @pytest.mark.parametrize("delay", [0, 1])
    def test_batch_agrees_with_the_per_node_function(self, reach_annotated, delay):
        nodes = reach_annotated.nodes
        assert dependency_fingerprints(reach_annotated, nodes, delay=delay) == {
            node: node_dependency_fingerprint(reach_annotated, node, delay=delay)
            for node in nodes
        }

    def test_delay_changes_the_fingerprint(self, reach_annotated):
        node = reach_annotated.nodes[0]
        assert node_dependency_fingerprint(
            reach_annotated, node, delay=0
        ) != node_dependency_fingerprint(reach_annotated, node, delay=1)


class TestStoreIdentityKeys:
    def test_network_fingerprint_ignores_annotations(self, reach_annotated):
        edited, _ = inject_interface_failure(reach_annotated)
        assert network_fingerprint(edited) == network_fingerprint(reach_annotated)

    def test_network_fingerprint_tracks_topology(self, reach_annotated):
        other = registry.build("fattree/reach", pods=6).annotated
        assert network_fingerprint(other) != network_fingerprint(reach_annotated)

    def test_strategy_signature_covers_verdict_knobs_only(self):
        base = strategy_signature(0)
        assert strategy_signature(1) != base
        # Pinned: the digest still names all three condition kinds, so stores
        # recorded before the kind list stopped being a knob keep their path.
        assert base == "dc86629dcc212f786daddff4aeb0bca06fb3f96363bfd49f2adf8db7ba9df031"


#: Run by the subprocess determinism test below; prints every fingerprint kind
#: for a small benchmark as sorted JSON.  The single-destination Reach
#: benchmark draws no gensym'd (``fresh_name``) variables, so its
#: fingerprints are independent of the process-wide name counter and can be
#: compared against the (counter-advanced) pytest process itself.
_SUBPROCESS_SCRIPT = """
import json
from repro.core.fingerprint import (
    network_fingerprint, node_condition_fingerprints,
    node_dependency_fingerprint, strategy_signature,
)
from repro.networks import registry

annotated = registry.build("fattree/reach", pods=4).annotated
print(json.dumps({
    "network": network_fingerprint(annotated),
    "strategy": strategy_signature(0),
    "conditions": {n: node_condition_fingerprints(annotated, n) for n in annotated.nodes},
    "dependencies": {n: node_dependency_fingerprint(annotated, n) for n in annotated.nodes},
}, sort_keys=True))
"""


#: The same for a one-node edit, fingerprinted *first* in a fresh process: no
#: memoised part of the base network exists yet.
_EDITED_SUBPROCESS_SCRIPT = """
import json
from repro.core.fingerprint import dependency_fingerprints, node_condition_fingerprints
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure

edited, _ = inject_interface_failure(registry.build("fattree/reach", pods=4).annotated)
print(json.dumps({
    "conditions": {n: node_condition_fingerprints(edited, n) for n in edited.nodes},
    "dependencies": dependency_fingerprints(edited, edited.nodes),
}, sort_keys=True))
"""


def _fingerprints_from_subprocess(script: str, hash_seed: str) -> dict:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = hash_seed
    environment["PYTHONPATH"] = (
        str(Path(repro.__file__).resolve().parents[1])
        + os.pathsep
        + environment.get("PYTHONPATH", "")
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=environment, check=True
    )
    return json.loads(completed.stdout)


class TestProcessIndependence:
    def test_fingerprints_identical_across_hash_seeds(self):
        """The store's keys must never depend on ``PYTHONHASHSEED``.

        Two subprocesses with deliberately different hash seeds (and hence
        different ``id()``s, dict orders and ``hash()`` values) must print
        byte-identical fingerprints — and agree with this process's own.
        """
        outputs = [
            _fingerprints_from_subprocess(_SUBPROCESS_SCRIPT, seed) for seed in ("0", "424242")
        ]
        assert outputs[0] == outputs[1]

        annotated = registry.build("fattree/reach", pods=4).annotated
        local = {
            "network": network_fingerprint(annotated),
            "strategy": strategy_signature(0),
            "conditions": {
                n: node_condition_fingerprints(annotated, n) for n in annotated.nodes
            },
            "dependencies": {
                n: node_dependency_fingerprint(annotated, n) for n in annotated.nodes
            },
        }
        assert local == outputs[0]

    def test_warm_edited_digests_equal_a_fresh_process(self):
        """Parts memoised for the base network never leak into an edit's digest.

        Here the edit is fingerprinted after the base network, sharing its
        ``Network`` and all but one interface object (every shared part is a
        memo hit); the subprocess fingerprints the same edit with no memo at all.
        """
        annotated = registry.build("fattree/reach", pods=4).annotated
        dependency_fingerprints(annotated, annotated.nodes)
        for node in annotated.nodes:
            node_condition_fingerprints(annotated, node)
        edited, _ = inject_interface_failure(annotated)
        local = {
            "conditions": {n: node_condition_fingerprints(edited, n) for n in edited.nodes},
            "dependencies": dependency_fingerprints(edited, edited.nodes),
        }
        assert local == _fingerprints_from_subprocess(_EDITED_SUBPROCESS_SCRIPT, "7")
