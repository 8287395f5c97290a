"""Term identity of the fattree benchmarks, and the cost of ``dist(v)``.

One golden digest per fattree variant (4 policies × ``Sp``/``Ap`` × pods
{2, 4}) pins every term a build produces.  Each digest covers, per node in
network order, the raw and the canonical condition fingerprints at delay 0
and 1, and then the network fingerprint and the symmetry partition with each
``Ap`` member's destination numbering.  Fresh variable names carry a
process-wide counter, so every digest comes from its own fresh subprocess;
nothing else about the process (the machine, ``PYTHONHASHSEED``) moves it.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.networks import registry
from repro.networks.fattree import Fattree
from repro.verify import Modular, verify

#: ``(policy, all_pairs, pods)`` -> digest.  Every condition now uses positional
#: route names, so each equals the digest the sender-naming code produced with
#: ``node_conditions(..., naming="class")``.  The four ``Sp`` pods=4 digests
#: were re-recorded when the fattree role hint went: against the parent, only
#: ``"partition"`` moved in each record, from the hint's role classes to
#: singletons (at pods=2 every role class was already a singleton, so those
#: four digests held); the eight ``Ap`` digests held, with witnesses now read
#: from ``canonical_node_conditions``.  All sixteen were re-recorded when the
#: dependency fingerprints went: the record's ``"dependencies"`` field (by
#: then a repeat of ``"conditions"``) was dropped, and in every case the
#: parent's record minus that field hashes to the new digest.  The eight
#: ``Ap`` digests were re-recorded when ``dist(v)`` came to be built by value
#: (at most three hop-count cases over shared ``dest == k`` atoms instead of
#: one case per edge node): every ``Ap`` condition term, and with it every
#: raw and canonical fingerprint and each class member's witness (its
#: constants per permutation slot), moved by design.  Class membership,
#: verdicts, failing conditions, counterexamples and node order are
#: identical to the parent's on every registry network; the eight ``Sp``
#: digests held.  The eight ``Ap`` digests were re-recorded again when the
#: destination canonicaliser went: a class member's witness is gone, so the
#: record names its numbering ``π_v`` instead.  The parent's record with each
#: witness replaced by that numbering hashes to the new digest in all eight
#: cases (every raw and canonical fingerprint held); the ``Sp`` digests held.
#: The two ``hijack`` ``Ap`` digests were re-recorded when canonical
#: conditions came to slice the precondition and name symbolics by position:
#: ``Ap`` hijack's precondition has two components (``dest`` and the
#: hijacker's announcement), so its canonical fingerprints moved by design;
#: against the parent its raw fingerprints, network fingerprint and partition
#: are identical at pods 2 and 4.  Every other precondition has at most one
#: component, and those fourteen digests held.
GOLDEN = {
    ("reach", False, 2): "4b8be29e1b647a96bbac4c4f6daa21fdf5285078046dbc76200225944b606624",
    ("reach", False, 4): "8249685c6da54ff7d74c51a06ef87a36f85660d7cd6d9d53e065e446c504f063",
    ("reach", True, 2): "6427e9b1a3696fd4d98c20147f0b1c3cb55ced597ddb521d6800770807f42b1c",
    ("reach", True, 4): "0d580785603dd3e3c1e605e826f54346425b12c7406f800696f44f61bdf01967",
    ("length", False, 2): "3a6a28cfa36bcd30c794d110c4bf5585b635799a2c13383cc726d70b90726b5d",
    ("length", False, 4): "41fe93343eb6106c4a1f553d88e9a5f768df44c49d71d6710a797fd16f1e1669",
    ("length", True, 2): "3fa324d3dbb6a0246e27d6b2b8656a16ccc9e203a5411a7f2e93cbbb2286a974",
    ("length", True, 4): "49ec94ec1a594ca6b189e3377e068ccc52f747d62423816a7062bfdc5d0028cd",
    ("valley_freedom", False, 2): "15d91ac35e6ef8a87ad3ef0fa6c10225f8dc89a8e6d976c6f6cc3c842866424a",
    ("valley_freedom", False, 4): "ad07adef801c05493fc027f94d18c5d037bdc914704e129045ea4ba498720d3c",
    ("valley_freedom", True, 2): "aa6534cd3a1ffa69454822d678f3c8fbf309a0c3c0f08e5d6b99179e404011eb",
    ("valley_freedom", True, 4): "055f8d5352b2c59ee86fd2be6c57d468f3ff33d22bdb04a71a03978382b7c9e4",
    ("hijack", False, 2): "443f85278c4b5dc182f5602389561c740f01a2902c9632eb5c303bba2be2f144",
    ("hijack", False, 4): "b638b7e0b92aa0cc41b0d3563fb89ba5704303c2f42078b329049ff6b902c42a",
    ("hijack", True, 2): "e102dd63e7578a18ea59183a82d829570ef7919b9065c1a6dd5cbe6999a07e4c",
    ("hijack", True, 4): "5617ad585eae96891d128f517511516f85fda9f3bc3000d1ed256d189035b407",
}

#: Digest subprocesses run at once (each holds one small build).
WORKERS = 4


def term_digest(policy, all_pairs, pods):
    """The digest of one build; executed in the subprocess (see ``__main__``)."""
    from repro.core.conditions import node_conditions
    from repro.core.fingerprint import (
        condition_fingerprint,
        network_fingerprint,
        node_condition_fingerprints,
    )
    from repro.core.symmetry import partition_nodes

    annotated = registry.build(f"fattree/{policy}", pods=pods, all_pairs=all_pairs).annotated
    nodes = annotated.nodes
    record = {
        "conditions": [
            [
                [condition_fingerprint(vc) for vc in node_conditions(annotated, node, delay=delay)],
                node_condition_fingerprints(annotated, node, delay=delay),
            ]
            for node in nodes
            for delay in (0, 1)
        ],
        "network": network_fingerprint(annotated),
        "partition": [
            [
                list(cls),
                sorted(
                    (member, annotated.destination_symmetry.numbering(member))
                    for member in cls
                )
                if annotated.destination_symmetry is not None
                else None,
            ]
            for cls in partition_nodes(annotated, nodes)
        ],
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _digest_in_subprocess(key):
    source = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), *sys.path])}
    policy, all_pairs, pods = key
    completed = subprocess.run(
        [sys.executable, __file__, policy, str(int(all_pairs)), str(pods)],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
        check=True,
    )
    return completed.stdout.strip()


@pytest.fixture(scope="module")
def digests():
    with ThreadPoolExecutor(WORKERS) as pool:
        return dict(zip(GOLDEN, pool.map(_digest_in_subprocess, GOLDEN)))


@pytest.mark.parametrize(
    "key", GOLDEN, ids=lambda key: f"{key[0]}-{'Ap' if key[1] else 'Sp'}-{key[2]}"
)
def test_every_fattree_variant_builds_its_golden_terms(digests, key):
    assert digests[key] == GOLDEN[key]


@pytest.mark.parametrize("policy", ["reach", "length"])
def test_dist_hop_counts_are_grouped_once_per_node(policy, monkeypatch):
    """Every all-pairs policy pays ``dist(v)`` as often as Reach, whatever it reads.

    Grouping a node's ladder by hop count asks ``distance_to_destination``
    once per edge node, and a node is grouped once however many time terms
    its interface is applied at; nothing is asked while the network is built.
    """
    calls = []
    original = Fattree.distance_to_destination
    monkeypatch.setattr(
        Fattree,
        "distance_to_destination",
        lambda self, node, destination: calls.append(node) or original(self, node, destination),
    )
    built = registry.build(f"fattree/{policy}", pods=4, all_pairs=True)
    assert calls == []
    assert verify(built.annotated, Modular(symmetry="classes")).passed
    edge_nodes = len(built.raw.fattree.edge_nodes)
    assert len(calls) == len(built.annotated.nodes) * edge_nodes


if __name__ == "__main__":
    print(term_digest(sys.argv[1], bool(int(sys.argv[2])), int(sys.argv[3])))
