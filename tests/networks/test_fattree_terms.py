"""Term identity of the fattree benchmarks, and the cost of ``dist(v)``.

One golden digest per fattree variant (4 policies × ``Sp``/``Ap`` × pods
{2, 4}) pins every term a build produces.  Each digest covers, per node in
network order, the raw and the canonical condition fingerprints at delay 0
and 1, the dependency fingerprints at delay 0 and 1, and then the network fingerprint and the symmetry partition.  Fresh
variable names carry a process-wide counter, so every digest comes from its
own fresh subprocess; nothing else about the process (the machine,
``PYTHONHASHSEED``) moves it.
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
#: ``node_conditions(..., naming="class")``.
GOLDEN = {
    ("reach", False, 2): "6b8b0bd3c19c3c8f45a5ac0f981e50f2f5b4a3e2fcb895ce7bb7c9f27dc3236e",
    ("reach", False, 4): "ce8c3aa5b16e72f370aa374029966c0eed9abc847bd5529554dba836f1c15ac0",
    ("reach", True, 2): "5a10b7a4fd399f3cef2b7ab9531660b7e5160314eb0696eb89025ef1add79ccf",
    ("reach", True, 4): "978fe99a96c93d5f07dcac07218fc36f37a2018387f6142bb3600b35fa9dc408",
    ("length", False, 2): "a4c8b8dd49ed16ddcea64b7423501df244661c0b9c67c111858ffcff19950954",
    ("length", False, 4): "7e82a81df2d05d102b6ea19c9793551ac32c57c9d5160e7929526a09fad4da35",
    ("length", True, 2): "df5834cb9ffc181fcfff3078cdf05d128887c34f5e831dfcb927e94e90a8bd14",
    ("length", True, 4): "2e36560c7ae8e44cdfd8d376eb6030c1f5a0272fa5247131978dc642736038f2",
    ("valley_freedom", False, 2): "5caee0924c996bc226483908c94d2cc3e2b6ac65ca8eebecefb6a8c417ac63ac",
    ("valley_freedom", False, 4): "b80db5d24b3554c0bda8c7a98a7a998dbbdb62e1fe498477726864b04732b192",
    ("valley_freedom", True, 2): "4ed83c3d7427628b44dc03047ec2abbc7f1fa1b41159aa402a7339459625517d",
    ("valley_freedom", True, 4): "16da90e6b65bac373a84b074a0f7db6cdc79a58da5e2d64ac993a83b7133c0fd",
    ("hijack", False, 2): "91fbab318dbe011a3598cc1b882fe52d0a7262cba1db58b9b4dada4edb4fe050",
    ("hijack", False, 4): "fc6da47692ea00087e2d80e518517aab7127292be59c1318ed326c1907784d87",
    ("hijack", True, 2): "d4c4df6c3e68f37152ba8fc0ae915b10f91d9d479f7ef6b9e3ceb60c2b24369d",
    ("hijack", True, 4): "3921a9da6c2ea5f1d6a27e28954249da6938e4982d3898e37cab851d5bc69969",
}

#: Digest subprocesses run at once (each holds one small build).
WORKERS = 4


def term_digest(policy, all_pairs, pods):
    """The digest of one build; executed in the subprocess (see ``__main__``)."""
    from repro.core.conditions import node_conditions
    from repro.core.fingerprint import (
        condition_fingerprint,
        dependency_fingerprints,
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
        "dependencies": [dependency_fingerprints(annotated, nodes, delay=delay) for delay in (0, 1)],
        "network": network_fingerprint(annotated),
        "partition": [
            [
                list(cls.members),
                None if cls.destination is None else sorted(cls.destination.witnesses.items()),
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
def test_dist_ladder_is_built_once_per_node_and_time_term(policy, monkeypatch):
    """Every all-pairs policy pays ``dist(v)`` as often as Reach, whatever it reads.

    One ladder evaluation asks ``distance_to_destination`` once per edge node;
    a quotiented k=4 run applies each node's interface at three time terms.
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
    assert len(calls) == 3 * len(built.annotated.nodes) * edge_nodes


if __name__ == "__main__":
    print(term_digest(sys.argv[1], bool(int(sys.argv[2])), int(sys.argv[3])))
