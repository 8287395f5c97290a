"""Term identity of the fattree benchmarks, and the cost of ``dist(v)``.

One golden digest per fattree variant (4 policies × ``Sp``/``Ap`` × pods
{2, 4}) pins every term a build produces.  Each digest covers, per node in
network order, the sender-named raw condition fingerprints and the canonical
condition fingerprints at delay 0 and 1, the dependency fingerprints at delay
0 and 1, and then the network fingerprint and the symmetry partition.  Fresh
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

#: ``(policy, all_pairs, pods)`` -> digest, recorded from the commit whose
#: ``networks/benchmarks.py`` still wrote every policy once per flavour.
GOLDEN = {
    ("reach", False, 2): "e26e2cd626d9e593a8f35e6501913fbd1c40fcc8129b57277ab26e46373d5ce6",
    ("reach", False, 4): "8f434e8d0f35646c7aa207b5c7f51bbba8426a646c54cd94608616c2fae1dc21",
    ("reach", True, 2): "1bd445b8e4adad2058f3b4d9c33e6f24f6e8322f80d744cc73411f53da7c7a3d",
    ("reach", True, 4): "8272b81435b43717cf5b00c5c19debd867a08a24a7e766832a9832682cf932e8",
    ("length", False, 2): "1e3efbc1d3f5839237640d34f520108b94ace08d68e05b5064505b5d2646bdf2",
    ("length", False, 4): "294187da289fff4fe28d09015a3184695db40ffd33aa5e34c785cd71d64a1813",
    ("length", True, 2): "b169a5c4685328b1a1020a2b30c02198be07283dfb2be0458c18542987194c9c",
    ("length", True, 4): "8616471449d4773f51b445a76b4036685889fa78f4a171b525563fe50170dc3a",
    ("valley_freedom", False, 2): "a1dafba7fd12bf61bd071360f9401d78782acd967f703ea006656c2792f28d2d",
    ("valley_freedom", False, 4): "9f1d0d18d81fa870e46cf5bd7fc84313fcd43cb26b8790128fe8591fc96356ce",
    ("valley_freedom", True, 2): "4acecc1f758cf7ef0efc18099a60e191f09b4e9d94fa724ecd5516248d4982ad",
    ("valley_freedom", True, 4): "6bf237717b2e9507c20c610c7b697640f65d29f4142926207b28978b1e46b52f",
    ("hijack", False, 2): "882c8d54b2d7c94d4f89a806dd6e90d7594e778153db78c20111477540d5dd05",
    ("hijack", False, 4): "adbff4abc3e3539fb30f9e1cbdab185bb62b403fbd9a6124704a0960bab9eeed",
    ("hijack", True, 2): "3453b1e57dcb077571a0e37fcb5b176e4ced988b8bc41d2aeed494a0acd4b293",
    ("hijack", True, 4): "ac396da034288c52bb04e46e8e588931d2de648cb68c91a5443cf2463d2068b1",
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
