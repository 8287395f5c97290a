"""``symmetry="classes"`` on a network without a destination marker is ``"off"``.

The destination quotient is the only partition.  Without its marker every
node is its own class, so the report must be the ``"off"`` report apart from
the fields that name the mode (``symmetry``, ``symmetry_classes``) and the
solver counters (``backend_cache``, which moves with what the process built
before).
"""

import pytest

from repro.networks import registry
from repro.smt.incremental import reset_process_solver
from repro.verify import Modular, verify

#: The smallest parameters each registry family accepts.
SMALLEST = {
    "fattree": {"pods": 2},
    "wan": {"internal_routers": 3, "external_peers": 1},
    "ghost": {},
}

_TIMINGS = ("wall_time_s", "median_node_time_s", "p99_node_time_s", "max_node_time_s")
_MODE_FIELDS = ("symmetry", "symmetry_classes", "backend_cache")


def _timing_free_json(annotated, symmetry):
    reset_process_solver()
    data = verify(annotated, Modular(symmetry=symmetry)).to_json()
    for node in data["nodes"].values():
        del node["duration_s"]
    return {key: value for key, value in data.items() if key not in _TIMINGS}


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_classes_report_is_the_off_report(name):
    annotated = registry.build(name, **SMALLEST[name.split("/")[0]]).annotated
    assert annotated.destination_symmetry is None
    off = _timing_free_json(annotated, "off")
    classes = _timing_free_json(annotated, "classes")
    assert classes["symmetry_classes"] == len(annotated.nodes)
    assert classes["conditions_propagated"] == 0
    for field in _MODE_FIELDS:
        del off[field], classes[field]
    assert classes == off
