"""Tier-1 checks of the benchmark spine, at ``--smoke`` size (a few seconds)."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent
if str(SPINE) not in sys.path:
    sys.path.insert(0, str(SPINE))

import run  # noqa: E402
import sample  # noqa: E402
import trace as spine_trace  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Per-layer metrics ``run.py`` derives from several samples, not ``sample.py``.
CROSS_SAMPLE = {"trace.overhead_share", "parallel.speedup", "parallel.cpu_overhead_share"}


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def _patched_bindings():
    """Every attribute the tracer replaces, with the object bound there now."""
    for module_name in spine_trace.CONSUMERS:
        importlib.import_module(module_name)
    bindings = {}
    for module_name, class_name, attribute, _, _ in spine_trace.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        bindings[(cls, attribute)] = cls.__dict__[attribute]
    for module_name, attribute, _ in spine_trace.FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        for module in spine_trace._repro_modules():
            for bound_as, value in vars(module).items():
                if value is original:
                    bindings[(module, bound_as)] = value
    return bindings


def test_contract_names_match_the_workload_table(contract):
    assert contract["paths"] == ["benchmarks/spine"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    declared = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(set(declared)) == len(declared)
    for name in declared + [w.name for w in WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert set(run.EXACT_COUNTS) | set(run.SELF_TIMES) <= set(declared)


def test_smoke_run_reports_every_metric_of_every_workload(contract, tmp_path):
    out = tmp_path / "result.json"
    assert run.main(["--smoke", "--samples", "1", "--trace", "0", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["smoke"] and result["seed"] == 0 and not result["problems"]
    (workloads,) = result["sets"]
    assert list(workloads) == [w["name"] for w in contract["workloads"]]
    wanted = {m["name"] for m in contract["end_to_end"]} | {"failed_share"}
    for name, measured in workloads.items():
        assert set(measured["end_to_end"]) == wanted, name
        assert measured["end_to_end"]["failed_share"]["median"] == 0, name
        assert measured["attempted"] == BY_NAME[name].expected_conditions(smoke=True)
        assert all(summary["median"] > 0 for key, summary in measured["end_to_end"].items() if key != "failed_share")


def test_traced_samples_name_every_layer_metric_and_leave_no_wrapper(contract, tmp_path):
    before = _patched_bindings()
    layers = {}
    # Between them these three exercise every layer.
    for name in ("sp_reach_edit_stream", "ap_reach_quotient", "sp_reach_parallel2"):
        measured = sample.run_sample(BY_NAME[name], workdir=str(tmp_path), smoke=True, trace=True)
        assert measured["failed"] == 0
        layers[name] = measured["layers"]
    assert _patched_bindings() == before

    declared = {m["name"] for m in contract["per_layer"]}
    assert set().union(*layers.values()) == declared - CROSS_SAMPLE
    for name in ("sp_reach_edit_stream", "ap_reach_quotient"):
        self_times = sum(layers[name].get(key, 0.0) for key in run.SELF_TIMES)
        assert self_times == pytest.approx(layers[name]["session.run_s"], rel=1e-6)
        assert layers[name]["session.unattributed_share"] <= 0.15
    assert layers["ap_reach_quotient"]["conditions.built_per_discharged"] > 1
    assert layers["sp_reach_edit_stream"]["store.recheck_conditions"] == 14


def test_a_wrong_known_answer_raises_failed_share(tmp_path):
    wrong = dataclasses.replace(BY_NAME["sp_reach_edit_stream"], known_answer="all_pass")
    measured = sample.run_sample(wrong, workdir=str(tmp_path), smoke=True)
    # Per edit: the edited node's inductive verdict is wrong and its safety verdict missing.
    assert measured["failed"] == 2 * wrong.smoke_edits
    assert measured["failed"] / measured["attempted"] > 0


def test_a_crashed_sample_fails_every_condition(tmp_path):
    ghost = dataclasses.replace(BY_NAME["sp_reach_cold"], name="not_a_workload")
    crashed = run.run_sample_process(ghost, smoke=True, seed=0, trace=False, scratch=str(tmp_path))
    assert "crashed" in crashed
    assert crashed["failed"] == crashed["attempted"] == ghost.expected_conditions(smoke=True)
