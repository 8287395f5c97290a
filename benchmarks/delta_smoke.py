"""Delta re-verification smoke check for CI (and a JSON artifact).

The change-under-churn scenario on a small fattree: a cold full run warms
the fingerprint store, a warm no-op re-run must reuse *every* verdict, and
after one node's interface is edited the delta run must produce verdicts
byte-identical to a cold full run on the edited network while reusing most
of the store (``conditions_reused > 0``) and re-checking only the edited
neighbourhood (at most ``1 + max-degree`` nodes)::

    PYTHONPATH=src python benchmarks/delta_smoke.py --pods 4 --out delta-ablation.json

Then a stream of three one-node edits in this same process, the store
restored before each (the ``sp_reach_edit_stream`` shape): by now the process
has memoised every node's policy and every interface application of the base
network, so each edit's verdicts being the full engine's guards the memo keys
— a part served for an object it was not computed from would show here.

Exits non-zero on any violated property, so a fingerprint scheme that
over-invalidates (no reuse), under-invalidates (stale verdicts) or diverges
from the full engine (verdict mismatch) fails the job.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Sequence

from repro.core.results import condition_verdicts
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.smt.incremental import reset_process_solver
from repro.verify import Modular, verify


def _timed(target, strategy):
    reset_process_solver()
    started = time.perf_counter()
    report = verify(target, strategy)
    elapsed = time.perf_counter() - started
    reset_process_solver()
    return report, elapsed


def run_delta_smoke(pods: int, store: str) -> tuple[bool, dict]:
    """Cold → warm → one-node edit; check reuse, bounds and verdict identity."""
    instance = registry.build("fattree/reach", pods=pods)
    annotated = instance.annotated

    cold, cold_seconds = _timed(annotated, Modular(delta="reuse", store=store))
    warm, warm_seconds = _timed(annotated, Modular(delta="reuse", store=store))
    base_store = store + ".base"
    shutil.copyfile(store, base_store)
    edited, poisoned = inject_interface_failure(annotated)
    delta, delta_seconds = _timed(edited, Modular(delta="reuse", store=store))
    full, full_seconds = _timed(edited, Modular())

    topology = annotated.network.topology
    max_degree = max(len(list(topology.predecessors(node))) for node in annotated.nodes)
    rechecked_nodes = sorted(
        {
            result.node
            for node_report in delta.node_reports.values()
            for result in node_report.results
            if not result.reused
        }
    )

    # The in-process edit stream, every edit against the base network's store.
    step = max(1, len(annotated.nodes) // 4)
    stream = []
    for node in annotated.nodes[step::step][:3]:
        shutil.copyfile(base_store, store)
        target, _ = inject_interface_failure(annotated, node)
        streamed = verify(target, Modular(delta="reuse", store=store))
        stream.append(
            {
                "node": node,
                "reused": streamed.conditions_reused,
                "rechecked": streamed.conditions_recheck,
                "identical_to_full": condition_verdicts(streamed)
                == condition_verdicts(verify(target, Modular())),
            }
        )
    stream_identical = all(edit["identical_to_full"] and edit["reused"] > 0 for edit in stream)

    warm_full_reuse = warm.conditions_reused == warm.conditions_checked > 0
    warm_identical = condition_verdicts(warm) == condition_verdicts(cold)
    delta_identical = condition_verdicts(delta) == condition_verdicts(full)
    delta_reused_some = delta.conditions_reused > 0
    neighbourhood_bounded = 0 < len(rechecked_nodes) <= 1 + max_degree
    ok = (
        cold.passed
        and cold.conditions_reused == 0
        and warm_full_reuse
        and warm_identical
        and delta_identical
        and delta_reused_some
        and neighbourhood_bounded
        and stream_identical
    )

    payload = {
        "benchmark": instance.name,
        "pods": pods,
        "poisoned_node": poisoned,
        "max_degree": max_degree,
        "cold": {"total_s": round(cold_seconds, 3), "reused": cold.conditions_reused,
                 "rechecked": cold.conditions_recheck},
        "warm": {"total_s": round(warm_seconds, 3), "reused": warm.conditions_reused,
                 "rechecked": warm.conditions_recheck},
        "delta": {"total_s": round(delta_seconds, 3), "reused": delta.conditions_reused,
                  "rechecked": delta.conditions_recheck},
        "full_edit": {"total_s": round(full_seconds, 3),
                      "checked": full.conditions_checked},
        "rechecked_nodes": rechecked_nodes,
        "warm_full_reuse": warm_full_reuse,
        "warm_verdicts_identical": warm_identical,
        "delta_verdicts_identical_to_full": delta_identical,
        "neighbourhood_bounded": neighbourhood_bounded,
        "edit_stream": stream,
        "edit_stream_verdicts_identical_to_full": stream_identical,
        "ok": ok,
    }
    print(
        f"{instance.name}: cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s "
        f"({warm.conditions_reused}/{warm.conditions_checked} reused), "
        f"edit of {poisoned!r}: delta {delta_seconds:.3f}s re-checked "
        f"{len(rechecked_nodes)} nodes (bound {1 + max_degree}) vs full {full_seconds:.3f}s, "
        f"{len(stream)}-edit in-process stream {'identical' if stream_identical else 'DIVERGED'} — "
        f"{'ok' if ok else 'VIOLATION'}"
    )
    return ok, payload


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="delta re-verification smoke check")
    parser.add_argument("--pods", type=int, default=4, help="fattree pod count (default: 4)")
    parser.add_argument("--out", default=None, help="write the smoke JSON to this path")
    parser.add_argument(
        "--store", default=None, help="fingerprint store path (default: a temp file)"
    )
    arguments = parser.parse_args(argv)

    store = arguments.store or os.path.join(tempfile.mkdtemp(prefix="delta-smoke-"), "store.json")
    ok, payload = run_delta_smoke(arguments.pods, store)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {arguments.out}")
    if not ok:
        print("delta re-verification smoke FAILED", file=sys.stderr)
        return 1
    print("delta re-verification smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
