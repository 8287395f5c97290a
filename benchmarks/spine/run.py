"""The benchmark spine: six named workloads, end-to-end metrics, a per-layer trace.

One command measures every workload of ``workloads.py``, each sample in a
fresh subprocess (``sample.py``), checks every verdict against the workload's
known answer, prints every metric by name with its unit and writes one JSON
result::

    python benchmarks/spine/run.py                  # all six, 5 samples + 1 traced run each
    python benchmarks/spine/run.py --check-repeat   # two sets back to back, must agree
    python benchmarks/spine/run.py --smoke --samples 1

Samples are scheduled round-robin across workloads, so a noisy minute on a
shared box hits every workload once instead of one workload five times.
End-to-end metrics come from untraced samples only; one extra traced sample
per workload (``trace.py`` wrappers installed) gives the per-layer numbers.

``BENCHMARK.json`` at the repository root declares the metric names, units
and regression bounds; this file reads them from there.  With ``--workload``
the run covers that workload alone and ends with the one-line JSON result the
benchmark contract asks for (``--trace 0``: end-to-end metrics, ``--trace 1``:
per-layer metrics; layers the workload does not exercise read 0).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
if str(SPINE) not in sys.path:
    sys.path.insert(0, str(SPINE))

from workloads import BY_NAME, WORKLOADS, Workload  # noqa: E402

#: A sample that has not finished by then counts every condition as failed.
SAMPLE_LIMIT_S = 120

#: Reported beside the declared end-to-end metrics; it cannot be declared in
#: ``BENCHMARK.json`` (always 0 on a healthy tree) and travels as the
#: contract's ``failed``/``attempted`` instead.  Any rise is a regression.
FAILED_SHARE = {"name": "failed_share", "unit": "share", "better": "lower", "bound": 0.0}

#: ``setup_s`` is ~0.2 s on the cold workloads, where a share alone is all
#: noise: ``--check-repeat`` allows ``max(bound, SETUP_FLOOR_S)``.
SETUP_FLOOR_S = 0.1

#: The per-layer self times; over one traced sample they sum to ``session.run_s``.
SELF_TIMES = (
    "conditions.build_s",
    "symmetry.partition_s",
    "fingerprint.deps_s",
    "store.open_s",
    "store.save_s",
    "bitblast.blast_s",
    "tseitin.encode_s",
    "incremental.self_s",
    "sat.load_s",
    "sat.solve_s",
    "checker.check_s",
    "session.self_s",
)

#: Counts later issues may rest claims on: identical across ``PYTHONHASHSEED``
#: values on the sequential path, so any difference between samples is a bug.
EXACT_COUNTS = (
    "tseitin.clauses",
    "tseitin.vars",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "incremental.clauses_shipped",
    "incremental.checks",
    "symmetry.classes",
    "conditions.built",
    "store.recheck_conditions",
)


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- one sample -------------------------------------------------------------------


def run_sample_process(
    workload: Workload,
    *,
    smoke: bool,
    seed: int,
    trace: bool,
    scratch: str,
    trace_out: str | None = None,
) -> dict[str, Any]:
    """One sample in a fresh subprocess; a crash or overrun fails every condition."""
    expected = workload.expected_conditions(smoke)

    def crashed(reason: str) -> dict[str, Any]:
        print(f"  !! {workload.name}: {reason}", file=sys.stderr)
        return {
            "workload": workload.name,
            "traced": trace,
            "crashed": reason,
            "attempted": expected,
            "failed": expected,
        }

    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        command = [sys.executable, str(SPINE / "sample.py"), workload.name]
        command += ["--workdir", workdir, "--seed", str(seed)]
        command += ["--smoke"] * smoke + ["--trace"] * trace
        if trace and trace_out is not None:
            command += ["--trace-out", trace_out]
        # Its own session, so an overrun sample's pool workers die with it.
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            output, _ = process.communicate(timeout=SAMPLE_LIMIT_S)
            reason = None if process.returncode == 0 else f"exit code {process.returncode}"
        except subprocess.TimeoutExpired:
            reason = f"exceeded the {SAMPLE_LIMIT_S} s limit"
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.communicate()
    if reason is not None:
        return crashed(reason)
    sample = json.loads(output.strip().splitlines()[-1])
    if sample["attempted"] != expected:
        return crashed(
            f"checked {sample['attempted']} conditions, the construction has {expected}"
        )
    return sample


# -- one set of runs ----------------------------------------------------------------


def measure(
    selected: Sequence[Workload], arguments: argparse.Namespace, scratch: str
) -> dict[str, dict[str, Any]]:
    """Untraced samples round-robin, then one traced sample per workload.

    Returns ``name -> {"untraced": [...], "traced": sample | None}``; a
    baseline workload that was not selected gets one untraced sample so the
    ratios against it have their base.
    """
    common = {"smoke": arguments.smoke, "seed": arguments.seed, "scratch": scratch}
    runs: dict[str, dict[str, Any]] = {
        workload.name: {"untraced": [], "traced": None} for workload in selected
    }
    if arguments.samples is not None:
        count, seconds = arguments.samples, None
    elif arguments.seconds is not None:
        # A traced run spends its time on the traced sample: one reference.
        count, seconds = (1, None) if arguments.trace else (None, arguments.seconds)
    else:
        count, seconds = 5, None

    started = time.monotonic()
    rounds = 0
    while True:
        for workload in selected:
            print(f"  sample {rounds + 1}: {workload.name}", file=sys.stderr)
            runs[workload.name]["untraced"].append(
                run_sample_process(workload, trace=False, **common)
            )
        rounds += 1
        done = rounds >= count if count is not None else time.monotonic() - started >= seconds
        if done:
            break
    if arguments.trace:
        for workload in selected:
            print(f"  traced: {workload.name}", file=sys.stderr)
            trace_out = None
            if arguments.trace_out is not None:
                trace_out = os.path.abspath(f"{arguments.trace_out}.{workload.name}.json")
            runs[workload.name]["traced"] = run_sample_process(
                workload, trace=True, trace_out=trace_out, **common
            )
            if workload.baseline is not None and workload.baseline not in runs:
                print(f"  baseline: {workload.baseline}", file=sys.stderr)
                base = run_sample_process(BY_NAME[workload.baseline], trace=False, **common)
                runs[workload.baseline] = {"untraced": [base], "traced": None, "baseline_only": True}
    return runs


def summarise(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _completed(samples: Sequence[Mapping[str, Any]]) -> list[Mapping[str, Any]]:
    return [sample for sample in samples if "crashed" not in sample]


def digest(
    runs: Mapping[str, Mapping[str, Any]], contract: Mapping[str, Any]
) -> dict[str, dict[str, Any]]:
    """Per-workload results of one set: summaries, per-layer numbers, problems."""

    def median_of(name: str, metric: str) -> float | None:
        values = [sample[metric] for sample in _completed(runs[name]["untraced"])]
        return statistics.median(values) if values else None

    results: dict[str, dict[str, Any]] = {}
    for name, run in runs.items():
        if run.get("baseline_only"):
            continue
        traced = run["traced"]
        samples = list(run["untraced"]) + ([traced] if traced is not None else [])
        attempted = sum(sample["attempted"] for sample in samples)
        failed = sum(sample["failed"] for sample in samples)
        problems = [
            f"{name}: sample crashed ({sample['crashed']})"
            for sample in samples
            if "crashed" in sample
        ]
        if failed:
            problems.append(f"{name}: {failed} of {attempted} conditions failed the known answer")

        end_to_end = {}
        if completed := _completed(run["untraced"]):
            end_to_end = {
                metric["name"]: summarise([sample[metric["name"]] for sample in completed])
                for metric in contract["end_to_end"]
            }
        # Pooled over every sample, traced ones too: a median would hide one bad sample.
        share = failed / attempted
        end_to_end["failed_share"] = {"median": share, "q1": share, "q3": share, "n": len(samples)}

        per_layer: dict[str, float] = {}
        if traced is not None and "crashed" not in traced and end_to_end.get("verify_s"):
            per_layer = dict(traced["layers"])
            reference = end_to_end["verify_s"]["median"]
            per_layer["trace.overhead_share"] = (traced["verify_s"] - reference) / reference
            baseline = BY_NAME[name].baseline
            base_wall = median_of(baseline, "verify_s") if baseline is not None else None
            if base_wall is not None:
                base_cpu = median_of(baseline, "verify_cpu_s")
                per_layer["parallel.speedup"] = base_wall / reference
                per_layer["parallel.cpu_overhead_share"] = (
                    end_to_end["verify_cpu_s"]["median"] - base_cpu
                ) / base_cpu

        exact: dict[str, float] = {}
        for sample in _completed(samples):
            counted = {**sample["counts"], **sample.get("layers", {})}
            for count in EXACT_COUNTS:
                value = counted.get(count)
                if value is not None and exact.setdefault(count, value) != value:
                    problems.append(
                        f"{name}: exact count {count} differs between samples "
                        f"({exact[count]} vs {value})"
                    )
        results[name] = {
            "why": BY_NAME[name].why,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "exact_counts": exact,
            "problems": problems,
            "samples": samples,
        }
    return results


# -- printing ----------------------------------------------------------------------


def _cell(value: float | None) -> str:
    if value is None:
        return "-"
    return str(int(value)) if float(value).is_integer() else format(value, ".4g")


def print_tables(results: Mapping[str, Mapping[str, Any]], contract: Mapping[str, Any]) -> None:
    metrics = list(contract["end_to_end"]) + [FAILED_SHARE]
    print("\nend-to-end (untraced samples): median [q1 .. q3] n, regression bound")
    for name, result in results.items():
        print(f"  {name} -- {result['why']}")
        for metric in metrics:
            summary = result["end_to_end"].get(metric["name"])
            if summary is None:
                print(f"    {metric['name']:<14} no completed sample")
                continue
            print(
                f"    {metric['name']:<14}{summary['median']:>10.4f} {metric['unit']:<5}"
                f" [{summary['q1']:.4f} .. {summary['q3']:.4f}] n={summary['n']}"
                f"  {metric['better']} is better, bound {metric['bound']:.0%}"
            )
    names = list(results)
    if not any(results[name]["per_layer"] for name in names):
        return
    width = max(len(name) for name in names) + 2
    print("\nper-layer (one traced sample per workload; *_s are self times; - = layer not exercised)")
    print(f"  {'metric':<40}{'unit':<7}" + "".join(f"{name:>{width}}" for name in names))
    for metric in contract["per_layer"]:
        cells = []
        for name in names:
            value = results[name]["per_layer"].get(metric["name"])
            cells.append(f"{_cell(value):>{width}}")
        print(f"  {metric['name']:<40}{metric['unit']:<7}" + "".join(cells))
    # The acceptance check made visible: self times must add up to the root.
    layer_sums = []
    for name in names:
        layers = results[name]["per_layer"]
        total = sum(layers.get(key, 0.0) for key in SELF_TIMES)
        layer_sums.append(f"{_cell(total if layers else None):>{width}}")
    print(f"  {'sum of layer self times (= session.run_s)':<40}{'s':<7}" + "".join(layer_sums))


# -- comparing two sets ---------------------------------------------------------------


def compare_sets(
    first: Mapping[str, Mapping[str, Any]],
    second: Mapping[str, Mapping[str, Any]],
    contract: Mapping[str, Any],
) -> list[str]:
    """Where two sets of the same code disagree by more than the benchmark's own bounds."""
    problems = []
    for name in first:
        for metric in list(contract["end_to_end"]) + [FAILED_SHARE]:
            a = first[name]["end_to_end"].get(metric["name"])
            b = second[name]["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            allowed = metric["bound"] * a["median"]
            if metric["name"] == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            if abs(b["median"] - a["median"]) > allowed:
                problems.append(
                    f"{name}: {metric['name']} median {a['median']:.4f} vs {b['median']:.4f} "
                    f"{metric['unit']} differs by more than {allowed:.4f}"
                )
        for count, value in first[name]["exact_counts"].items():
            other = second[name]["exact_counts"].get(count)
            if other != value:
                problems.append(f"{name}: exact count {count} differs between sets ({value} vs {other})")
    return problems


# -- entry point ----------------------------------------------------------------------


def contract_line(
    result: Mapping[str, Any], contract: Mapping[str, Any], trace: bool, correct: bool
) -> str:
    if trace:
        metrics = {
            metric["name"]: {"value": result["per_layer"].get(metric["name"], 0.0), "unit": metric["unit"]}
            for metric in contract["per_layer"]
        }
    else:
        metrics = {
            metric["name"]: {"value": result["end_to_end"][metric["name"]]["median"], "unit": metric["unit"]}
            for metric in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="measure this workload only")
    parser.add_argument("--seed", type=int, default=0, help="drives the edit draw only (default 0)")
    parser.add_argument("--samples", type=int, help="untraced samples per workload (default 5)")
    parser.add_argument(
        "--seconds", type=float, help="keep sampling until this much time has passed instead"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1, help="traced run per workload")
    parser.add_argument("--trace-out", help="prefix for Chrome-trace JSON files of the traced runs")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; never compare to full size")
    parser.add_argument("--check-repeat", action="store_true", help="run two sets; fail if they disagree")
    parser.add_argument("--out", help="result JSON (default .spine/result.json)")
    arguments = parser.parse_args(argv)
    if arguments.samples is not None and arguments.samples < 1:
        parser.error("--samples must be at least 1")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src' / 'repro'}: nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    selected = [BY_NAME[arguments.workload]] if arguments.workload else list(WORKLOADS)
    scratch = ROOT / ".spine"
    scratch.mkdir(exist_ok=True)

    sets = []
    for index in range(2 if arguments.check_repeat else 1):
        print(f"set {index + 1}:", file=sys.stderr)
        sets.append(digest(measure(selected, arguments, str(scratch)), contract))
        print_tables(sets[-1], contract)
    problems = [problem for results in sets for result in results.values() for problem in result["problems"]]
    if arguments.check_repeat:
        problems += compare_sets(sets[0], sets[1], contract)

    out = Path(arguments.out) if arguments.out else scratch / "result.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": arguments.seed, "smoke": arguments.smoke, "sets": sets, "problems": problems},
            handle,
            indent=1,
        )
    print(f"\nseed {arguments.seed}; wrote {out}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("OK" if not problems else f"{len(problems)} problem(s)")

    if arguments.workload:
        result = sets[-1][arguments.workload]
        wanted = "per_layer" if arguments.trace else "end_to_end"
        if not result[wanted] or (not arguments.trace and "verify_s" not in result["end_to_end"]):
            print("no completed sample: no result", file=sys.stderr)
            return 1
        print(contract_line(result, contract, bool(arguments.trace), not problems))
        return 0
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
