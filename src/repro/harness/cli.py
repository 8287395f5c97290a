"""Command-line entry point (``timepiece-bench``) for the experiment harness.

Examples::

    timepiece-bench figure1 --pods 4 8 --timeout 60
    timepiece-bench figure14 --policy reach --pods 4 8 12
    timepiece-bench figure14 --policy hijack --all-pairs --pods 4
    timepiece-bench figure14 --policy reach --symmetry spot-check --stats
    timepiece-bench internet2 --peers 20 40 --timeout 120
    timepiece-bench figure14 --policy reach --lint strict
    timepiece-bench lint
    timepiece-bench lint fattree/reach wan/block_to_external --json lint.json
    timepiece-bench benchmarks
    timepiece-bench table1
    timepiece-bench table2

Every subcommand prints the corresponding table from the paper's evaluation
(scaled-down defaults; pass larger ``--pods``/``--peers`` and ``--timeout``
values to push further).  Arguments are turned into
:mod:`repro.verify` strategy objects — the CLI holds no engine knobs of its
own — and benchmarks are built through :mod:`repro.networks.registry`.
``--json PATH`` additionally writes the sweep's machine-readable records
(including backend cache counters) for trajectory tracking.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.results import ConditionResult
from repro.errors import AnalysisError, BenchmarkError
from repro.harness.runner import (
    ExperimentResult,
    results_to_json,
    scaling_comparison,
    sweep_fattree,
    sweep_wan,
)
from repro.harness.tables import (
    cache_statistics_table,
    figure14_table,
    ghost_state_table,
    internet2_table,
    lines_of_code_table,
    scaling_table,
    symmetry_table,
)
from repro.networks import registry
from repro.verify import DELTA_MODES, Modular, Monolithic


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timepiece-bench",
        description="Regenerate the tables and figures of the Timepiece evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure1 = subparsers.add_parser("figure1", help="modular vs monolithic scaling comparison")
    _add_sweep_arguments(figure1)
    figure1.add_argument("--policy", default="reach", help="fattree policy to sweep (default: reach)")

    figure14 = subparsers.add_parser("figure14", help="one Figure 14 panel (a policy sweep)")
    _add_sweep_arguments(figure14)
    figure14.add_argument("--policy", default="reach", help="reach | length | valley_freedom | hijack")
    figure14.add_argument("--all-pairs", action="store_true", help="use the symbolic-destination variant")

    internet2 = subparsers.add_parser("internet2", help="the BlockToExternal WAN experiment")
    internet2.add_argument("--peers", type=int, nargs="+", default=[20, 40])
    internet2.add_argument("--internal", type=int, default=10)
    _add_strategy_arguments(internet2)

    lint = subparsers.add_parser(
        "lint",
        help="static-analysis lint of registry benchmarks (no solver work)",
        description=(
            "Run the pre-solve static analysis passes over registry benchmarks "
            "and print their TP0xx diagnostics.  Exits 0 when every report is "
            "clean (info-severity notes allowed), 1 when any benchmark has "
            "error- or warning-severity findings, 2 on usage errors."
        ),
    )
    lint.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        help="registry benchmark names to lint (default: every registered benchmark)",
    )
    lint.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the lint reports (one record per benchmark) to PATH",
    )

    subparsers.add_parser("benchmarks", help="list the registered benchmarks and parameters")
    subparsers.add_parser("table1", help="ghost state per property (Table 1)")
    subparsers.add_parser("table2", help="lines of code per benchmark (Table 2)")
    return parser


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pods", type=int, nargs="+", default=[4, 8], help="fattree pod counts k")
    _add_strategy_arguments(parser)


def _add_strategy_arguments(parser: argparse.ArgumentParser) -> None:
    """The argv surface of the verification strategies (argv → strategy)."""
    parser.add_argument("--timeout", type=float, default=60.0, help="monolithic timeout in seconds")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for modular checks")
    parser.add_argument("--skip-monolithic", action="store_true", help="only run the modular checks")
    parser.add_argument(
        "--symmetry",
        choices=["off", "classes", "spot-check"],
        default="off",
        help="symmetry reduction for modular checks (default: off)",
    )
    parser.add_argument(
        "--spot-check-seed",
        type=int,
        default=0,
        help="seed for the spot-check member choice (with --symmetry spot-check)",
    )
    parser.add_argument(
        "--delta",
        choices=list(DELTA_MODES),
        default="off",
        help=(
            "delta re-verification for modular checks (default: off): with "
            "'reuse', verdicts of conditions unchanged since the last "
            "recorded run are reused from the on-disk fingerprint store and "
            "only changed/new conditions are discharged"
        ),
    )
    parser.add_argument(
        "--delta-store",
        metavar="PATH",
        default=None,
        help=(
            "fingerprint store path for --delta reuse (default: a "
            "per-(network, strategy) file under .timepiece-delta/)"
        ),
    )
    parser.add_argument(
        "--stop-on-failure",
        action="store_true",
        help=(
            "stop scheduling further nodes/classes after the first failing "
            "batch (parallel runs stop dispatching queued work and wind down "
            "the pool; the report records how many conditions were skipped)"
        ),
    )
    parser.add_argument(
        "--lint",
        choices=["warn", "strict"],
        default=None,
        help=(
            "run the static-analysis passes before solving: 'warn' attaches "
            "diagnostics to the modular reports, 'strict' aborts the sweep "
            "(exit 1) on any error/warning finding before solver work"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="also print symmetry and incremental-backend cache statistics",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream per-condition progress lines to stderr as verdicts arrive "
            "(live even with --jobs > 1: each worker batch reports the moment "
            "it finishes)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the sweep's machine-readable records (with cache counters) to PATH",
    )


def _modular_strategy(arguments: argparse.Namespace) -> Modular:
    """Build the modular strategy from argv."""
    return Modular(
        symmetry=arguments.symmetry,
        # --jobs 0 has always meant "run sequentially".
        parallel=max(1, arguments.jobs),
        stop_on_failure=arguments.stop_on_failure,
        spot_check_seed=arguments.spot_check_seed,
        delta=arguments.delta,
        store=arguments.delta_store,
    )


def _monolithic_strategy(arguments: argparse.Namespace) -> Monolithic | None:
    if arguments.skip_monolithic:
        return None
    return Monolithic(timeout=arguments.timeout)


def _observer(arguments: argparse.Namespace, modular: Modular):
    if not arguments.progress:
        return None
    print(f"strategy: {modular.describe()}", file=sys.stderr)

    def on_event(event: ConditionResult) -> None:
        status = "ok" if event.holds else "FAIL"
        origin = "" if event.propagated_from is None else f" (from {event.propagated_from})"
        reused = " [reused]" if event.reused else ""
        print(f"  {event.node} {event.condition}: {status}{origin}{reused}", file=sys.stderr)

    return on_event


def _emit(arguments: argparse.Namespace, results: list[ExperimentResult]) -> None:
    if getattr(arguments, "progress", False):
        # stop_on_failure epilogue: --progress streams verdicts as they
        # arrive, so a run the session reaped early must say so explicitly
        # (the stream simply ends otherwise) along with how many conditions
        # never received a verdict.
        for result in results:
            report = result.modular
            if report is not None and report.stopped_early:
                print(
                    f"  {result.benchmark}: stopped early on first failure "
                    f"({report.conditions_skipped} conditions skipped)",
                    file=sys.stderr,
                )
    if getattr(arguments, "stats", False):
        print()
        print(symmetry_table(results))
        print()
        print(cache_statistics_table(results))
    if getattr(arguments, "json", None):
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(results_to_json(results), handle, indent=2, sort_keys=True)
        print(f"wrote {arguments.json}")


def _lint_command(arguments: argparse.Namespace) -> int:
    """``timepiece-bench lint``: self-lint registry benchmarks, no solver."""
    from repro.analysis import lint_benchmark

    names = list(arguments.benchmarks) or list(registry.benchmark_names())
    reports = []
    for name in names:
        # Unknown names raise BenchmarkError -> usage error (exit 2) in main.
        report = lint_benchmark(registry.build(name))
        reports.append(report)
        print(report.describe())
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump([report.to_json() for report in reports], handle, indent=2, sort_keys=True)
        print(f"wrote {arguments.json}")
    dirty = [report for report in reports if not report.clean]
    if dirty:
        names = ", ".join(report.target or "<unnamed>" for report in dirty)
        print(f"timepiece-bench: lint: findings in {names}", file=sys.stderr)
        return 1
    return 0


def _benchmarks_listing() -> str:
    lines = []
    for name in registry.benchmark_names():
        spec = registry.get_spec(name)
        parameters = ", ".join(
            f"{parameter.name}={parameter.default!r}" for parameter in spec.parameters
        )
        aliases = f" (alias: {', '.join(spec.aliases)})" if spec.aliases else ""
        lines.append(f"{name}{aliases}")
        lines.append(f"    {spec.description}")
        lines.append(f"    parameters: {parameters or 'none'}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    arguments = build_argument_parser().parse_args(argv)

    strategies: tuple[Modular, Monolithic | None] | None = None
    if arguments.command in ("figure1", "figure14", "internet2"):
        try:
            strategies = (_modular_strategy(arguments), _monolithic_strategy(arguments))
        except ValueError as error:
            # Strategy self-validation catches bad knob combinations argparse
            # cannot express (e.g. --delta-store without --delta reuse); report
            # them like any other usage error instead of a traceback.
            print(f"timepiece-bench: error: {error}", file=sys.stderr)
            return 2
    try:
        return _dispatch(arguments, strategies)
    except AnalysisError as error:
        # --lint strict: the static analysis rejected the target before any
        # solver work; the findings are the message.
        print(f"timepiece-bench: lint: {error}", file=sys.stderr)
        return 1
    except BenchmarkError as error:
        # Registry parameter validation rejects argv-driven benchmark
        # parameters (e.g. an odd --pods value).
        print(f"timepiece-bench: error: {error}", file=sys.stderr)
        return 2


def _dispatch(
    arguments: argparse.Namespace,
    strategies: tuple[Modular, Monolithic | None] | None,
) -> int:
    if strategies is not None:
        modular, monolithic = strategies
    if arguments.command == "figure1":
        results = scaling_comparison(
            arguments.policy,
            arguments.pods,
            modular=modular,
            monolithic=monolithic,
            on_event=_observer(arguments, modular),
            lint=arguments.lint,
        )
        print(scaling_table(results))
        _emit(arguments, results)
    elif arguments.command == "figure14":
        results = sweep_fattree(
            arguments.policy,
            arguments.pods,
            all_pairs=arguments.all_pairs,
            modular=modular,
            monolithic=monolithic,
            on_event=_observer(arguments, modular),
            lint=arguments.lint,
        )
        print(figure14_table(results))
        _emit(arguments, results)
    elif arguments.command == "internet2":
        results = sweep_wan(
            arguments.peers,
            internal_routers=arguments.internal,
            modular=modular,
            monolithic=monolithic,
            on_event=_observer(arguments, modular),
            lint=arguments.lint,
        )
        print(internet2_table(results))
        _emit(arguments, results)
    elif arguments.command == "lint":
        return _lint_command(arguments)
    elif arguments.command == "benchmarks":
        print(_benchmarks_listing())
    elif arguments.command == "table1":
        print(ghost_state_table())
    elif arguments.command == "table2":
        print(lines_of_code_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
