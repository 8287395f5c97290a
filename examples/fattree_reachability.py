#!/usr/bin/env python3
"""Verify reachability and bounded path length on a fattree data centre.

Builds the SpReach and SpLen benchmarks of §6 for a chosen pod count ``k``,
verifies them modularly (optionally in parallel) and compares against the
Minesweeper-style monolithic baseline — a miniature version of the Figure 14
experiment.  Exits with status 1 when a modular verification fails, so a
wrong verdict fails whatever runs it.

Run with::

    python examples/fattree_reachability.py [pods] [--jobs N] [--timeout S]
"""

from __future__ import annotations

import argparse

from repro.networks import fattree_size, registry
from repro.verify import Modular, Monolithic, Session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pods", type=int, nargs="?", default=4, help="fattree pod count k (even)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for modular checks")
    parser.add_argument("--timeout", type=float, default=60.0, help="monolithic timeout in seconds")
    parser.add_argument(
        "--skip-monolithic", action="store_true", help="only run the modular verification"
    )
    arguments = parser.parse_args()

    print(f"fattree k={arguments.pods}: {fattree_size(arguments.pods)} switches")
    failed = []
    for policy in ("reach", "length"):
        benchmark = registry.build(f"fattree/{policy}", pods=arguments.pods)
        print(f"\n--- {benchmark.name} (destination {benchmark.raw.destination}) ---")
        with Session(benchmark.annotated, Modular(parallel=arguments.jobs)) as session:
            report = session.run()
        print("modular:    ", report.summary())
        if not report.passed:
            failed.append(benchmark.name)
            for counterexample in report.counterexamples()[:3]:
                print(counterexample.describe())
        if not arguments.skip_monolithic:
            with Session(benchmark.annotated, Monolithic(timeout=arguments.timeout)) as session:
                print("monolithic: ", session.run().summary())
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
