"""Render experiment results as the tables/series the paper reports.

The printers here regenerate, in text form, the data behind

* Figure 1  — modular vs monolithic verification time vs topology size;
* Figure 14 — the eight fattree policies (Tp total / median / p99 vs Ms);
* Table 2   — lines of code per benchmark definition; and
* Table 1   — ghost state per property.

They accept the :class:`~repro.harness.runner.ExperimentResult` records
produced by the sweep helpers and return plain strings, so benchmarks can
both print them and assert on their structure.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Sequence

from repro.harness.runner import ExperimentResult
from repro.networks.ghost import ghost_state_catalog


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table (no external dependencies)."""
    materialised = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in materialised:
        lines.append("  ".join(value.ljust(widths[index]) for index, value in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def scaling_table(results: Sequence[ExperimentResult]) -> str:
    """The Figure 1 series: nodes vs modular and monolithic wall time."""
    headers = ("nodes", "pods", "Tp total [s]", "Ms total [s]", "Ms outcome")
    rows = [
        (
            result.nodes,
            result.parameters.get("pods"),
            result.modular_wall_time,
            result.monolithic_wall_time,
            result.as_row()["ms_outcome"],
        )
        for result in results
    ]
    return format_table(headers, rows)


def figure14_table(results: Sequence[ExperimentResult]) -> str:
    """One Figure 14 panel: Tp total / median / p99 and Ms total per size.

    ``Tp stopped``/``Tp skipped`` surface run-level ``stop_on_failure``: a
    run that halted after the first failing batch shows ``yes`` and the
    number of conditions that never received a verdict, so a partially
    verified point cannot be misread as a complete one.
    """
    headers = (
        "benchmark",
        "pods",
        "nodes",
        "Tp total [s]",
        "Tp median [s]",
        "Tp p99 [s]",
        "Tp pass",
        "Tp stopped",
        "Tp skipped",
        "Ms total [s]",
        "Ms outcome",
    )
    rows = []
    for result in results:
        row = result.as_row()
        rows.append(
            (
                row["benchmark"],
                row.get("pods"),
                row["nodes"],
                row["tp_total_s"],
                row["tp_median_s"],
                row["tp_p99_s"],
                row["tp_pass"],
                row["tp_stopped"],
                row["tp_skipped"],
                row["ms_total_s"],
                row["ms_outcome"],
            )
        )
    return format_table(headers, rows)


def internet2_table(results: Sequence[ExperimentResult]) -> str:
    """The Internet2 paragraph as a table: modular stats vs monolithic."""
    headers = (
        "internal",
        "external",
        "nodes",
        "Tp total [s]",
        "Tp median [s]",
        "Tp p99 [s]",
        "Ms total [s]",
        "Ms outcome",
    )
    rows = []
    for result in results:
        row = result.as_row()
        rows.append(
            (
                row.get("internal"),
                row.get("external"),
                row["nodes"],
                row["tp_total_s"],
                row["tp_median_s"],
                row["tp_p99_s"],
                row["ms_total_s"],
                row["ms_outcome"],
            )
        )
    return format_table(headers, rows)


def symmetry_table(results: Sequence[ExperimentResult]) -> str:
    """Verdict-avoidance effectiveness: symmetry classes and delta reuse.

    ``discharged`` counts conditions handed to the SMT backend,
    ``propagated`` verdicts copied from a class representative this run, and
    ``reused`` verdicts supplied by the delta store (``--delta reuse``)
    without any work this run; the three partition ``tp_conditions``.
    ``skipped`` counts conditions left without any verdict because
    run-level ``stop_on_failure`` halted the point early (0 otherwise) —
    it sits outside that partition.
    """
    headers = (
        "benchmark",
        "nodes",
        "symmetry",
        "classes",
        "discharged",
        "propagated",
        "delta",
        "reused",
        "skipped",
        "Tp total [s]",
    )
    rows = []
    for result in results:
        row = result.as_row()
        conditions = row["tp_conditions"]
        discharged = row["tp_discharged"]
        reused = row["tp_reused"]
        propagated = None if conditions is None else conditions - discharged - reused
        rows.append(
            (
                row["benchmark"],
                row["nodes"],
                row["tp_symmetry"],
                row["tp_classes"],
                discharged,
                propagated,
                row["tp_delta"],
                reused,
                row["tp_skipped"],
                row["tp_total_s"],
            )
        )
    return format_table(headers, rows)


#: The incremental-backend cache counters shown by :func:`cache_statistics_table`
#: (a subset of ``IncrementalSolver.cache_statistics`` keys, in print order).
CACHE_STATISTIC_KEYS = (
    "bitblast_hits",
    "bitblast_misses",
    "tseitin_hits",
    "tseitin_misses",
    "guard_hits",
    "scopes",
    "clauses_shipped",
    "variables_mapped",
    "learned_retained",
    "learned_carried",
)


def cache_statistics_table(results: Sequence[ExperimentResult]) -> str:
    """Incremental-backend cache statistics per experiment point.

    Renders the counters :class:`~repro.core.results.ModularReport` collects
    from the incremental backend (bit-blast and Tseitin cache hits/misses,
    reused assertion guards, SAT scopes, clauses shipped and variables
    mapped into them, learned clauses retained), so ablation claims about
    encoding reuse and shipping volume are measurable straight from the
    CLI.  ``searched`` is ``branch_variables / scope_variables``: the share
    of the SAT instances' variables the searches could branch on, i.e. how
    much of a shared scope a check actually saw.  Points without counters
    (fresh backend, per-node parallel runs) render as ``-``.
    """
    headers = ("benchmark", "nodes") + CACHE_STATISTIC_KEYS + ("searched",)
    rows = []
    for result in results:
        cache = result.modular.backend_cache if result.modular is not None else None
        searched = None
        if cache is not None and cache.get("scope_variables"):
            searched = cache["branch_variables"] / cache["scope_variables"]
        rows.append(
            (result.benchmark, result.nodes)
            + tuple(None if cache is None else cache.get(key, 0) for key in CACHE_STATISTIC_KEYS)
            + (searched,)
        )
    return format_table(headers, rows)


def ghost_state_table(node_count: int = 20, edge_count: int = 64) -> str:
    """Table 1: ghost state needed per property (bit counts for a sample size)."""
    headers = ("property", "added ghost state", f"bits (|V|={node_count}, |E|={edge_count})")
    rows = [
        (row.property_name, row.ghost_state, row.bits(node_count, edge_count))
        for row in ghost_state_catalog()
    ]
    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Table 2: lines of code per benchmark definition
# ---------------------------------------------------------------------------


def count_callable_lines(target: Callable | type | object) -> int:
    """Source lines of a function/class, as counted for Table 2."""
    try:
        source = inspect.getsource(target)  # type: ignore[arg-type]
    except (OSError, TypeError):
        return 0
    return sum(1 for line in source.splitlines() if line.strip() and not line.strip().startswith("#"))


def lines_of_code_table() -> str:
    """Table 2: lines of code defining each benchmark's network, interfaces and property.

    The numbers are measured from this repository's own sources, so the exact
    values differ from the paper's C# figures; the point being reproduced is
    the *relative* effort — interfaces and properties are an order of
    magnitude smaller than the network definitions they annotate.
    """
    from repro.networks import benchmarks as fattree_benchmarks
    from repro.networks import wan as wan_benchmark

    def total(module: object, names: Sequence[str]) -> int:
        return sum(count_callable_lines(getattr(module, name)) for name in names if hasattr(module, name))

    shared_network = total(
        fattree_benchmarks,
        (
            "_identity_transfer",
            "_destination_announcement",
            "_sp_initial",
            "_ap_destination",
            "_bgp_option_merge",
        ),
    )
    shared_interface = total(
        fattree_benchmarks, ("_symbolic_distance", "_symbolic_adjacency", "_length_within_distance")
    )

    rows = [
        ("Reach", shared_network + count_callable_lines(fattree_benchmarks.build_reach), shared_interface + 4, 2),
        ("Len", shared_network + count_callable_lines(fattree_benchmarks.build_length), shared_interface + 10, 4),
        ("Vf", shared_network + count_callable_lines(fattree_benchmarks.build_valley_freedom), shared_interface + 16, 2),
        ("Hijack", shared_network + count_callable_lines(fattree_benchmarks.build_hijack), shared_interface + 8, 4),
        (
            "BlockToExternal",
            count_callable_lines(wan_benchmark.build_wan_benchmark),
            count_callable_lines(wan_benchmark.block_to_external_predicate),
            count_callable_lines(wan_benchmark.block_to_external_predicate),
        ),
    ]
    headers = ("benchmark", "network LoC", "interface LoC", "property LoC")
    return format_table(headers, rows)
