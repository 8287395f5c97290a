"""Pre-solve static analysis over annotated networks and policy configs.

The dominant Timepiece user failure mode is a *wrong annotation*: an
interface whose witness time is inconsistent with propagation distance, a
vacuously true/false interface, an unprovable condition — mistakes
that otherwise surface only as expensive SAT counterexamples after
bit-blasting.  This package finds them in milliseconds, before any solver
work, by pure term construction and constant folding::

    from repro.analysis import lint_network

    report = lint_network(annotated)
    if not report.clean:
        print(report.describe())   # TP0xx-coded diagnostics

The same passes run inside a verification session
(``Session.run(lint="warn")`` attaches diagnostics to the report,
``lint="strict"`` raises :class:`~repro.errors.AnalysisError` before
dispatch), from the CLI (``timepiece-bench lint``), and in the test suite
(every registry benchmark lints clean).  See
``docs/DIAGNOSTICS.md`` for the code reference.
"""

from repro.analysis.diagnostics import (
    CODES,
    SEVERITIES,
    Diagnostic,
    LintReport,
    diagnostic,
    merge_lint_reports,
)
from repro.analysis.passes import (
    AnalysisPass,
    LintTarget,
    default_passes,
    lint_benchmark,
    lint_network,
    run_passes,
)

__all__ = [
    "CODES",
    "SEVERITIES",
    "Diagnostic",
    "LintReport",
    "diagnostic",
    "merge_lint_reports",
    "AnalysisPass",
    "LintTarget",
    "default_passes",
    "lint_benchmark",
    "lint_network",
    "run_passes",
]
