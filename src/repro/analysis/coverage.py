"""TP007: annotation coverage notes.

TP007 is an *info* note: a node whose interface **and** property are both
trivially true is completely unconstrained.  That is often deliberate —
benchmark externals and the WAN's internal routers are annotated
``G(true)``/``G(true)`` on purpose — so the note exists for coverage
audits, not to dirty a report.

TP008 is retired and reserved (``docs/DIAGNOSTICS.md``): no pass emits it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget


class CoveragePass(AnalysisPass):
    """Note unconstrained nodes."""

    name = "coverage"

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        for node in target.nodes:
            if target.interface_value(node) is True and target.property_value(node) is True:
                yield diagnostic(
                    "TP007",
                    f"node {node!r} uses trivially-true interface and property "
                    "annotations: nothing is verified at this node",
                    node=node,
                )
