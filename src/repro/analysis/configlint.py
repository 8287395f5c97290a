"""TP009–TP012: the config-DSL lint pass.

The finding computation itself lives next to the name-resolution tables it
walks (:func:`repro.config.semantics.lint`); this pass adapts those
:class:`~repro.config.semantics.ConfigFinding` records into coded
diagnostics so config hygiene flows through the same report/strict-mode
machinery as annotation lint.  Targets without a resolved configuration
(every non-config benchmark) simply skip the pass.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget

#: ConfigFinding.kind -> diagnostic code.
FINDING_CODES = {
    "unreachable-term": "TP009",
    "unused-community": "TP010",
    "unused-prefix-list": "TP011",
    "shadowed-name": "TP012",
}


class ConfigLintPass(AnalysisPass):
    """Adapt :func:`repro.config.semantics.lint` findings to diagnostics."""

    name = "config"

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        if target.config is None:
            return
        from repro.config.semantics import lint

        for finding in lint(target.config):
            code = FINDING_CODES.get(finding.kind)
            if code is None:
                # A finding kind added to semantics.lint without a code here
                # must not vanish silently; TP012's severity (warning) is the
                # conservative default for unknown hygiene findings.
                code = "TP012"
            yield diagnostic(
                code,
                finding.message,
                source=finding.source,
                line=finding.location.line if finding.location else None,
                column=finding.location.column if finding.location else None,
            )
