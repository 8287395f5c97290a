"""Structured lint diagnostics: stable codes, severities, locations.

Every finding of the static analysis layer is a :class:`Diagnostic` with a
stable ``TP0xx`` code (see :data:`CODES` and ``docs/DIAGNOSTICS.md``), a
severity, a human-readable message and an optional location — a node and
condition kind for annotation findings, a term path for sort findings, a
config source line for policy-DSL findings.  Diagnostics are plain frozen
data so they serialise (``to_json``), sort deterministically, and travel
inside reports (``ModularReport.diagnostics``) and exceptions
(:class:`repro.errors.AnalysisError`) without dragging the pass machinery
along.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import AnalysisError

#: Diagnostic severities, most severe first.
SEVERITIES = ("error", "warning", "info")

#: The stable diagnostic codes: code -> (severity, one-line meaning).
#: Codes are append-only; ``docs/DIAGNOSTICS.md`` documents each with an
#: example and a fix.  A code's severity is fixed — callers branch on
#: severity, so a code that changed severity between releases would silently
#: change strict-mode behaviour.  A retired code leaves this table but is
#: never reused: TP008 (the symmetry-hint audit) is reserved.
CODES: dict[str, tuple[str, str]] = {
    "TP001": ("error", "ill-sorted or ill-formed term in a verification condition"),
    "TP002": ("warning", "interface is trivially true (vacuous induction)"),
    "TP003": ("error", "interface is trivially false (nothing satisfies it)"),
    "TP004": ("error", "interface asserts a route before it can arrive"),
    "TP005": ("warning", "condition assumptions are contradictory (vacuous condition)"),
    "TP006": ("error", "condition goal is constant false (unprovable)"),
    "TP007": ("info", "node uses the default always-true annotations"),
    "TP009": ("warning", "unreachable policy term"),
    "TP010": ("warning", "unused community definition"),
    "TP011": ("warning", "unused prefix-list definition"),
    "TP012": ("warning", "name shadowed across configuration namespaces"),
}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One static-analysis finding.

    Location fields are optional and orthogonal: annotation findings carry
    ``node`` (and usually ``condition``), sort findings additionally carry a
    ``term_path`` (root-to-offender operator path), config findings carry
    ``source``/``line``/``column`` from the policy DSL's
    :class:`~repro.config.ast.SourceLocation`.
    """

    code: str
    message: str
    #: Node the finding is about (annotation/condition findings).
    node: str | None = None
    #: Condition kind ("initial" | "inductive" | "safety") when specific.
    condition: str | None = None
    #: Operator path from the condition root to the offending subterm,
    #: e.g. ``"goal/and[1]/ite[0]"`` (sort findings).
    term_path: str | None = None
    #: Config-source context, e.g. ``"policy 'export-to-external'"``.
    source: str | None = None
    line: int | None = None
    column: int | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise AnalysisError(
                f"unknown diagnostic code {self.code!r}; known codes: {sorted(CODES)}"
            )

    @property
    def severity(self) -> str:
        """The code's fixed severity (one of :data:`SEVERITIES`)."""
        return CODES[self.code][0]

    @property
    def title(self) -> str:
        """The code's one-line meaning."""
        return CODES[self.code][1]

    def location(self) -> str:
        """A compact human rendering of whichever location fields are set."""
        parts: list[str] = []
        if self.node is not None:
            parts.append(self.node if self.condition is None else f"{self.node}/{self.condition}")
        if self.term_path is not None:
            parts.append(self.term_path)
        if self.source is not None:
            where = self.source
            if self.line is not None:
                where += f" (line {self.line}"
                where += f", column {self.column})" if self.column is not None else ")"
            parts.append(where)
        return " ".join(parts)

    def describe(self) -> str:
        """One line: ``TP004 error [core-0/inductive]: message``."""
        location = self.location()
        at = f" [{location}]" if location else ""
        return f"{self.code} {self.severity}{at}: {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "node": self.node,
            "condition": self.condition,
            "term_path": self.term_path,
            "source": self.source,
            "line": self.line,
            "column": self.column,
        }


def diagnostic(code: str, message: str, **location: object) -> Diagnostic:
    """Shorthand constructor used by the passes."""
    return Diagnostic(code=code, message=message, **location)  # type: ignore[arg-type]


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: all diagnostics plus run metadata.

    ``clean`` means no error- or warning-severity findings — info-severity
    notes (e.g. TP007 coverage notes) do not dirty a report, because
    legitimately unconstrained nodes (the WAN benchmark's internal routers)
    carry deliberate ``always_true`` annotations.
    """

    diagnostics: tuple[Diagnostic, ...]
    #: Names of the passes that ran, in execution order.
    passes: tuple[str, ...] = ()
    #: Wall-clock seconds the passes took (term building only, no SAT).
    wall_time: float = 0.0
    #: The lint target's display name (benchmark name), if known.
    target: str | None = field(default=None, compare=False)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: str) -> tuple[Diagnostic, ...]:
        if severity not in SEVERITIES:
            raise AnalysisError(
                f"unknown severity {severity!r}; choose one of {SEVERITIES}"
            )
        return tuple(d for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.by_severity("error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.by_severity("warning")

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.by_severity("info")

    @property
    def clean(self) -> bool:
        return not self.errors and not self.warnings

    def codes(self) -> tuple[str, ...]:
        """The distinct codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        if code not in CODES:
            raise AnalysisError(f"unknown diagnostic code {code!r}")
        return tuple(d for d in self.diagnostics if d.code == code)

    def summary(self) -> str:
        name = f"{self.target}: " if self.target else ""
        if not self.diagnostics:
            return f"{name}lint clean ({len(self.passes)} passes, {self.wall_time * 1e3:.1f}ms)"
        counts = ", ".join(
            f"{len(self.by_severity(severity))} {severity}(s)"
            for severity in SEVERITIES
            if self.by_severity(severity)
        )
        return (
            f"{name}lint found {counts} "
            f"({len(self.passes)} passes, {self.wall_time * 1e3:.1f}ms)"
        )

    def describe(self) -> str:
        """The summary line plus one line per diagnostic."""
        lines = [self.summary()]
        lines.extend(f"  {diag.describe()}" for diag in self.diagnostics)
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "target": self.target,
            "clean": self.clean,
            "passes": list(self.passes),
            "wall_time_s": self.wall_time,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [diag.to_json() for diag in self.diagnostics],
        }

    def raise_for_findings(self, context: str = "") -> None:
        """Raise :class:`AnalysisError` unless the report is clean (strict mode)."""
        if self.clean:
            return
        offending = self.errors + self.warnings
        where = f" in {context}" if context else ""
        lines = [
            f"static analysis found {len(self.errors)} error(s) and "
            f"{len(self.warnings)} warning(s){where}:"
        ]
        lines.extend(f"  {diag.describe()}" for diag in offending)
        raise AnalysisError("\n".join(lines), diagnostics=offending)


def merge_lint_reports(reports: Iterable[LintReport], target: str | None = None) -> LintReport:
    """Concatenate several reports (e.g. network lint + config lint)."""
    reports = list(reports)
    passes: list[str] = []
    for report in reports:
        for name in report.passes:
            if name not in passes:
                passes.append(name)
    return LintReport(
        diagnostics=tuple(d for report in reports for d in report.diagnostics),
        passes=tuple(passes),
        wall_time=sum(report.wall_time for report in reports),
        target=target,
    )
