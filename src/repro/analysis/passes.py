"""The lint pass framework: targets, the built-in pass list, and the driver.

A :class:`LintTarget` wraps one annotated network (plus, optionally, the
resolved policy configuration it was compiled from) and memoises the
artifacts several passes share — each node's verification conditions and the
constant-folded value of each node's interface and property.  Passes are
tiny classes with a ``run`` method yielding
:class:`~repro.analysis.diagnostics.Diagnostic` objects; :func:`default_passes`
lists the five built-in ones, and :func:`run_passes` executes a pass list
over a target and assembles a :class:`~repro.analysis.diagnostics.LintReport`.

Everything here is *pre-solver*: passes build and fold terms through the
smart constructors but never bit-blast, Tseitin-encode or call SAT — the
zero-solver-activity invariant is enforced by
``tests/analysis/test_lint_integration.py``.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator
from weakref import WeakKeyDictionary

from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import VerificationCondition, node_conditions
from repro.errors import AnalysisError, ReproError
from repro.symbolic import SymBV, exact_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.semantics import ResolvedConfig

#: Name prefix of the lint layer's probe variables.  Distinct from the
#: verification conditions' ``vc$`` prefix so probe terms can never alias a
#: condition's query variables.
LINT_PREFIX = "lint$"

#: Per-network memo shared by every :class:`LintTarget` over the same
#: :class:`AnnotatedNetwork` object.  Lint runs repeatedly on the same
#: network — every ``Session.run(lint=...)``, every sweep point, every CI
#: round — and everything a target computes (conditions, probe
#: applications, BCP results) is a pure function of the network built with
#: exact names, so re-deriving it per run would only re-execute the route
#: algebra to arrive at the identical hash-consed terms.  Weakly keyed, so
#: dropping a network drops its memo.
_TARGET_MEMO: "WeakKeyDictionary[AnnotatedNetwork, dict[str, dict]]" = WeakKeyDictionary()


class LintTarget:
    """One lint subject: an annotated network and optional resolved config.

    The target memoises per-node condition builds (including their
    failures, so a broken annotation is built — and reported — once, not
    once per pass) and the constant-folded truth value of each node's
    interface and property.
    """

    def __init__(
        self,
        annotated: AnnotatedNetwork,
        config: "ResolvedConfig | None" = None,
        name: str | None = None,
    ) -> None:
        self.annotated = annotated
        self.config = config
        self.name = name
        try:
            shared = _TARGET_MEMO.setdefault(annotated, {})
        except TypeError:  # un-weakref-able stand-ins (tests): private memo
            shared = {}
        self._shared = shared
        self._conditions: dict[str, tuple[str, object]] = self.memo("conditions")
        self._annotation_terms: dict[tuple[str, str], tuple[str, object]] = self.memo(
            "annotation_terms"
        )
        self._interface_values: dict[str, bool | None] = self.memo("interface_values")
        self._property_values: dict[str, bool | None] = self.memo("property_values")
        self._probe: tuple[object, SymBV] | None = None

    def memo(self, name: str) -> dict:
        """A named per-network memo dict shared across targets (see above).

        Passes may claim their own memo spaces (e.g. ``memo("demand")``)
        for results that are pure functions of the network's terms.
        """
        return self._shared.setdefault(name, {})

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.annotated.nodes

    def conditions(self, node: str) -> list[VerificationCondition]:
        """The node's three conditions.

        Raises the original :class:`ReproError` when the build fails; the
        outcome (value or error) is memoised either way.
        """
        cached = self._conditions.get(node)
        if cached is None:
            try:
                cached = ("ok", node_conditions(self.annotated, node))
            except ReproError as error:
                cached = ("error", error)
            self._conditions[node] = cached
        status, value = cached
        if status == "error":
            raise value  # type: ignore[misc]
        return value  # type: ignore[return-value]

    def annotation_term(self, node: str, kind: str):
        """``A(node)``/``P(node)`` applied to the shared canonical probe.

        Every node is probed with the *same* exact-named route and time
        variables, so two nodes' applications are term-identical
        (hash-consing) exactly when their annotations agree on a fully
        symbolic input — the cheap per-member identity check of the
        coverage pass.  Raises the original :class:`ReproError` when the
        application fails; the outcome is memoised either way.
        """
        key = (node, kind)
        cached = self._annotation_terms.get(key)
        if cached is None:
            annotation = (
                self.annotated.interface(node)
                if kind == "interface"
                else self.annotated.node_property(node)
            )
            try:
                cached = ("ok", annotation(*self.probe()).term)
            except ReproError as error:
                cached = ("error", error)
            self._annotation_terms[key] = cached
        status, value = cached
        if status == "error":
            raise value  # type: ignore[misc]
        return value

    def _annotation_value(
        self, node: str, kind: str, cache: dict[str, bool | None]
    ) -> bool | None:
        """Constant-fold an annotation at a fully symbolic route and time.

        Returns ``True``/``False`` when the smart constructors fold the
        application to a constant — i.e. the annotation is trivially
        true/false for *every* route and time — and ``None`` otherwise
        (including when applying the annotation raises; the sort pass
        reports that as TP001).
        """
        if node in cache:
            return cache[node]
        value: bool | None = None
        try:
            term = self.annotation_term(node, kind)
            if term.is_bool_const():
                value = term.bool_value()
        except ReproError:
            value = None
        cache[node] = value
        return value

    def probe(self):
        """The shared fully-symbolic (route, time) probe, built once.

        Exact-named, so re-creating a target for the same network yields the
        identical hash-consed variables; shared across all annotation
        applications of this target, so probing 2·n annotations builds the
        symbolic route value once, not 2·n times.
        """
        if self._probe is None:
            with exact_names():
                route = self.annotated.network.route_shape.fresh(f"{LINT_PREFIX}route")
                time = SymBV.fresh(self.annotated.time_width(), f"{LINT_PREFIX}time")
            self._probe = (route, time)
        return self._probe

    def interface_value(self, node: str) -> bool | None:
        """``True``/``False`` when ``A(node)`` folds to a constant, else ``None``."""
        return self._annotation_value(node, "interface", self._interface_values)

    def property_value(self, node: str) -> bool | None:
        """``True``/``False`` when ``P(node)`` folds to a constant, else ``None``."""
        return self._annotation_value(node, "property", self._property_values)


class AnalysisPass:
    """Base class of lint passes.  Subclasses set ``name`` and yield diagnostics."""

    name: ClassVar[str] = ""

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def default_passes() -> list[AnalysisPass]:
    """Fresh instances of the five built-in passes, in execution order.

    These run in ``lint_network``, the CLI ``lint`` subcommand and the CI
    self-lint.  Imported here rather than at module import: the pass modules
    import this one.
    """
    from repro.analysis.configlint import ConfigLintPass
    from repro.analysis.coverage import CoveragePass
    from repro.analysis.distance import DistancePass
    from repro.analysis.sortcheck import SortCheckPass
    from repro.analysis.vacuity import VacuityPass

    return [
        cls() for cls in (ConfigLintPass, CoveragePass, DistancePass, SortCheckPass, VacuityPass)
    ]


def run_passes(
    target: LintTarget, passes: Iterable[AnalysisPass] | None = None
) -> LintReport:
    """Execute ``passes`` (default: the built-in ones) over ``target``."""
    chosen = list(passes) if passes is not None else default_passes()
    started = _time.perf_counter()
    diagnostics: list[Diagnostic] = []
    for lint_pass in chosen:
        diagnostics.extend(lint_pass.run(target))
    return LintReport(
        diagnostics=tuple(diagnostics),
        passes=tuple(lint_pass.name for lint_pass in chosen),
        wall_time=_time.perf_counter() - started,
        target=target.name,
    )


def lint_network(
    annotated: AnnotatedNetwork,
    config: "ResolvedConfig | None" = None,
    name: str | None = None,
    passes: Iterable[AnalysisPass] | None = None,
) -> LintReport:
    """Lint one annotated network (and, when given, its resolved config)."""
    return run_passes(LintTarget(annotated, config=config, name=name), passes=passes)


def lint_benchmark(built: object, passes: Iterable[AnalysisPass] | None = None) -> LintReport:
    """Lint a registry :class:`~repro.networks.registry.BuiltBenchmark`.

    Config-backed benchmarks (the WAN family) expose their resolved
    configuration through ``built.raw.compiled.resolved``; it is picked up
    so the config-DSL pass runs on exactly what the compiler consumed.
    """
    annotated = getattr(built, "annotated", None)
    if not isinstance(annotated, AnnotatedNetwork):
        raise AnalysisError(
            f"cannot lint {type(built).__name__}: no AnnotatedNetwork under .annotated"
        )
    compiled = getattr(getattr(built, "raw", None), "compiled", None)
    config = getattr(compiled, "resolved", None)
    return lint_network(
        annotated, config=config, name=getattr(built, "name", None), passes=passes
    )
