"""TP007/TP008: annotation coverage notes and symmetry-hint hygiene.

TP007 is an *info* note: a node whose interface **and** property are both
trivially true is completely unconstrained.  That is often deliberate —
benchmark externals and the WAN's internal routers are annotated
``G(true)``/``G(true)`` on purpose — so the note exists for coverage
audits, not to dirty a report.

TP008 is the spot-check blind-spot warning: when a builder attaches a
``symmetry_key`` hint, the symmetry-aware checker verifies *one member* per
class and propagates its verdicts to the rest.  If two nodes share a hint
key but their canonical interfaces/properties are not term-identical, the
propagated verdicts silently cover annotations that were never discharged.
The full checker would reject such a partition at run time
(:func:`repro.core.symmetry.partition_nodes` cross-checks in-degrees); this
pass reports the precise mismatch before any run, by applying every
member's interface and property to the shared canonical probe and comparing
the resulting terms (hash-consing makes that an identity check, a few
microseconds per member — the deep passes rebuild full conditions only for
class representatives, see ``LintTarget.deep_nodes``).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget
from repro.errors import ReproError


def _annotation_signature(target: LintTarget, node: str) -> tuple | None:
    """The node's canonical interface/property application terms.

    ``None`` when either application raises (reported as TP001 by the sort
    pass, and never equal to any healthy signature so the mismatch still
    surfaces).
    """
    try:
        return (
            target.annotation_term(node, "interface").term_id,
            target.annotation_term(node, "property").term_id,
        )
    except ReproError:
        return None


class CoveragePass(AnalysisPass):
    """Note unconstrained nodes; flag inconsistent symmetry-hint classes."""

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

        key_of = target.annotated.symmetry_key
        if key_of is None:
            return
        groups: dict[object, list[str]] = {}
        for node in target.nodes:
            key = key_of(node)
            if key is not None:
                groups.setdefault(key, []).append(node)
        for key, members in groups.items():
            if len(members) < 2:
                continue
            representative = members[0]
            expected = _annotation_signature(target, representative)
            mismatched = sorted(
                member
                for member in members[1:]
                if _annotation_signature(target, member) != expected
            )
            if mismatched:
                yield diagnostic(
                    "TP008",
                    f"symmetry class {key!r} is inconsistent: member(s) "
                    f"{mismatched} have canonical interface/property "
                    f"applications that differ from representative "
                    f"{representative!r}; spot-check verification would "
                    "propagate verdicts these members never earned",
                    node=representative,
                )
