"""Seeded annotation/config mutations for lint self-tests.

The lint self-tests prove two directions: every registry benchmark lints
*clean*, and lint actually *detects* the classic mistakes — which needs
networks with the mistakes planted.  These helpers plant exactly the three
documented mutations (see ``docs/DIAGNOSTICS.md``):

* :func:`lower_witness_time` — an interface asserting a route one step
  before it can arrive (TP004, the §3 annotation bug);
* :func:`make_interface_vacuous` — an ``always_true`` interface under a
  non-trivial property (TP002, vacuous induction);
* :func:`add_unused_community` — a community declaration nothing references
  (TP010).

Each mutation leaves the rest of the network untouched, so a full SAT run
on the mutated network corroborates the lint verdict (the first two fail,
the third still passes — it is hygiene, not correctness).  The annotation
mutations copy through :meth:`AnnotatedNetwork.with_interface`, which drops
the builder's symmetry markers: the mutated node no longer belongs to the
class a role hint would file it under.
"""

from __future__ import annotations

from repro.analysis.distance import origin_distances
from repro.core.annotations import AnnotatedNetwork
from repro.core.temporal import always_true, finally_, globally
from repro.errors import AnalysisError


def lower_witness_time(
    annotated: AnnotatedNetwork, node: str | None = None
) -> tuple[AnnotatedNetwork, str, int]:
    """Plant the §3 bug: demand a route one step before it can arrive.

    Picks ``node`` (default: the first node at distance >= 2 from every
    route origin, in selection order) and replaces its interface with
    ``F^{d-1}(G(has_route))`` where ``d`` is its origin distance — an
    interface that asserts a route at time ``d - 1``, one hop too early.
    Returns the mutated network, the node, and its distance.
    """
    distances = origin_distances(annotated.network)
    if distances is None:
        raise AnalysisError("cannot place a witness-time mutation: routes are not option-shaped")
    if node is None:
        for candidate in annotated.nodes:
            distance = distances[candidate]
            if distance is not None and distance >= 2:
                node = candidate
                break
        else:
            raise AnalysisError(
                "cannot place a witness-time mutation: no node lies at "
                "distance >= 2 from every route origin"
            )
    distance = distances[node]
    if distance is None or distance < 2:
        raise AnalysisError(
            f"cannot place a witness-time mutation at {node!r}: its origin "
            f"distance {distance!r} leaves no earlier time to demand a route at"
        )
    bad_interface = finally_(
        distance - 1,
        globally(lambda route: route.is_some, description="G(has route)"),
        description=f"F^{distance - 1}(G(has route)) [mutated: true distance {distance}]",
    )
    return annotated.with_interface(node, bad_interface), node, distance


def make_interface_vacuous(
    annotated: AnnotatedNetwork, node: str | None = None
) -> tuple[AnnotatedNetwork, str]:
    """Plant a vacuously-true interface under a non-trivial property.

    Picks ``node`` (default: the first node in selection order whose
    property is non-trivial) and replaces its interface with ``G(true)`` —
    induction through it proves nothing, so the safety condition cannot
    hold unless the property is itself trivial.
    """
    if node is None:
        from repro.analysis.passes import LintTarget

        probe = LintTarget(annotated)
        for candidate in annotated.nodes:
            if probe.property_value(candidate) is not True:
                node = candidate
                break
        else:
            raise AnalysisError(
                "cannot place a vacuous-interface mutation: every node's "
                "property is already trivially true"
            )
    return annotated.with_interface(node, always_true()), node


def add_unused_community(
    config_text: str, name: str = "LINT-UNUSED", value: str = "65535:9999"
) -> str:
    """Append a community declaration no policy references."""
    if f"community {name} " in config_text:
        raise AnalysisError(f"community {name!r} is already declared in this config")
    suffix = "" if config_text.endswith("\n") else "\n"
    return f"{config_text}{suffix}community {name} members {value};\n"
