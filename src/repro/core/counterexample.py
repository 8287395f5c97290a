"""Counterexample reporting for failed verification conditions.

When a condition is invalid the SMT solver produces a model; we evaluate the
relevant symbolic values (the time, the neighbour routes assumed from their
interfaces, the route computed at the node, the network's symbolic
variables) under that model and package them into a plain-data
:class:`Counterexample` that can be printed, asserted on in tests, or
returned across process boundaries by the parallel checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Counterexample:
    """A concrete witness that a verification condition does not hold."""

    node: str
    condition: str
    #: The concrete logical time at which the condition fails (if relevant).
    time: int | None = None
    #: Routes assumed at the in-neighbours (inductive condition only).
    neighbor_routes: dict[str, Any] = field(default_factory=dict)
    #: The route computed at / assumed for the node itself.
    route: Any = None
    #: Values of the network-level symbolic variables.
    symbolics: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """A human-readable multi-line description."""
        lines = [f"counterexample for the {self.condition} condition at node {self.node!r}:"]
        if self.time is not None:
            lines.append(f"  at time t = {self.time}")
        for neighbor, route in sorted(self.neighbor_routes.items()):
            lines.append(f"  neighbour {neighbor!r} sends {_render_route(route)}")
        if self.route is not None or self.condition != "inductive":
            lines.append(f"  node route: {_render_route(self.route)}")
        for name, value in sorted(self.symbolics.items()):
            lines.append(f"  symbolic {name!r} = {value!r}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def _render_route(route: Any) -> str:
    if route is None:
        return "∞ (no route)"
    if isinstance(route, dict):
        fields = ", ".join(f"{k}={v!r}" for k, v in route.items())
        return f"⟨{fields}⟩"
    return repr(route)

