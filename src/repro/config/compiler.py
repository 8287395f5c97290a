"""Compiler from policy-DSL configurations to verifiable network instances.

The compiler lowers a :class:`~repro.config.semantics.ResolvedConfig` into the
routing-algebra model used by the verifier:

* the declared communities become the finite community universe of a
  :func:`~repro.routing.bgp.bgp_route_family`;
* each ``policy-statement`` becomes a function over optional symbolic BGP
  routes (first-match term cascade, default reject);
* each BGP session (``router X { neighbor Y { import I; export E; } }``)
  contributes a directed edge ``Y → X`` whose transfer function composes Y's
  export policy towards X, the implicit AS-path increment, and X's import
  policy from Y; and
* ``announce prefix N`` statements define the initial routes of internal
  routers, while external routers (declared ``external`` or merely referenced)
  get fully symbolic initial announcements, optionally constrained by the
  caller.

This is the analogue of the paper's "convert the configuration files to
Timepiece's model by extracting the policy details using Batfish" step,
applied to our synthetic Internet2-style configurations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.config.ast import Action, MatchCondition, PolicyStatement, PolicyTerm
from repro.config.semantics import ResolvedConfig
from repro.errors import ConfigSemanticError
from repro.routing.algebra import Network, SymbolicVariable
from repro.routing.bgp import BgpRouteFamily, bgp_merge, bgp_route_family
from repro.routing.topology import Edge, Topology
from repro.symbolic import SymBV, SymBool, SymOption, all_of, ite_value

#: Route-field widths used for compiled WAN configurations.
WAN_WIDTHS = {
    "prefix_width": 8,
    "ad_width": 4,
    "lp_width": 8,
    "med_width": 4,
    "path_width": 5,
}

PolicyFunction = Callable[[SymOption], SymOption]


@dataclass
class CompiledConfig:
    """The output of the compiler."""

    network: Network
    family: BgpRouteFamily
    resolved: ResolvedConfig
    #: Compiled policy functions by name (exposed for unit testing).
    policies: dict[str, PolicyFunction]
    #: The symbolic initial announcements of external routers.
    external_announcements: dict[str, SymOption]
    #: The symbolic initial routes of internal routers, when requested.
    internal_announcements: dict[str, SymOption]

    @property
    def internal_nodes(self) -> tuple[str, ...]:
        return self.resolved.internal_routers

    @property
    def external_nodes(self) -> tuple[str, ...]:
        return self.resolved.external_routers


class PolicyCompiler:
    """Compiles one policy statement into a route-transforming function."""

    def __init__(self, resolved: ResolvedConfig, family: BgpRouteFamily) -> None:
        self._resolved = resolved
        self._family = family

    def compile(self, policy: PolicyStatement) -> PolicyFunction:
        terms = list(policy.terms)

        def apply(route: SymOption) -> SymOption:
            return self._evaluate_terms(route, terms)

        apply.__name__ = f"policy_{policy.name}"
        return apply

    # -- term cascade -------------------------------------------------------------

    def _evaluate_terms(self, route: SymOption, terms: list[PolicyTerm]) -> SymOption:
        rejected = self._family.route.none()
        if not terms:
            # Default action when no term matches: reject (Junos import default).
            return rejected
        term, rest = terms[0], terms[1:]
        matches = self._compile_matches(term.matches, route)
        outcome = self._apply_term(term, route)
        return ite_value(route.is_some & matches, outcome, self._evaluate_terms(route, rest))

    def _apply_term(self, term: PolicyTerm, route: SymOption) -> SymOption:
        terminal = term.terminal_action
        assert terminal is not None, "semantic analysis guarantees a terminal action"
        if terminal.kind == "reject":
            return self._family.route.none()
        transformed = route
        for action in term.actions:
            transformed = self._apply_action(action, transformed)
        return transformed

    def _compile_matches(self, matches: tuple[MatchCondition, ...], route: SymOption) -> SymBool:
        condition = SymBool.true()
        payload = route.payload
        for match in matches:
            if match.kind == "community":
                condition = condition & payload.communities.contains(match.argument)
            elif match.kind == "prefix":
                condition = condition & (payload.prefix == int(match.argument))
            elif match.kind == "prefix-list":
                prefixes = self._resolved.prefixes_in_list(match.argument)
                in_list = SymBool.false()
                for prefix in prefixes:
                    in_list = in_list | (payload.prefix == prefix)
                condition = condition & in_list
            else:
                raise ConfigSemanticError(f"unknown match kind {match.kind!r}")
        return condition

    def _apply_action(self, action: Action, route: SymOption) -> SymOption:
        if action.is_terminal:
            return route
        if action.kind == "set-lp":
            value = int(action.argument or 0)
            return route.map(
                lambda payload: payload.with_fields(lp=SymBV.constant(value, payload.lp.width))
            )
        if action.kind == "set-med":
            value = int(action.argument or 0)
            return route.map(
                lambda payload: payload.with_fields(med=SymBV.constant(value, payload.med.width))
            )
        if action.kind == "add-community":
            name = action.argument or ""
            return route.map(
                lambda payload: payload.with_fields(communities=payload.communities.add(name))
            )
        if action.kind == "remove-community":
            name = action.argument or ""
            return route.map(
                lambda payload: payload.with_fields(communities=payload.communities.remove(name))
            )
        if action.kind == "prepend":
            count = int(action.argument or 1)
            return route.map(
                lambda payload: payload.with_fields(
                    as_path_length=payload.as_path_length.saturating_add(count)
                )
            )
        raise ConfigSemanticError(f"unknown action kind {action.kind!r}")


def compile_config(
    resolved: ResolvedConfig,
    symbolic_internal_initials: bool = False,
    external_constraint: Callable[[SymOption], SymBool] | None = None,
    widths: dict[str, int] | None = None,
) -> CompiledConfig:
    """Lower a resolved configuration to a :class:`~repro.routing.algebra.Network`.

    ``symbolic_internal_initials`` gives every internal router an arbitrary
    (symbolic) initial route, as the BlockToExternal experiment requires ("if
    the internal nodes initially have any possible route").  Otherwise internal
    routers start from their ``announce`` statements (or no route).
    ``external_constraint`` restricts the symbolic announcements of external
    routers (e.g. "does not carry the BTE community").  Edges with the same
    ``(export, import)`` policy pair share one transfer callable.
    """
    family = bgp_route_family(
        communities=tuple(resolved.communities), **(widths or WAN_WIDTHS)
    )

    policy_compiler = PolicyCompiler(resolved, family)
    policies = {name: policy_compiler.compile(policy) for name, policy in resolved.policies.items()}

    topology = Topology(nodes=resolved.all_nodes)
    import_policy: dict[Edge, str | None] = {}
    export_policy: dict[Edge, str | None] = {}
    for router in resolved.routers.values():
        for neighbor in router.neighbors:
            # The session brings routes from the neighbour into this router...
            inbound: Edge = (neighbor.name, router.name)
            topology.add_edge(*inbound)
            import_policy[inbound] = neighbor.import_policy
            # ...and sends this router's routes to the neighbour.
            outbound: Edge = (router.name, neighbor.name)
            topology.add_edge(*outbound)
            export_policy[outbound] = neighbor.export_policy

    @functools.cache
    def transfer(exporter: str | None, importer: str | None) -> Callable[[SymOption], SymOption]:
        def apply(route: SymOption) -> SymOption:
            outgoing = policies[exporter](route) if exporter else route
            moved = outgoing.map(
                lambda payload: payload.with_fields(
                    as_path_length=payload.as_path_length.saturating_add(1)
                )
            )
            return policies[importer](moved) if importer else moved

        return apply

    def transfer_for(edge: Edge) -> Callable[[SymOption], SymOption]:
        return transfer(export_policy.get(edge), import_policy.get(edge))

    symbolics: list[SymbolicVariable] = []
    external_announcements: dict[str, SymOption] = {}
    internal_announcements: dict[str, SymOption] = {}

    for external in resolved.external_routers:
        announcement = family.route.fresh(f"announce.{external}")
        conjuncts = [family.route.constraint(announcement)]
        if external_constraint is not None:
            conjuncts.append(external_constraint(announcement))
        symbolics.append(
            SymbolicVariable(
                name=f"announce.{external}", value=announcement, constraint=all_of(conjuncts)
            )
        )
        external_announcements[external] = announcement

    if symbolic_internal_initials:
        for internal in resolved.internal_routers:
            announcement = family.route.fresh(f"initial.{internal}")
            symbolics.append(
                SymbolicVariable(
                    name=f"initial.{internal}",
                    value=announcement,
                    constraint=family.route.constraint(announcement),
                )
            )
            internal_announcements[internal] = announcement

    def initial(node: str) -> SymOption:
        if node in external_announcements:
            return external_announcements[node]
        if node in internal_announcements:
            return internal_announcements[node]
        router = resolved.routers.get(node)
        if router is not None and router.announced_prefixes:
            return family.route.some(
                family.default_announcement(prefix=router.announced_prefixes[0])
            )
        return family.route.none()

    network = Network(
        topology=topology,
        route_shape=family.route,
        initial_routes=initial,
        transfer_functions=transfer_for,
        merge=bgp_merge,
        symbolics=tuple(symbolics),
    )
    return CompiledConfig(
        network=network,
        family=family,
        resolved=resolved,
        policies=policies,
        external_announcements=external_announcements,
        internal_announcements=internal_announcements,
    )


def load_config(
    source: str,
    symbolic_internal_initials: bool = False,
    external_constraint: Callable[[SymOption], SymBool] | None = None,
    widths: dict[str, int] | None = None,
) -> CompiledConfig:
    """Parse, analyse and compile configuration text in one call."""
    from repro.config.parser import parse_config
    from repro.config.semantics import analyze

    return compile_config(
        analyze(parse_config(source)),
        symbolic_internal_initials=symbolic_internal_initials,
        external_constraint=external_constraint,
        widths=widths,
    )
