"""Encoding of the three verification conditions (Figure 12, §4).

For every node ``v`` the modular checker discharges:

* the **initial** condition  — ``I_v ∈ A(v)(0)``;
* the **inductive** condition — for all times ``t`` and all neighbour routes
  drawn from the neighbours' interfaces at ``t``, the route ``v`` computes is
  in ``A(v)(t+1)``; and
* the **safety** condition  — ``A(v)(t) ⊆ P(v)(t)`` for all ``t``.

Each condition is encoded as a pair (assumptions, goal) of symbolic booleans
over a fresh symbolic time variable, fresh per-neighbour routes and the
network's own symbolic variables.  Validity of ``assumptions ⟹ goal`` is then
decided by the SMT backend; an invalid condition yields a concrete
:class:`~repro.core.counterexample.Counterexample`.

The bounded-delay extension of §4 is supported by the ``delay`` parameter of
the inductive condition: neighbour routes may be drawn from any of the last
``delay + 1`` time steps and the computed route must satisfy the interface
``delay + 1`` steps later.

**Positional route names.**  The symbolic time and route variables of a
condition are named deterministically instead of drawing globally fresh
names: the time is ``vc$time``, the route from the ``i``-th in-neighbour (in
the topology's deterministic predecessor order) is ``vc$route.%i``, and the
node's own route in the safety condition is ``vc$route.%self`` (see
:data:`VC_PREFIX`).  Each condition is discharged as its own validity query,
so names only need to be unique *within* one query, and a positional name is
an injective renaming of that query's variables.  Positional names erase
node identity, so two nodes whose conditions differ only by a node renaming
(e.g. every edge switch of a non-destination fattree pod) produce
*term-identical* conditions, and shared structure (the network's symbolic
constraints, re-checks of the same node, the ``updated_route`` term)
hash-conses across conditions and nodes.  Term identity is what the symmetry
layer (:mod:`repro.core.symmetry`) keys equivalence classes on, what the
delta store's fingerprints digest, and what lets the incremental SMT backend
(:mod:`repro.smt.incremental`) bit-blast and CNF-encode every distinct
subterm once per process instead of once per query.  A precondition that
splits into components (conjuncts grouped by shared variables) is *sliced* by
:func:`canonical_node_conditions`, which builds a condition without it and
joins only the components it shares a variable with; a symbolic's variables
are named ``vc$symbolic.%i.j:<sort>`` (its order of first appearance, their
position in its value): the WAN's peers pose one query.  Dropping conjuncts
weakens the assumptions, so a sliced pass is a raw pass whatever the
precondition; a sliced failure is a candidate the raw conditions decide (they
hold vacuously iff a dropped component is unsatisfiable).

**Construction costs distinct shapes, not nodes.**  A node's conditions are
assembled from memoised parts (:func:`node_policy`, :func:`apply_annotation`):
the interned query routes with their well-formedness constraints, the merge
fold of :meth:`~repro.routing.algebra.Network.updated_route` over each
in-edge's transfer of its query route, and each annotation applied to a route
at a time.  Each part is evaluated once per distinct key, so the isomorphic
nodes of a fattree share one merge fold and one set of constraints however
many of them there are, a WAN evaluates one transfer per policy pair and query
route, and a node's canonical conditions are themselves memoised
(:func:`canonical_node_conditions`), once for the partition, the checker and
the fingerprint layer.  Soundness rests on one assumption: annotations,
transfer functions and merge functions are *pure term builders*, whose result
is a function of the symbolic values they are given and, for annotations and
initial routes, of the active destination numbering
(:mod:`repro.core.numbering`), which the policy and application memos key on.
A merge fold is keyed on the initial route's term ids and, per in-edge, on the
identities of the transfer callable and the interned query route, which alone
key that edge's transfer (so that memo, like the fold, assumes a transfer
reads no numbering); the merge callable is fixed by the ``Network`` the memos
are weak on.  Under purity, equal keys fold to the same terms.  Every object
whose ``id`` enters a key is held by the memo entry, so an ``id`` cannot be
reused while its entry lives, and an edited policy is a new ``Network`` (or a
new callable) and misses.
"""

from __future__ import annotations

import time as _time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any

from repro import smt
from repro.core.annotations import AnnotatedNetwork
from repro.core.counterexample import Counterexample
from repro.core.numbering import active_numbering, destination_numbering
from repro.core.results import ConditionResult
from repro.errors import SolverError, VerificationError
from repro.smt.terms import OP_AND, OP_EQ, OP_VAR, Term, make_term
from repro.symbolic import (
    SymBV,
    SymBool,
    SymEnum,
    SymOption,
    SymRecord,
    SymSet,
    all_of,
    any_of,
    exact_names,
)

INITIAL = "initial"
INDUCTIVE = "inductive"
SAFETY = "safety"

CONDITION_KINDS = (INITIAL, INDUCTIVE, SAFETY)

#: Name prefix reserved for the deterministically named per-query variables
#: of the verification conditions.  Network models must not use it for their
#: own symbolic variables; :func:`_network_symbolics` enforces this.
VC_PREFIX = "vc$"


def _query_time(width: int) -> SymBV:
    """The symbolic time variable of a condition (same name in every query)."""
    with exact_names():
        return SymBV.fresh(width, f"{VC_PREFIX}time")


#: Route shape → variable name → ``(route, shape.constraint(route))`` for the
#: one query route of that name: interning bounds the routes to max-in-degree
#: + 1 however many nodes read them, builds each well-formedness constraint
#: once, and gives the memos below an identity to key on.
_QUERY_ROUTES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _query_part(network: Any, position: int | None = None) -> tuple[Any, SymBool]:
    """The query route from predecessor ``position`` (or the node's own), with its shape."""
    suffix = "%self" if position is None else f"%{position}"
    shape = network.route_shape
    routes = _QUERY_ROUTES.setdefault(shape, {})
    part = routes.get(suffix)
    if part is None:
        with exact_names():
            route = shape.fresh(f"{VC_PREFIX}route.{suffix}")
        part = routes[suffix] = (route, shape.constraint(route))
    return part


@dataclass(frozen=True, eq=False)
class NodePolicy:
    """Everything in one node's conditions that does not depend on annotations."""

    initial: Any
    own_route: Any
    own_shape: SymBool
    #: In-neighbour → its query route, in predecessor order.
    neighbor_routes: dict[str, Any]
    neighbor_shapes: tuple[SymBool, ...]
    #: ``network.updated_route`` over ``neighbor_routes`` (shared by every node
    #: of the network with the same merge-fold key, see :func:`_merge_fold`).
    updated: Any


#: ``Network`` → ``(node, numbering)`` → :class:`NodePolicy`.  A network's
#: policy is fixed at construction (an edited policy is a new ``Network``), so
#: each node's is evaluated once per destination numbering and shared by its
#: conditions, the lint passes and every later run over the same network.
_NODE_POLICIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Annotation object → ``(id(route), time term_id, numbering)`` → ``(route, application)``.
#: The entry holds ``route``, so the ``id`` cannot be reused while it lives.
_APPLICATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: ``Network`` → merge-fold key → ``(held, updated)``: the merge fold of
#: :meth:`Network.updated_route`, once per distinct key (:func:`_merge_fold`), and
#: ``Network`` → ``(id(transfer), id(route))`` → ``(transfer, route, transfer(route))``.
#: Entries keep every object whose ``id`` is in their key alive, so no ``id``
#: can be reused while the entry lives.
_MERGE_FOLDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TRANSFERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Hit counts of the memos above and of :func:`canonical_node_conditions`
#: (:func:`memo_statistics` reports them).
_MEMO_HITS = {"node_policies": 0, "applications": 0, "merge_folds": 0, "canonical_conditions": 0}


def _term_key(value: Any) -> Any:
    """A hashable key that two symbolic values share iff they are the same value.

    Values are compared by kind, composite structure and the ``term_id`` of
    every component term; an enum type by identity (what enum comparisons
    test), so the caller must keep ``value`` alive alongside the key.
    """
    if isinstance(value, (SymBool, SymBV)):
        return value.term.term_id
    if isinstance(value, SymEnum):
        return ("enum", id(value.enum_type), value.index.term.term_id)
    if isinstance(value, SymOption):
        return ("option", _term_key(value.is_some), _term_key(value.payload))
    if isinstance(value, SymSet):
        return ("set",) + tuple((name, _term_key(value.contains(name))) for name in value.universe)
    if isinstance(value, SymRecord):
        return ("record", value.type_name) + tuple((name, _term_key(field)) for name, field in value)
    return ("literal", type(value), value)


def _merge_fold(network: Any, node: str, initial: Any, routes: dict[str, Any]) -> Any:
    """``network.updated_route(node, routes)``, evaluated once per distinct key.

    ``initial`` is ``network.initial_route(node)``.  The key is its
    :func:`_term_key` and, per in-edge in predecessor order, the identity of
    the edge's transfer callable and of its interned query route (the key of
    that edge's transfer in ``_TRANSFERS``); the merge callable is the network's
    own.  Under the purity assumption (module docstring) the fold is a function
    of exactly these, so two nodes with equal keys fold to the same terms.
    """
    transfers = tuple(network.transfer_function((neighbor, node)) for neighbor in routes)
    edges = tuple(zip(map(id, transfers), map(id, routes.values())))
    key = (_term_key(initial), edges)
    folds = _MERGE_FOLDS.setdefault(network, {})
    cached = folds.get(key)
    if cached is not None:
        _MEMO_HITS["merge_folds"] += 1
        return cached[1]
    applied = _TRANSFERS.setdefault(network, {})
    for edge, transfer, route in zip(edges, transfers, routes.values()):
        if edge not in applied:
            applied[edge] = (transfer, route, transfer(route))
    updated = network.merge_all([initial, *(applied[edge][2] for edge in edges)])
    folds[key] = ((initial, transfers, tuple(routes.values())), updated)
    return updated


def node_policy(network: Any, node: str) -> NodePolicy:
    """The memoised :class:`NodePolicy` of ``node``."""
    policies = _NODE_POLICIES.setdefault(network, {})
    key = (node, active_numbering())
    policy = policies.get(key)
    if policy is not None:
        _MEMO_HITS["node_policies"] += 1
        return policy
    own_route, own_shape = _query_part(network)
    predecessors = network.topology.predecessors(node)
    parts = [_query_part(network, position) for position in range(len(predecessors))]
    routes = dict(zip(predecessors, (route for route, _ in parts)))
    initial = network.initial_route(node)
    policy = policies[key] = NodePolicy(
        initial=initial,
        own_route=own_route,
        own_shape=own_shape,
        neighbor_routes=routes,
        neighbor_shapes=tuple(shape for _, shape in parts),
        updated=_merge_fold(network, node, initial, routes),
    )
    return policy


def apply_annotation(predicate: Any, route: Any, time: SymBV) -> SymBool:
    """``predicate(route, time)``, evaluated once per annotation *object*.

    ``route`` must be long-lived (an interned query route or a memoised
    policy's route): the memo keeps it alive.
    """
    applications = _APPLICATIONS.setdefault(predicate, {})
    key = (id(route), time.term.term_id, active_numbering())
    cached = applications.get(key)
    if cached is None:
        cached = applications[key] = (route, predicate(route, time))
    else:
        _MEMO_HITS["applications"] += 1
    return cached[1]


@dataclass(frozen=True)
class VerificationCondition:
    """One encoded verification condition, ready to hand to the SMT backend."""

    node: str
    kind: str
    assumptions: SymBool
    goal: SymBool
    #: The symbolic time variable, when the condition quantifies over time.
    time: SymBV | None = None
    #: For counterexample reporting: offset added to the reported time
    #: (the inductive condition fails *at* ``t + 1`` when assuming time ``t``).
    reported_time_offset: int = 0
    #: Fresh neighbour routes assumed from the neighbours' interfaces.
    neighbor_routes: dict[str, Any] = field(default_factory=dict)
    #: The route computed at (or assumed for) the node itself.
    node_route: Any = None
    #: The network's symbolic variables (name -> symbolic value).
    symbolics: dict[str, Any] = field(default_factory=dict)
    #: The whole network precondition, when ``assumptions`` keep only a slice
    #: of it (:func:`canonical_node_conditions`); ``None`` otherwise.
    sliced_from: SymBool | None = None

    def fingerprint(self) -> str:
        """Stable, process-independent content hash of this condition.

        Derived from the term structure of the ``(assumptions, goal)`` pair
        (see :mod:`repro.core.fingerprint`) — never from interning counters
        or Python object hashes — so the same condition built in another
        process (any ``PYTHONHASHSEED``) fingerprints identically.  Route
        names are positional, so isomorphic nodes share the hash; the delta
        re-verification store keys verdicts by it.
        """
        from repro.core.fingerprint import condition_fingerprint

        return condition_fingerprint(self)

    def check(self, solver: Any | None = None) -> ConditionResult:
        """Decide this condition and package the outcome.

        ``solver`` optionally names a reusable SMT backend (typically the
        per-process :func:`repro.smt.process_solver`); the query then runs in
        a push/pop frame on it, reusing encoded structure and learned clauses
        from earlier conditions.  A failing answer's model is evaluated on
        the condition's own terms; one that does not refute it raises
        :class:`~repro.errors.SolverError` instead of becoming a verdict.
        """
        started = _time.perf_counter()
        proof = smt.prove(self.goal.term, self.assumptions.term, solver=solver)
        elapsed = _time.perf_counter() - started
        if proof.valid:
            return ConditionResult(self.node, self.kind, True, elapsed)
        model = proof.counterexample
        assert model is not None
        # Checked by concrete evaluation, independent of the encoders and the
        # SAT core: a model that does not refute the query is no verdict.
        if (model.evaluate(self.assumptions.term), model.evaluate(self.goal.term)) != (True, False):
            raise SolverError(
                f"the solver's model for the {self.kind} condition of {self.node!r} "
                "does not satisfy its assumptions and falsify its goal"
            )
        counterexample = Counterexample(
            node=self.node,
            condition=self.kind,
            time=(
                int(self.time.eval(model)) + self.reported_time_offset
                if self.time is not None
                else (0 if self.kind == INITIAL else None)
            ),
            neighbor_routes={
                neighbor: route.eval(model) for neighbor, route in self.neighbor_routes.items()
            },
            route=self.node_route.eval(model) if self.node_route is not None else None,
            symbolics={name: value.eval(model) for name, value in self.symbolics.items()},
        )
        return ConditionResult(self.node, self.kind, False, elapsed, counterexample)


#: Per-network memo of :func:`_network_symbolics`.  A :class:`Network`'s
#: symbolics are fixed at construction, so the answer is too; weak keys let a
#: network that goes away take its entry with it.
_NETWORK_SYMBOLICS: weakref.WeakKeyDictionary[Any, tuple[SymBool, dict[str, Any]]] = (
    weakref.WeakKeyDictionary()
)


def _network_symbolics(annotated: AnnotatedNetwork) -> tuple[SymBool, dict[str, Any]]:
    """The conjunction of symbolic-variable preconditions and the value map.

    Computed once per network and shared, read-only, by every condition built
    from it.  A network with a reserved-prefix name is never memoised, so it
    raises on every call.
    """
    network = annotated.network
    cached = _NETWORK_SYMBOLICS.get(network)
    if cached is not None:
        return cached
    reserved = [
        symbolic.name for symbolic in network.symbolics if symbolic.name.startswith(VC_PREFIX)
    ]
    if reserved:
        raise VerificationError(
            f"symbolic variable names {reserved} use the reserved prefix "
            f"{VC_PREFIX!r}; it would alias the verification conditions' "
            "query variables and corrupt verdicts"
        )
    assumptions = network.symbolic_constraints()
    values = {symbolic.name: symbolic.value for symbolic in network.symbolics}
    _NETWORK_SYMBOLICS[network] = (assumptions, values)
    return assumptions, values


#: ``Network`` → its :func:`_precondition_slices`.
_PRECONDITION_SLICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _value_variables(value: Any) -> list[str]:
    """The variable names of a symbolic value, in structural order."""
    if isinstance(value, (SymBool, SymBV)):
        return list(smt.free_variables(value.term))
    if isinstance(value, SymEnum):
        return list(smt.free_variables(value.index.term))
    if isinstance(value, SymOption):
        return _value_variables(value.is_some) + _value_variables(value.payload)
    if isinstance(value, SymSet):
        return [n for name in value.universe for n in _value_variables(value.contains(name))]
    if isinstance(value, SymRecord):
        return [name for _, part in value for name in _value_variables(part)]
    return []


def _precondition_slices(network: Any) -> tuple[dict, dict, dict] | None:
    """Once per network: ``None`` below two precondition components, else conjunct ``term_id``
    and variable name → component (union-find over shared names), a symbolic's variable →
    ``(symbolic index, position in its value)``, component → ``(position, conjunct)`` pairs."""
    if network in _PRECONDITION_SLICES:
        return _PRECONDITION_SLICES[network]
    precondition = network.symbolic_constraints().term
    conjuncts = precondition.args if precondition.op == OP_AND else ()
    roots: dict[int | str, int | str] = {}

    def find(key: int | str) -> int | str:
        while roots.setdefault(key, key) != key:
            roots[key] = key = roots[roots[key]]
        return key

    for conjunct in conjuncts:
        for name in smt.free_variables(conjunct):
            roots[find(name)] = find(conjunct.term_id)
    slices = None
    if len({find(conjunct.term_id) for conjunct in conjuncts}) > 1:
        positions = {
            name: (index, position)
            for index, symbolic in enumerate(network.symbolics)
            for position, name in enumerate(dict.fromkeys(_value_variables(symbolic.value)))
        }
        members: dict[int | str, list] = {}
        for position, conjunct in enumerate(conjuncts):
            members.setdefault(find(conjunct.term_id), []).append((position, conjunct))
        slices = ({key: find(key) for key in roots}, positions, members)
    _PRECONDITION_SLICES[network] = slices
    return slices


def _sliced(
    condition: VerificationCondition, slices: tuple[dict, dict, dict], whole: SymBool
) -> VerificationCondition:
    """``condition`` (built unjoined) and the components of ``whole`` it touches, joined and
    renamed (module docstring) by one memoised walk, left to right, over its assumptions, its
    goal, then those components; an assumption in ``whole`` stays iff its component does."""
    components, positions, members = slices
    renamed: dict[int, Term] = {}
    touched: set[int | str | None] = set()
    order: dict[int, int] = {}

    def substitute(root: Term) -> Term:
        stack = [root]
        while stack:
            term = stack[-1]
            pending = [arg for arg in term.args if arg.term_id not in renamed]
            if pending:
                stack.extend(reversed(pending))
                continue
            if stack.pop().term_id in renamed:
                continue
            new = term
            if term.op == OP_VAR:
                touched.add(components.get(term.payload))
                place = positions.get(term.payload)
                if place is not None:
                    index = order.setdefault(place[0], len(order))
                    name = f"{VC_PREFIX}symbolic.%{index}.{place[1]}:{term.sort!r}"
                    new = make_term(OP_VAR, (), name, term.sort)
            elif any(renamed[arg.term_id] is not arg for arg in term.args):
                args = tuple(renamed[arg.term_id] for arg in term.args)
                if term.op == OP_EQ:  # its sides go in interning order
                    new = smt.eq(*args)
                else:
                    new = make_term(term.op, args, term.payload, term.sort)
            renamed[term.term_id] = new
        return renamed[root.term_id]

    assumptions = condition.assumptions.term
    conjuncts = assumptions.args if assumptions.op == OP_AND else (assumptions,)
    others = [substitute(c) for c in conjuncts if c.term_id not in components]
    goal = substitute(condition.goal.term)
    kept = sorted(pair for root in touched for pair in members.get(root, ()))
    assumptions = SymBool(smt.and_(*(substitute(conjunct) for _, conjunct in kept), *others))
    return replace(condition, assumptions=assumptions, goal=SymBool(goal), sliced_from=whole)


def initial_condition(
    annotated: AnnotatedNetwork, node: str, joined: bool = True
) -> VerificationCondition:
    """``I_v ∈ A(v)(0)`` (equation 5)."""
    width = annotated.time_width()
    assumptions, symbolics = _network_symbolics(annotated)
    initial_route = node_policy(annotated.network, node).initial
    zero = SymBV.constant(0, width)
    goal = apply_annotation(annotated.interface(node), initial_route, zero)
    return VerificationCondition(
        node=node,
        kind=INITIAL,
        assumptions=assumptions if joined else SymBool.true(),
        goal=goal,
        node_route=initial_route,
        symbolics=symbolics,
    )


def inductive_condition(
    annotated: AnnotatedNetwork, node: str, delay: int = 0, joined: bool = True
) -> VerificationCondition:
    """The inductive condition (equation 6), optionally with bounded delay."""
    if delay < 0:
        raise VerificationError(f"delay must be non-negative, got {delay}")
    width = annotated.time_width(delay)
    precondition, symbolics = _network_symbolics(annotated)

    time_variable = _query_time(width)
    # Keep t small enough that t + delay + 1 cannot wrap around.  Because every
    # annotation is constant beyond its largest witness time, this bound loses
    # no generality (see DESIGN.md §5).
    max_time = (1 << width) - 1
    # Conjuncts are collected and joined once: the precondition has one
    # conjunct per symbolic, and `acc & part` would re-flatten it per part.
    conjuncts = [precondition if joined else True, time_variable <= max_time - delay - 1]

    policy = node_policy(annotated.network, node)
    neighbor_routes = policy.neighbor_routes
    # With delay d, the route may have been sent at any of t, t+1, ..., t+d.
    sent_at = [time_variable + step for step in range(delay + 1)]
    for (neighbor, route), shape in zip(neighbor_routes.items(), policy.neighbor_shapes):
        conjuncts.append(shape)
        interface = annotated.interface(neighbor)
        sent = [apply_annotation(interface, route, time) for time in sent_at]
        conjuncts.append(sent[0] if delay == 0 else any_of(sent))
    assumptions = all_of(conjuncts)

    new_route = policy.updated
    goal = apply_annotation(annotated.interface(node), new_route, time_variable + (delay + 1))

    return VerificationCondition(
        node=node,
        kind=INDUCTIVE,
        assumptions=assumptions,
        goal=goal,
        time=time_variable,
        reported_time_offset=delay + 1,
        neighbor_routes=neighbor_routes,
        node_route=new_route,
        symbolics=symbolics,
    )


def safety_condition(
    annotated: AnnotatedNetwork, node: str, joined: bool = True
) -> VerificationCondition:
    """``A(v)(t) ⊆ P(v)(t)`` for all times ``t`` (equation 7)."""
    width = annotated.time_width()
    precondition, symbolics = _network_symbolics(annotated)

    time_variable = _query_time(width)
    policy = node_policy(annotated.network, node)
    route = policy.own_route
    assumptions = all_of(
        [
            precondition if joined else True,
            policy.own_shape,
            apply_annotation(annotated.interface(node), route, time_variable),
        ]
    )
    goal = apply_annotation(annotated.node_property(node), route, time_variable)

    return VerificationCondition(
        node=node,
        kind=SAFETY,
        assumptions=assumptions,
        goal=goal,
        time=time_variable,
        node_route=route,
        symbolics=symbolics,
    )


def node_conditions(
    annotated: AnnotatedNetwork, node: str, delay: int = 0, joined: bool = True
) -> list[VerificationCondition]:
    """All three verification conditions for ``node``, with the precondition iff ``joined``."""
    return [
        initial_condition(annotated, node, joined),
        inductive_condition(annotated, node, delay, joined),
        safety_condition(annotated, node, joined),
    ]


#: ``Network`` → memo key → ``(held, conditions)``: the memo of
#: :func:`canonical_node_conditions`.  ``held`` keeps every annotation whose
#: ``id`` is in the key alive.
_CANONICAL_CONDITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def canonical_node_conditions(
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> tuple[VerificationCondition, ...]:
    """``node``'s conditions built in its own destination numbering ``π_node``.

    ``π_node`` is :meth:`AnnotatedNetwork.destination_numbering`, active for
    the build (:mod:`repro.core.numbering`), so isomorphic nodes build the
    identical hash-consed terms; where it is ``None`` (no marker, or a read
    object the marker does not vouch for) these are :func:`node_conditions`.
    Soundness: the vouched objects write every ``dest == k`` atom in the
    active numbering, and a bijection of ``[0, size)`` maps a query over
    those atoms and ``dest < size`` onto an equally valid one, so these
    conditions hold iff the raw ones do; a ``π_node`` that is not a symmetry
    of the network only loses sharing.  Then :func:`_sliced`, if the
    precondition splits (each condition's ``sliced_from`` says so).  Payloads
    (routes, symbolics) are in ``π_node`` and not renamed: counterexamples
    come from :func:`node_conditions`.

    The one build the partition, the checker and the fingerprint layer read,
    memoised per ``Network`` (weakly) on what the builders read: the node,
    ``delay``, both time widths, ``π_node`` and the identities of the node's
    interface, its property and each predecessor's interface.  The policy is
    the ``Network``'s, so under purity (module docstring) equal keys build
    equal conditions.  The entry holds every object whose ``id`` is in its
    key, and an edit is a new interface object (or ``Network``) and misses.
    """
    network = annotated.network
    interface = annotated.interface(node)
    node_property = annotated.node_property(node)
    sent = tuple(map(annotated.interface, network.topology.predecessors(node)))
    numbering = annotated.destination_numbering(node)
    widths = (annotated.time_width(), annotated.time_width(delay))
    key = (node, delay, widths, numbering, id(interface), id(node_property), tuple(map(id, sent)))
    memo = _CANONICAL_CONDITIONS.setdefault(network, {})
    cached = memo.get(key)
    if cached is not None:
        _MEMO_HITS["canonical_conditions"] += 1
        return cached[1]
    slices = _precondition_slices(network)
    with destination_numbering(numbering):
        conditions = tuple(node_conditions(annotated, node, delay=delay, joined=slices is None))
    if slices is not None:
        conditions = tuple(_sliced(vc, slices, network.symbolic_constraints()) for vc in conditions)
    memo[key] = ((interface, node_property, sent), conditions)
    return conditions


#: Every memo of this module, weak on its owner.
_MEMOS: tuple[weakref.WeakKeyDictionary, ...] = (
    _QUERY_ROUTES, _NODE_POLICIES, _APPLICATIONS, _MERGE_FOLDS, _TRANSFERS,
    _NETWORK_SYMBOLICS, _PRECONDITION_SLICES, _CANONICAL_CONDITIONS,
)


def clear_memos() -> None:
    """Drop every memo of this module and zero its hit counts (tests and benchmarks)."""
    for memo in _MEMOS:
        memo.clear()
    for name in _MEMO_HITS:
        _MEMO_HITS[name] = 0


def memo_statistics() -> dict[str, int]:
    """Entry and hit counts of this module's memos.

    A ``canonical_condition_hits`` is a :func:`canonical_node_conditions`
    call that built nothing; ``merge_folds`` counts the distinct merge folds
    a network's policies were built from, and a ``merge_fold_hits`` is a
    node whose fold another node already evaluated.  ``transfers`` counts transfer evaluations.
    """
    return {
        "canonical_conditions": sum(len(entries) for entries in _CANONICAL_CONDITIONS.values()),
        "canonical_condition_hits": _MEMO_HITS["canonical_conditions"],
        "query_routes": sum(len(routes) for routes in _QUERY_ROUTES.values()),
        "node_policies": sum(len(policies) for policies in _NODE_POLICIES.values()),
        "node_policy_hits": _MEMO_HITS["node_policies"],
        "merge_folds": sum(len(folds) for folds in _MERGE_FOLDS.values()),
        "merge_fold_hits": _MEMO_HITS["merge_folds"],
        "transfers": sum(len(entries) for entries in _TRANSFERS.values()),
        "applications": sum(len(entries) for entries in _APPLICATIONS.values()),
        "application_hits": _MEMO_HITS["applications"],
    }
