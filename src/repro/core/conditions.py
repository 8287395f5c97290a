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

**Deterministic query-scoped names.**  The symbolic time and route variables
of a condition are named deterministically (``vc$time``, ``vc$route.<node>``
— see :data:`VC_PREFIX`) instead of drawing globally fresh names.  Each
condition is discharged as its own validity query, so names only need to be
unique *within* one query — and deterministic names make the shared
structure of different conditions (the per-sender interface blocks, the
network's symbolic constraints, re-checks of the same node) hash-cons to
*identical* terms.  That is what lets the incremental SMT backend
(:mod:`repro.smt.incremental`) bit-blast and CNF-encode every distinct
subterm once per process instead of once per query.

**Class-canonical naming.**  The ``naming`` parameter widens the scheme.
With the default ``naming="sender"`` a neighbour's route is named after the
node that sends it, which shares the sender's interface block across every
receiver.  With ``naming="class"`` routes are instead named by *position*:
the route from the ``i``-th in-neighbour (in the topology's deterministic
predecessor order) is ``vc$route.%i``, and the node's own route in the
safety condition is ``vc$route.%self``.  Positional names erase node
identity from the query, so two nodes whose conditions differ only by a
node renaming — e.g. every edge switch of a non-destination fattree pod —
produce *term-identical* conditions (including the ``updated_route`` term,
which now hash-conses across nodes).  Term identity is what the symmetry
layer (:mod:`repro.core.symmetry`) keys equivalence classes on, and what
lets the incremental backend reuse one SAT scope — encoded clauses and
learned clauses alike — across an entire class: the members' queries are
the same query.  The ``%`` escape character guarantees positional names can
never collide with an escaped sender name (escapes only ever emit ``%25``,
``%23`` or ``%2e``).
"""

from __future__ import annotations

import dataclasses
import sys
import time as _time
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro import smt
from repro.core.annotations import AnnotatedNetwork
from repro.core.counterexample import Counterexample
from repro.core.results import ConditionResult
from repro.errors import VerificationError
from repro.smt import builder
from repro.smt.terms import (
    OP_AND,
    OP_BVADD,
    OP_BVSUB,
    OP_BVULE,
    OP_BVULT,
    OP_EQ,
    OP_ITE,
    OP_NOT,
    OP_OR,
    Term,
)
from repro.symbolic import SymBV, SymBool, all_of, any_of, exact_names

INITIAL = "initial"
INDUCTIVE = "inductive"
SAFETY = "safety"

CONDITION_KINDS = (INITIAL, INDUCTIVE, SAFETY)

#: Route-variable naming schemes (see module docstring): ``sender`` names a
#: neighbour route after its sender, ``class`` names it by predecessor
#: position so isomorphic nodes yield term-identical conditions.
NAMING_SCHEMES = ("sender", "class")

#: Name prefix reserved for the deterministically named per-query variables
#: of the verification conditions.  Network models must not use it for their
#: own symbolic variables; :func:`_network_symbolics` enforces this.
VC_PREFIX = "vc$"


def _escape_node_name(name: str) -> str:
    """Injectively escape a node name for use inside a variable name.

    ``%`` is the escape character (escaped first, so the mapping is
    injective); ``#`` must not survive because the bit-blaster uses it to
    separate a bitvector name from its bit index, and ``.`` must not survive
    because record shapes use it to separate the route name from its field
    path (a node literally named ``y.value`` must not alias field ``value``
    of a node named ``y``).
    """
    return name.replace("%", "%25").replace("#", "%23").replace(".", "%2e")


def _query_time(node: str, width: int) -> SymBV:
    """The symbolic time variable of a condition (same name in every query)."""
    del node  # the name is deliberately node-independent, see module docstring
    with exact_names():
        return SymBV.fresh(width, f"{VC_PREFIX}time")


#: Route shape → variable name → the one query route of that name: interning
#: bounds ``naming="class"`` to max-in-degree + 1 routes however many nodes
#: read them, and gives the memos below an identity to key on.
_QUERY_ROUTES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _query_route(
    network: Any, owner: str, naming: str = "sender", position: int | None = None
) -> Any:
    """The symbolic route of one query, named per the ``naming`` scheme.

    With ``naming="sender"`` the route is named after the node that
    (conceptually) sends it — not the (sender, receiver) edge — which makes
    the assumption block ``wf(route) ∧ interface(sender)(route, t)`` an
    identical term in the inductive condition of *every* receiver of that
    sender, and in the sender's own safety condition.

    With ``naming="class"`` the route is named by its predecessor
    ``position`` (or ``%self`` for the node's own route), erasing node
    identity so isomorphic nodes produce term-identical queries.
    """
    if naming == "sender":
        suffix = _escape_node_name(owner)
    elif naming == "class":
        suffix = "%self" if position is None else f"%{position}"
    else:
        raise VerificationError(f"unknown naming scheme {naming!r}; choose one of {NAMING_SCHEMES}")
    routes = _QUERY_ROUTES.setdefault(network.route_shape, {})
    route = routes.get(suffix)
    if route is None:
        with exact_names():
            route = routes[suffix] = network.route_shape.fresh(f"{VC_PREFIX}route.{suffix}")
    return route


@dataclass(frozen=True, eq=False)
class NodePolicy:
    """Everything in one node's conditions that does not depend on annotations."""

    initial: Any
    own_route: Any
    own_shape: SymBool
    #: In-neighbour → its query route, in predecessor order.
    neighbor_routes: dict[str, Any]
    neighbor_shapes: tuple[SymBool, ...]
    #: ``network.updated_route`` over ``neighbor_routes``.
    updated: Any
    #: The fingerprint layer's digests of ``initial`` and ``updated``.
    digests: dict[str, bytes] = field(default_factory=dict)


#: ``Network`` → ``(node, naming)`` → :class:`NodePolicy`.  A network's policy
#: is fixed at construction (an edited policy is a new ``Network``), so each
#: node's is evaluated once per naming and shared by its conditions, its
#: dependency fingerprint and every later run over the same network object.
_NODE_POLICIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Annotation object → ``(id(route), time term_id)`` → ``(route, application)``.
#: The entry holds ``route``, so the ``id`` cannot be reused while it lives.
_APPLICATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Hit counts of the two memos above (``fingerprint_statistics`` reports them).
_MEMO_HITS = {"node_policies": 0, "applications": 0}


def node_policy(network: Any, node: str, naming: str = "sender") -> NodePolicy:
    """The memoised :class:`NodePolicy` of ``node`` under ``naming``."""
    policies = _NODE_POLICIES.setdefault(network, {})
    policy = policies.get((node, naming))
    if policy is not None:
        _MEMO_HITS["node_policies"] += 1
        return policy
    shape = network.route_shape
    own_route = _query_route(network, node, naming=naming)
    routes = {
        neighbor: _query_route(network, neighbor, naming=naming, position=position)
        for position, neighbor in enumerate(network.topology.predecessors(node))
    }
    policy = policies[node, naming] = NodePolicy(
        initial=network.initial_route(node),
        own_route=own_route,
        own_shape=shape.constraint(own_route),
        neighbor_routes=routes,
        neighbor_shapes=tuple(shape.constraint(route) for route in routes.values()),
        updated=network.updated_route(node, routes),
    )
    return policy


def apply_annotation(predicate: Any, route: Any, time: SymBV) -> SymBool:
    """``predicate(route, time)``, evaluated once per annotation *object*.

    ``route`` must be long-lived (an interned query route or a memoised
    policy's route): the memo keeps it alive.
    """
    applications = _APPLICATIONS.setdefault(predicate, {})
    key = (id(route), time.term.term_id)
    cached = applications.get(key)
    if cached is None:
        cached = applications[key] = (route, predicate(route, time))
    else:
        _MEMO_HITS["applications"] += 1
    return cached[1]


@dataclass
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

    def fingerprint(self) -> str:
        """Stable, process-independent content hash of this condition.

        Derived from the term structure of the ``(assumptions, goal)`` pair
        (see :mod:`repro.core.fingerprint`) — never from interning counters
        or Python object hashes — so the same condition built in another
        process (any ``PYTHONHASHSEED``) fingerprints identically.  The
        delta re-verification store keys verdicts by this hash; for
        node-identity-erased keys, build the condition with
        ``naming="class"``.
        """
        from repro.core.fingerprint import condition_fingerprint

        return condition_fingerprint(self)

    def check(self, solver: Any | None = None) -> ConditionResult:
        """Decide this condition and package the outcome.

        ``solver`` optionally names a reusable SMT backend (typically the
        per-process :func:`repro.smt.process_solver`); the query then runs in
        a push/pop frame on it, reusing encoded structure and learned clauses
        from earlier conditions.
        """
        started = _time.perf_counter()
        proof = smt.prove(self.goal.term, self.assumptions.term, solver=solver)
        elapsed = _time.perf_counter() - started
        if proof.valid:
            return ConditionResult(self.node, self.kind, True, elapsed)
        model = proof.counterexample
        assert model is not None
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


def initial_condition(
    annotated: AnnotatedNetwork, node: str, naming: str = "sender"
) -> VerificationCondition:
    """``I_v ∈ A(v)(0)`` (equation 5); ``naming`` only selects the policy memo."""
    width = annotated.time_width()
    assumptions, symbolics = _network_symbolics(annotated)
    initial_route = node_policy(annotated.network, node, naming).initial
    zero = SymBV.constant(0, width)
    goal = apply_annotation(annotated.interface(node), initial_route, zero)
    return VerificationCondition(
        node=node,
        kind=INITIAL,
        assumptions=assumptions,
        goal=goal,
        node_route=initial_route,
        symbolics=symbolics,
    )


def inductive_condition(
    annotated: AnnotatedNetwork, node: str, delay: int = 0, naming: str = "sender"
) -> VerificationCondition:
    """The inductive condition (equation 6), optionally with bounded delay."""
    if delay < 0:
        raise VerificationError(f"delay must be non-negative, got {delay}")
    width = annotated.time_width(delay)
    precondition, symbolics = _network_symbolics(annotated)

    time_variable = _query_time(node, width)
    # Keep t small enough that t + delay + 1 cannot wrap around.  Because every
    # annotation is constant beyond its largest witness time, this bound loses
    # no generality (see DESIGN.md §5).
    max_time = (1 << width) - 1
    # Conjuncts are collected and joined once: the precondition has one
    # conjunct per symbolic, and `acc & part` would re-flatten it per part.
    conjuncts = [precondition, time_variable <= max_time - delay - 1]

    policy = node_policy(annotated.network, node, naming)
    neighbor_routes = policy.neighbor_routes
    for (neighbor, route), shape in zip(neighbor_routes.items(), policy.neighbor_shapes):
        conjuncts.append(shape)
        interface = annotated.interface(neighbor)
        # With delay d, the route may have been sent at any of t, t+1, ..., t+d.
        conjuncts.append(
            any_of(
                apply_annotation(interface, route, time_variable + step)
                for step in range(delay + 1)
            )
        )
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
    annotated: AnnotatedNetwork, node: str, naming: str = "sender"
) -> VerificationCondition:
    """``A(v)(t) ⊆ P(v)(t)`` for all times ``t`` (equation 7)."""
    width = annotated.time_width()
    precondition, symbolics = _network_symbolics(annotated)

    time_variable = _query_time(node, width)
    policy = node_policy(annotated.network, node, naming)
    route = policy.own_route
    assumptions = all_of(
        [
            precondition,
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
    annotated: AnnotatedNetwork, node: str, delay: int = 0, naming: str = "sender"
) -> list[VerificationCondition]:
    """All three verification conditions for ``node``."""
    if naming not in NAMING_SCHEMES:
        raise VerificationError(f"unknown naming scheme {naming!r}; choose one of {NAMING_SCHEMES}")
    return [
        initial_condition(annotated, node, naming=naming),
        inductive_condition(annotated, node, delay=delay, naming=naming),
        safety_condition(annotated, node, naming=naming),
    ]


# ---------------------------------------------------------------------------
# Destination-permutation canonicalization (the all-pairs quotient)
# ---------------------------------------------------------------------------
#
# All-pairs benchmarks route to a symbolic destination index ``dest`` that
# enters conditions only through equalities against concrete index constants
# (``dest == k``, one constant per edge node) and a single range constraint
# ``dest < size``.  Class-canonical naming alone therefore cannot merge two
# all-pairs nodes: their conditions are isomorphic only *up to a simultaneous
# permutation of the destination constants*.  The canonicalizer below closes
# that gap: it rewrites every ``dest == k`` atom so the constants become
# *permutation slots* numbered by first canonical occurrence, normalises the
# ``dist``-style ITE ladders whose guards are destination atoms (flattening,
# dropping cases equal to the default — undoing the build-order-dependent
# ``ite(c, x, x)`` folding — and ordering cases by value content, then by
# already-assigned slot), and orders bags of destination atoms under and/or
# by assigned slot.  Isomorphic nodes then rebuild literally identical
# hash-consed terms, so the symmetry layer's "equal keys ⟺ identical query"
# soundness story carries over unchanged — the canonical instance (constants
# ``0..m-1``) is itself a valid query, equivalid with every member's raw
# conditions under that member's slot permutation.
#
# Soundness: for a member whose slot ``i`` abstracts constant ``c_i``, extend
# ``slot_i ↦ c_i`` to a bijection π of ``[0, 2^w)`` that preserves
# ``[0, size)`` (possible because all constants and slots lie below ``size``;
# enforced by the eligibility checks).  Substituting ``dest ↦ π⁻¹(dest)``
# maps the member's conditions exactly onto the canonical ones — ``dest == c``
# becomes ``dest == slot``, and ``dest < size`` is preserved because π
# preserves the range — so validity transfers both ways and a canonical
# counterexample re-concretizes by mapping its destination value through π.
# Any occurrence of ``dest`` outside the two eligible atom shapes makes the
# node *ineligible*: it falls back to its raw class-named conditions (a finer
# partition — never unsound).


class IneligibleDestination(Exception):
    """Internal: ``dest`` occurs outside the eligible atom shapes."""


#: Process-local memo of destination cones: dest ``term_id`` → (``term_id`` →
#: does the cone mention the destination variable).  Terms are interned for
#: the process lifetime, so the key never goes stale.
_DEST_CONES: dict[int, dict[int, bool]] = {}


def destination_variable(annotated: AnnotatedNetwork) -> Term | None:
    """The destination variable's term, when the network declares the symmetry."""
    marker = annotated.destination_symmetry
    if marker is None:
        return None
    for symbolic in annotated.network.symbolics:
        if symbolic.name == marker.variable:
            term = getattr(symbolic.value, "term", None)
            if term is not None and term.is_var():
                return term
    return None


class DestinationCanonicalizer:
    """Rewrites one node's conditions up to destination-index permutation.

    One instance per node: the slot map is shared across the node's three
    conditions (canonicalized in kind order) so the same constant always
    maps to the same slot, and :attr:`witness` records the node's concrete
    constant per slot for counterexample re-concretization.
    """

    def __init__(self, destination: Term, size: int) -> None:
        self._dest = destination
        self._size = size
        self._width = destination.width()
        self._slots: dict[int, int] = {}
        self._memo: dict[int, Term] = {}
        self._cones = _DEST_CONES.setdefault(destination.term_id, {})

    @property
    def witness(self) -> tuple[int, ...]:
        """The node's destination constants in slot order (slot ``i`` ↦ ``witness[i]``)."""
        return tuple(constant for constant, _ in sorted(self._slots.items(), key=lambda kv: kv[1]))

    def rewrite_condition(self, condition: VerificationCondition) -> VerificationCondition:
        """The canonical twin of ``condition`` (assumptions/goal rewritten).

        Evaluation payloads (neighbour routes, the node route, symbolics) are
        kept as the original node's terms: the canonical instance is only ever
        *proved*; a failing canonical query is re-discharged in raw form to
        produce a genuine counterexample (see ``check_class``).
        """
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            assumptions = SymBool(self._rewrite(condition.assumptions.term))
            goal = SymBool(self._rewrite(condition.goal.term))
        finally:
            sys.setrecursionlimit(limit)
        return dataclasses.replace(condition, assumptions=assumptions, goal=goal)

    def rewrite_term(self, term: Term) -> Term:
        """Canonicalize one bare term (the fingerprint layer's entry point)."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            return self._rewrite(term)
        finally:
            sys.setrecursionlimit(limit)

    # -- slot assignment ---------------------------------------------------------

    def _slot(self, constant: int) -> int:
        if constant >= self._size:
            # π could not preserve the [0, size) range constraint.
            raise IneligibleDestination
        return self._slots.setdefault(constant, len(self._slots))

    def _mentions_dest(self, term: Term) -> bool:
        cached = self._cones.get(term.term_id)
        if cached is not None:
            return cached
        # Iterative post-order with an ``expanded`` marker: each node's
        # children are pushed exactly once, so the walk is linear in the
        # *DAG* size.  (Cones are deep and heavily shared — route records
        # duplicate guard structure per field — so re-expanding shared
        # subterms would enumerate paths, which is exponential.)  The memo
        # is shared across nodes of the same network.
        stack = [term]
        expanded: set[int] = set()
        while stack:
            current = stack[-1]
            term_id = current.term_id
            if term_id in self._cones:
                stack.pop()
                continue
            if current is self._dest:
                self._cones[term_id] = True
                stack.pop()
                continue
            if not current.args:
                self._cones[term_id] = False
                stack.pop()
                continue
            if term_id not in expanded:
                expanded.add(term_id)
                stack.extend(arg for arg in current.args if arg.term_id not in self._cones)
            else:
                # Second visit: every child was resolved while this node
                # waited on the stack.
                self._cones[term_id] = any(
                    self._cones[arg.term_id] for arg in current.args
                )
                stack.pop()
        return self._cones[term.term_id]

    def _destination_atom(self, term: Term) -> Term | None:
        """The constant term of a ``dest == k`` atom, else ``None``."""
        if term.op != OP_EQ:
            return None
        left, right = term.args
        if left is self._dest and right.is_bv_const():
            return right
        if right is self._dest and left.is_bv_const():
            return left
        return None

    # -- the rewrite -------------------------------------------------------------

    def _rewrite(self, term: Term) -> Term:
        if not self._mentions_dest(term):
            return term
        cached = self._memo.get(term.term_id)
        if cached is not None:
            return cached
        rewritten = self._rewrite_uncached(term)
        self._memo[term.term_id] = rewritten
        return rewritten

    def _rewrite_uncached(self, term: Term) -> Term:
        constant = self._destination_atom(term)
        if constant is not None:
            return builder.eq(self._dest, builder.bv_const(self._slot(constant.bv_value()), self._width))
        if term is self._dest:
            # A bare occurrence outside the eligible atoms (arithmetic over
            # dest, comparison against a non-constant, ...).
            raise IneligibleDestination
        if term.op in (OP_BVULT, OP_BVULE):
            left, right = term.args
            if left is self._dest:
                if term.op == OP_BVULT and right.is_bv_const() and right.bv_value() == self._size:
                    # The permutation-invariant range constraint dest < size.
                    return term
                raise IneligibleDestination
            # dest only nested deeper (e.g. a dist ladder compared against
            # time): recurse.  A bare dest on the right raises below.
            compare = builder.bv_ult if term.op == OP_BVULT else builder.bv_ule
            return compare(self._rewrite(left), self._rewrite(right))
        if term.op == OP_ITE:
            ladder = self._flatten_ladder(term)
            if ladder is not None:
                return self._rebuild_ladder(*ladder)
            cond, then_branch, else_branch = term.args
            return builder.ite(
                self._rewrite(cond), self._rewrite(then_branch), self._rewrite(else_branch)
            )
        if term.op in (OP_AND, OP_OR):
            return self._rewrite_connective(term)
        if term.op == OP_NOT:
            return builder.not_(self._rewrite(term.args[0]))
        if term.op == OP_EQ:
            left, right = term.args
            return builder.eq(self._rewrite(left), self._rewrite(right))
        if term.op == OP_BVADD:
            left, right = term.args
            return builder.bv_add(self._rewrite(left), self._rewrite(right))
        if term.op == OP_BVSUB:
            left, right = term.args
            return builder.bv_sub(self._rewrite(left), self._rewrite(right))
        # Leaves never mention dest (handled above); any other operator with
        # dest in its cone has no sound rewrite here.
        raise IneligibleDestination

    def _rewrite_connective(self, term: Term) -> Term:
        """and/or: non-atom children in order, then atoms sorted by slot."""
        others: list[Term] = []
        atoms: list[tuple[int, Term]] = []  # (constant value, atom term)
        for child in term.args:
            constant = self._destination_atom(child)
            if constant is not None:
                atoms.append((constant.bv_value(), child))
            else:
                others.append(self._rewrite(child))
        # Already-assigned constants sort by slot; fresh ones keep their
        # original relative order (stable sort) and are assigned in it.
        atoms.sort(key=lambda pair: self._slots.get(pair[0], self._size))
        rebuilt = others + [
            builder.eq(self._dest, builder.bv_const(self._slot(value), self._width))
            for value, _ in atoms
        ]
        combine = builder.and_ if term.op == OP_AND else builder.or_
        return combine(*rebuilt)

    def _flatten_ladder(
        self, term: Term
    ) -> tuple[list[tuple[int, Term]], Term] | None:
        """Flatten a maximal ``ite(dest == k, value, ...)`` chain.

        Returns ``(cases, default)`` — guard constants with destination-free
        values, outermost first, duplicate (dead) guards dropped — or ``None``
        when ``term`` is not a destination-guarded ladder with destination-free
        case values (generic ITE recursion handles it instead).
        """
        cases: list[tuple[int, Term]] = []
        seen: set[int] = set()
        current = term
        while current.op == OP_ITE:
            constant = self._destination_atom(current.args[0])
            if constant is None or self._mentions_dest(current.args[1]):
                break
            value = constant.bv_value()
            if value not in seen:
                seen.add(value)
                cases.append((value, current.args[1]))
            current = current.args[2]
        if not cases:
            return None
        return cases, current

    def _rebuild_ladder(self, cases: list[tuple[int, Term]], default: Term) -> Term:
        rewritten_default = self._rewrite(default)
        # Cases whose value equals the (original) default are dead weight the
        # builder's ite(c, x, x) fold removed for *some* build orders but not
        # others; dropping them restores order-independence.  The guards are
        # mutually exclusive (distinct constants over one variable), so
        # removal and reordering both preserve the function.
        live = [(value, case) for value, case in cases if case is not default]
        from repro.core.fingerprint import fingerprint_term

        def sort_key(pair: tuple[int, Term]) -> tuple:
            value, case = pair
            content = (
                (0, case.width(), case.bv_value())
                if case.is_bv_const()
                else (1, fingerprint_term(case))
            )
            return (content, self._slots.get(value, self._size))

        live.sort(key=sort_key)
        guards = [
            builder.eq(self._dest, builder.bv_const(self._slot(value), self._width))
            for value, _ in live
        ]
        result = rewritten_default
        for guard, (_, case) in zip(reversed(guards), reversed(live)):
            result = builder.ite(guard, case, result)
        return result


def canonical_node_conditions(
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> tuple[list[VerificationCondition], tuple[int, ...] | None]:
    """Class-named conditions, destination-canonicalized when declared.

    Returns ``(conditions, witness)``.  When the network declares a
    :class:`~repro.core.annotations.DestinationSymmetry` and the node's
    conditions use the destination only in the eligible atom shapes, the
    conditions come back canonicalized and ``witness`` is the node's
    destination constant per permutation slot.  Otherwise the raw
    ``naming="class"`` conditions are returned with ``witness=None``.
    """
    raw = node_conditions(annotated, node, delay=delay, naming="class")
    destination = destination_variable(annotated)
    if destination is None:
        return raw, None
    canonicalizer = DestinationCanonicalizer(destination, annotated.destination_symmetry.size)
    try:
        canonical = [canonicalizer.rewrite_condition(condition) for condition in raw]
    except IneligibleDestination:
        return raw, None
    return canonical, canonicalizer.witness
