"""Stable content fingerprints for terms, conditions and node dependencies.

The delta re-verification layer (``Modular(delta="reuse")``) needs to decide,
*before* discharging anything, which verification conditions are unchanged
since an earlier run — possibly an earlier run in a different process.  This
module computes the keys that decision is made on:

* :func:`fingerprint_term` — a structural SHA-256 digest of a term DAG.
  Hash-consing already gives every term a process-stable ``term_id`` (what
  the symmetry layer keys equivalence classes on), but ``term_id`` is an
  interning counter and means nothing outside the process that allocated it.
  The fingerprint is computed from the term *structure* alone — operator
  tags, payloads, sorts and child digests; never ``id()`` or Python's
  randomized ``hash()`` — so the same term built in any process under any
  ``PYTHONHASHSEED`` digests to the same hex string.

* :func:`condition_fingerprint` — the content hash of one
  :class:`~repro.core.conditions.VerificationCondition`: its kind plus the
  digests of the canonicalized ``(assumptions, goal)`` pair.  Conditions are
  fingerprinted in their *class-canonical* form (``naming="class"``, the PR 2
  scheme that names query variables by predecessor position), so the
  fingerprint erases node identity: isomorphic nodes share fingerprints, and
  a verdict cached for one is a verdict for all of them.

* :func:`node_dependency_fingerprint` — a per-node digest covering exactly
  the inputs the node's three conditions are built from: the node's own
  interface and property, its policy (initial route, route update over the
  canonical neighbour routes, route well-formedness), its neighbours'
  interfaces in predecessor order, the network's symbolic constraints, and
  the time widths/delay.  A node whose dependency fingerprint is unchanged
  has unchanged conditions, so invalidation after a config edit is decided
  without rebuilding (or discharging) any condition.  Editing one node's
  annotation invalidates that node and its successors — the nodes whose
  inductive conditions assume the edited interface — i.e. an O(neighbourhood)
  set, not O(n).

Annotations and policies enter the dependency fingerprint *extensionally*:
each predicate/transfer function is applied once to canonical query
variables (the same ``vc$``-prefixed variables the condition builders use)
and the resulting term is digested.  This assumes annotations are pure term
builders — the same assumption the rest of the pipeline already makes, since
conditions are rebuilt from the same callables on every run and compared by
term identity in the symmetry layer.

**Memoised parts, and why they cannot produce a stale pass.**  A dependency
fingerprint is Merkle-shaped — shared header ‖ own-annotation parts ‖ policy
parts ‖ one part per in-edge — and every part is read from the memos of
:mod:`repro.core.conditions` (``node_policy``, ``apply_annotation``), the very
objects the condition builders read.  A warm in-process run therefore
evaluates only parts whose key *object* is new — O(edited nodes + their
successors) — and stays sound because: (i) keys are live objects in weak-key
maps (the ``Network``, the annotation, the route shape), and a route keyed by
``id`` is held by its own entry, so no key can be recycled while an entry
exists; (ii) no value references its key, so an entry dies with it; (iii) a
value is a function of its key object and of query variables fixed by
``(route_shape, naming, position, width)``, under the pure-term-builder
assumption above; (iv) every edit is a new key — a replaced interface is a
new annotation object, an edited policy a new ``Network`` — and misses.
Nothing is shared across processes: a closure has no identity cheaper than
evaluating it, so a fresh process pays one evaluation per node and naming.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    DestinationCanonicalizer,
    IneligibleDestination,
    NodePolicy,
    VerificationCondition,
    _APPLICATIONS,
    _MEMO_HITS,
    _NODE_POLICIES,
    _QUERY_ROUTES,
    _query_time,
    apply_annotation,
    canonical_node_conditions,
    destination_variable,
    node_policy,
)
from repro.errors import VerificationError
from repro.smt.sorts import BitVecSort, BoolSort, Sort
from repro.smt.terms import Term
from repro.symbolic import SymBV, SymBool
from repro.symbolic.option import SymOption
from repro.symbolic.record import SymRecord
from repro.symbolic.sets import SymSet
from repro.symbolic.values import SymEnum

#: Bumped whenever the fingerprint encoding changes, so digests from older
#: code versions can never collide with current ones.  ``fp2``: condition
#: and dependency fingerprints are computed on the destination-canonicalized
#: form when the network declares a
#: :class:`~repro.core.annotations.DestinationSymmetry`, so all-pairs nodes
#: that differ only by destination-index permutation share fingerprints and
#: delta reuse composes with the destination quotient.
FINGERPRINT_VERSION = "fp2"

#: Field separator inside one digest's input.  ``\x1f`` (unit separator)
#: cannot appear in operator tags or sort encodings; payloads are
#: length-prefixed so embedded separators cannot forge field boundaries.
_SEP = b"\x1f"

#: Process-local memo: ``term_id`` → structural digest.  Terms are interned
#: for the lifetime of the process (the intern table never evicts), so the
#: id is a stable cache key — but the cached *value* is purely structural.
_TERM_DIGESTS: dict[int, str] = {}

#: Commutative operators whose child digests are sorted before hashing.  The
#: builder normalises ``eq`` arguments by interning order (``term_id``),
#: which depends on what the process happened to build first — two processes
#: (or one process before/after unrelated work) can produce ``eq(a, b)`` vs
#: ``eq(b, a)`` for the same source network.  Digesting commutative children
#: order-insensitively makes the fingerprint stable under that flip; it can
#: only identify semantically equal terms, so a store hit stays sound.
_COMMUTATIVE_OPS = frozenset({"eq", "and", "or", "bvadd"})


def _encode_sort(sort: Sort) -> bytes:
    if isinstance(sort, BoolSort):
        return b"B"
    if isinstance(sort, BitVecSort):
        return b"V%d" % sort.width
    raise VerificationError(f"cannot fingerprint term of unknown sort {sort!r}")


def _encode_payload(payload: Any) -> bytes:
    if payload is None:
        return b"n"
    if isinstance(payload, bool):
        # Before int: bool is an int subtype and must not alias 0/1.
        return b"b1" if payload else b"b0"
    if isinstance(payload, int):
        encoded = str(payload).encode("ascii")
        return b"i%d:" % len(encoded) + encoded
    if isinstance(payload, str):
        encoded = payload.encode("utf-8")
        return b"s%d:" % len(encoded) + encoded
    raise VerificationError(
        f"cannot fingerprint term payload of type {type(payload).__name__}"
    )


def _digest(parts: Iterable[bytes]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
        hasher.update(_SEP)
    return hasher.hexdigest()


def fingerprint_term(term: Term) -> str:
    """The structural SHA-256 digest of a term DAG (process-independent).

    Computed bottom-up over the maximally-shared DAG with an explicit stack
    (condition terms can be deep enough to overflow Python's recursion
    limit), memoised per process by the interned ``term_id``.
    """
    cached = _TERM_DIGESTS.get(term.term_id)
    if cached is not None:
        return cached
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        current, expanded = stack.pop()
        if current.term_id in _TERM_DIGESTS:
            continue
        if expanded:
            children = tuple(_TERM_DIGESTS[arg.term_id] for arg in current.args)
            if current.op in _COMMUTATIVE_OPS:
                children = tuple(sorted(children))
            _TERM_DIGESTS[current.term_id] = _digest(
                (
                    FINGERPRINT_VERSION.encode("ascii"),
                    current.op.encode("ascii"),
                    _encode_payload(current.payload),
                    _encode_sort(current.sort),
                )
                + tuple(child.encode("ascii") for child in children)
            )
        else:
            stack.append((current, True))
            for arg in current.args:
                if arg.term_id not in _TERM_DIGESTS:
                    stack.append((arg, False))
    return _TERM_DIGESTS[term.term_id]


def fingerprint_value(value: Any, rewrite: Any = None) -> str:
    """The structural digest of any symbolic value (or plain scalar).

    Dispatches over the six modelling kinds; composites digest their shape
    metadata (record type and field names, option-ness, set universe) along
    with their component terms, so two values digest equally iff they are
    structurally the same symbolic value.  ``rewrite`` optionally maps each
    component term before digesting (the dependency fingerprint passes the
    destination canonicalizer here so all-pairs route payloads digest
    permutation-stably).
    """
    def term_digest(term: Term) -> bytes:
        if rewrite is not None:
            term = rewrite(term)
        return fingerprint_term(term).encode("ascii")

    if isinstance(value, (SymBool, SymBV)):
        return _digest((b"t", term_digest(value.term)))
    if isinstance(value, SymEnum):
        return _digest(
            (
                b"enum",
                _encode_payload(value.enum_type.name),
                _encode_payload(",".join(value.enum_type.members)),
                term_digest(value.index.term),
            )
        )
    if isinstance(value, SymOption):
        return _digest(
            (
                b"opt",
                fingerprint_value(value.is_some, rewrite).encode("ascii"),
                fingerprint_value(value.payload, rewrite).encode("ascii"),
            )
        )
    if isinstance(value, SymSet):
        return _digest(
            (b"set",)
            + tuple(
                _encode_payload(name)
                + _SEP
                + fingerprint_value(value.contains(name), rewrite).encode("ascii")
                for name in value.universe
            )
        )
    if isinstance(value, SymRecord):
        return _digest(
            (b"rec", _encode_payload(value.type_name))
            + tuple(
                _encode_payload(name) + _SEP + fingerprint_value(field, rewrite).encode("ascii")
                for name, field in value
            )
        )
    if isinstance(value, (bool, int, str)):
        return _digest((b"lit", _encode_payload(value)))
    raise VerificationError(f"cannot fingerprint value of type {type(value).__name__}")


def condition_fingerprint(condition: VerificationCondition) -> str:
    """The content hash of one verification condition.

    Digests the ``(kind, assumptions, goal)`` triple; callers who need
    node-identity-erased fingerprints (the delta store, the symmetry layer)
    must pass conditions built with ``naming="class"`` — see
    :func:`node_condition_fingerprints`.
    """
    return _digest(
        (
            FINGERPRINT_VERSION.encode("ascii"),
            b"vc",
            condition.kind.encode("ascii"),
            fingerprint_term(condition.assumptions.term).encode("ascii"),
            fingerprint_term(condition.goal.term).encode("ascii"),
        )
    )


def node_condition_fingerprints(
    annotated: AnnotatedNetwork,
    node: str,
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
) -> dict[str, str]:
    """Per-kind canonical condition fingerprints for one node.

    Builds the node's conditions in class-canonical form (cheap: terms are
    hash-consed and their digests memoised) — destination-canonicalized when
    the network declares a destination symmetry, so permuted all-pairs nodes
    share condition fingerprints — and digests each requested kind.  These
    are the keys the delta store's verdict map is indexed by.
    """
    requested = set(conditions)
    node_vcs, _ = canonical_node_conditions(annotated, node, delay=delay)
    return {vc.kind: condition_fingerprint(vc) for vc in node_vcs if vc.kind in requested}


def _shared_dependency_parts(
    annotated: AnnotatedNetwork, delay: int, conditions: Sequence[str]
) -> tuple[bytes, ...]:
    """The leading digest parts shared by every node's dependency fingerprint.

    The time widths are annotation-*global* (they depend on the largest
    witness time over all interfaces and properties), so an edit anywhere
    that changes the width correctly invalidates every node.
    """
    network = annotated.network
    requested = set(conditions)
    return (
        FINGERPRINT_VERSION.encode("ascii"),
        b"dep",
        b"w%d" % annotated.time_width(),
        b"wd%d" % annotated.time_width(delay),
        b"d%d" % delay,
        fingerprint_term(network.symbolic_constraints().term).encode("ascii"),
        _encode_payload(",".join(symbolic.name for symbolic in network.symbolics)),
        _encode_payload(",".join(k for k in CONDITION_KINDS if k in requested)),
    )


def node_dependency_fingerprint(
    annotated: AnnotatedNetwork,
    node: str,
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
) -> str:
    """The invalidation key of one node: everything its conditions depend on.

    Covers, over the same canonical ``vc$`` query variables the condition
    builders use: the node's interface and property, its initial route and
    route update (the policy), the route-shape constraint, each
    predecessor's interface in position order, the network's symbolic
    constraints and the time widths.  Node identity is erased (positional
    naming), so isomorphic nodes share dependency fingerprints — the same
    equivalence the symmetry layer computes, obtained here without an extra
    mechanism.  Under a declared destination symmetry the digested terms are
    additionally destination-canonicalized (falling back to raw terms when
    the destination is used outside the eligible shapes), so the dependency
    equivalence matches the destination quotient too.
    """
    return _node_dependency_fingerprint(
        annotated, node, delay, _shared_dependency_parts(annotated, delay, conditions)
    )


def _node_dependency_fingerprint(
    annotated: AnnotatedNetwork, node: str, delay: int, shared_parts: tuple[bytes, ...]
) -> str:
    destination = destination_variable(annotated)
    if destination is not None:
        canonicalizer = DestinationCanonicalizer(
            destination, annotated.destination_symmetry.size
        )
        try:
            return _dependency_digest(
                annotated, node, delay, shared_parts, canonicalizer.rewrite_term
            )
        except IneligibleDestination:
            pass
    return _dependency_digest(annotated, node, delay, shared_parts, None)


def _dependency_digest(
    annotated: AnnotatedNetwork,
    node: str,
    delay: int,
    shared_parts: tuple[bytes, ...],
    rewrite: Any,
) -> str:
    def term_digest(term: Term) -> bytes:
        if rewrite is not None:
            term = rewrite(term)
        return fingerprint_term(term).encode("ascii")

    width = annotated.time_width(delay)
    time_variable = _query_time(node, width)
    base_time = _query_time(node, annotated.time_width())
    policy = node_policy(annotated.network, node, "class")
    own_route = policy.own_route
    interface = annotated.interface(node)
    node_property = annotated.node_property(node)

    parts: list[bytes] = list(shared_parts)
    # The node's own annotation, applied extensionally at both widths the
    # conditions use (initial/safety run at the base width, inductive at the
    # delay-extended width).
    parts.append(term_digest(apply_annotation(interface, own_route, base_time).term))
    parts.append(term_digest(apply_annotation(interface, own_route, time_variable).term))
    parts.append(term_digest(apply_annotation(node_property, own_route, base_time).term))
    # The policy: initial route, route well-formedness, and the route update
    # over canonical per-position neighbour routes.
    parts.append(_policy_part(policy, "initial", rewrite))
    parts.append(term_digest(policy.own_shape.term))
    # One part per in-edge: the neighbour's interface is what the inductive
    # condition assumes; its *name* is deliberately not part of the digest
    # (positional canonicalization, exactly as in the conditions themselves).
    for neighbor, route in policy.neighbor_routes.items():
        sent = apply_annotation(annotated.interface(neighbor), route, time_variable)
        parts.append(term_digest(sent.term))
    parts.append(_policy_part(policy, "updated", rewrite))
    return _digest(parts)


def _policy_part(policy: NodePolicy, name: str, rewrite: Any) -> bytes:
    """The digest of ``policy.<name>``, memoised on the policy in unrewritten form."""
    if rewrite is not None:
        return fingerprint_value(getattr(policy, name), rewrite).encode("ascii")
    if name not in policy.digests:
        policy.digests[name] = fingerprint_value(getattr(policy, name)).encode("ascii")
    return policy.digests[name]


def dependency_fingerprints(
    annotated: AnnotatedNetwork,
    nodes: Sequence[str],
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
) -> dict[str, str]:
    """Dependency fingerprints for a node selection (one pass, shared terms)."""
    shared_parts = _shared_dependency_parts(annotated, delay, conditions)
    return {
        node: _node_dependency_fingerprint(annotated, node, delay, shared_parts)
        for node in nodes
    }


def network_fingerprint(annotated: AnnotatedNetwork) -> str:
    """A digest of the verification target's topology (store identity header).

    Covers the node set and the per-node predecessor lists.  Annotation or
    policy changes deliberately do *not* change it — they are what the delta
    layer diffs — but a different topology means the store describes a
    different network and is ignored with a warning.
    """
    topology = annotated.network.topology
    parts: list[bytes] = [FINGERPRINT_VERSION.encode("ascii"), b"net"]
    for node in topology.nodes:
        parts.append(_encode_payload(node))
        parts.append(_encode_payload(",".join(topology.predecessors(node))))
    return _digest(parts)


def strategy_signature(delay: int, conditions: Sequence[str]) -> str:
    """The store-key signature of the verdict-affecting strategy knobs.

    Only knobs that change *what is proved* participate: ``delay`` and the
    requested condition kinds.  Engine knobs (symmetry, backend, parallel,
    fail-fast) change how verdicts are computed, never the verdicts, so
    stores are shared across them — a cold sequential run warms the store
    for a later parallel or symmetry-aware one.
    """
    return _digest(
        (
            FINGERPRINT_VERSION.encode("ascii"),
            b"strategy",
            b"d%d" % delay,
            _encode_payload(",".join(k for k in CONDITION_KINDS if k in set(conditions))),
        )
    )


def clear_fingerprint_cache() -> None:
    """Drop every process-local memo a fingerprint reads (for tests and benchmarks)."""
    for memo in (_TERM_DIGESTS, _NODE_POLICIES, _APPLICATIONS, _QUERY_ROUTES):
        memo.clear()
    for name in _MEMO_HITS:
        _MEMO_HITS[name] = 0


def fingerprint_statistics() -> Mapping[str, int]:
    """Sizes and hit counts of the process-local memos (observability hook).

    A dependency fingerprint assembled without evaluating anything is one
    policy hit and in-degree + 3 application hits; a replaced interface or a
    new ``Network`` shows as new entries instead.
    """
    return {
        "memoised_terms": len(_TERM_DIGESTS),
        "query_routes": sum(len(routes) for routes in _QUERY_ROUTES.values()),
        "node_policies": sum(len(policies) for policies in _NODE_POLICIES.values()),
        "node_policy_hits": _MEMO_HITS["node_policies"],
        "applications": sum(len(entries) for entries in _APPLICATIONS.values()),
        "application_hits": _MEMO_HITS["applications"],
    }
