"""Stable content fingerprints for terms and verification conditions.

The delta re-verification layer (``Modular(delta="reuse")``) needs to decide,
*before* discharging anything, which verification conditions were already
proved by an earlier run — possibly an earlier run in a different process.
This module computes the keys that decision is made on:

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
  digests of its ``(assumptions, goal)`` pair.  Conditions name
  their query variables by predecessor position, so the fingerprint erases
  node identity: isomorphic nodes share fingerprints, and a verdict cached
  for one is a verdict for all of them.  It is the delta store's only key:
  the hash *is* the query, so a recorded pass can never describe a
  different one.

**The in-process memo.**  :func:`node_condition_fingerprints` is memoised
per ``Network`` (weakly, like the condition parts of
:mod:`repro.core.conditions`) on exactly what the condition builders read:
the node, ``delay``, both time widths, the destination numbering the
conditions are built in (all the marker decides), and the identities of the
node's interface, its property and each predecessor's interface in
predecessor order.  The policy is fixed by the ``Network`` the
memo is weak on, and under the pure-term-builder assumption of
:mod:`repro.core.conditions` equal keys build equal conditions.  Every object whose ``id`` is in a key is held by its
entry, so no ``id`` can be reused while the entry lives, and an edit is a
new interface object (or a new ``Network``) and misses.  A warm run after a
one-node edit therefore builds only the edited node's and its successors'
conditions.  Nothing is shared across processes: a fresh process builds each
node's conditions once and digests them.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Any, Iterable, Mapping, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    VerificationCondition,
    _APPLICATIONS,
    _MEMO_HITS,
    _MERGE_FOLDS,
    _NODE_POLICIES,
    _QUERY_ROUTES,
    _precondition_slices,
    canonical_node_conditions,
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
#: fingerprints are computed on the conditions each node builds in its own
#: destination numbering when the network declares a
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

#: ``Network`` → memo key → ``(held, fingerprints)``: the memo of
#: :func:`node_condition_fingerprints` (see the module docstring).  ``held``
#: keeps every annotation whose ``id`` is in the key alive.
_CONDITION_FINGERPRINTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

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


#: The condition kinds every node is checked for, as the digest part that
#: names them in the strategy signature.
_KINDS_PART = _encode_payload(",".join(CONDITION_KINDS))


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


def fingerprint_value(value: Any) -> str:
    """The structural digest of any symbolic value (or plain scalar).

    Dispatches over the six modelling kinds; composites digest their shape
    metadata (record type and field names, option-ness, set universe) along
    with their component terms, so two values digest equally iff they are
    structurally the same symbolic value.
    """
    if isinstance(value, (SymBool, SymBV)):
        return _digest((b"t", fingerprint_term(value.term).encode("ascii")))
    if isinstance(value, SymEnum):
        return _digest(
            (
                b"enum",
                _encode_payload(value.enum_type.name),
                _encode_payload(",".join(value.enum_type.members)),
                fingerprint_term(value.index.term).encode("ascii"),
            )
        )
    if isinstance(value, SymOption):
        parts = (value.is_some, value.payload)
        return _digest((b"opt",) + tuple(fingerprint_value(part).encode("ascii") for part in parts))
    if isinstance(value, SymSet):
        return _digest(
            (b"set",)
            + tuple(
                _encode_payload(name)
                + _SEP
                + fingerprint_value(value.contains(name)).encode("ascii")
                for name in value.universe
            )
        )
    if isinstance(value, SymRecord):
        return _digest(
            (b"rec", _encode_payload(value.type_name))
            + tuple(
                _encode_payload(name) + _SEP + fingerprint_value(field).encode("ascii")
                for name, field in value
            )
        )
    if isinstance(value, (bool, int, str)):
        return _digest((b"lit", _encode_payload(value)))
    raise VerificationError(f"cannot fingerprint value of type {type(value).__name__}")


def condition_fingerprint(condition: VerificationCondition) -> str:
    """The content hash of one verification condition.

    Digests the ``(kind, assumptions, goal)`` triple; positional route names
    make it node-identity-erased (see :func:`node_condition_fingerprints`).
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
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> dict[str, str]:
    """Per-kind canonical condition fingerprints for one node.

    Builds the node's conditions — in its own destination numbering when the
    network declares a destination symmetry, so permuted all-pairs nodes
    share condition fingerprints — and digests each kind.  These are the
    keys of the delta store.  Memoised on what the builders read (module
    docstring), so a repeated call over unchanged inputs builds nothing.
    """
    network = annotated.network
    interface = annotated.interface(node)
    node_property = annotated.node_property(node)
    sent = tuple(map(annotated.interface, network.topology.predecessors(node)))
    widths = (annotated.time_width(), annotated.time_width(delay))
    identities = (id(interface), id(node_property), tuple(map(id, sent)))
    numbering = annotated.destination_numbering(node)
    key = (node, delay, widths, numbering, identities)
    memo = _CONDITION_FINGERPRINTS.setdefault(network, {})
    cached = memo.get(key)
    if cached is not None:
        _MEMO_HITS["condition_fingerprints"] += 1
        return dict(cached[1])
    node_vcs = canonical_node_conditions(annotated, node, delay=delay)
    fingerprints = {vc.kind: condition_fingerprint(vc) for vc in node_vcs}
    if _precondition_slices(network) is not None:
        # A pass recorded for a sliced condition may be vacuous: add the whole precondition.
        whole = fingerprint_term(network.symbolic_constraints().term).encode("ascii")
        fingerprints = {k: _digest((fp.encode(), whole)) for k, fp in fingerprints.items()}
    memo[key] = ((interface, node_property, sent), fingerprints)
    return dict(fingerprints)


def dependency_fingerprints(
    annotated: AnnotatedNetwork, nodes: Sequence[str], delay: int = 0
) -> dict[str, dict[str, str]]:
    """:func:`node_condition_fingerprints` for a node selection, by node.

    The name is older than the function: nodes once had a second,
    dependency-based key.  It stays because the benchmark spine's tracer
    (``benchmarks/spine/trace.py``) wraps this function by name.
    """
    return {node: node_condition_fingerprints(annotated, node, delay=delay) for node in nodes}


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


def strategy_signature(delay: int) -> str:
    """The store-key signature of the verdict-affecting strategy knobs.

    Only a knob that changes *what is proved* participates, and ``delay`` is
    the one such knob.  Engine knobs (symmetry, parallel, stop-on-failure)
    change how verdicts are computed, never the verdicts, so stores are
    shared across them — a cold sequential run warms the store for a later
    parallel or symmetry-aware one.  The condition kinds are still digested
    (always all three) so signatures stay those of earlier stores.
    """
    return _digest(
        (FINGERPRINT_VERSION.encode("ascii"), b"strategy", b"d%d" % delay, _KINDS_PART)
    )


def clear_fingerprint_cache() -> None:
    """Drop every process-local memo a fingerprint reads (for tests and benchmarks)."""
    _TERM_DIGESTS.clear()
    for memo in (_CONDITION_FINGERPRINTS, _NODE_POLICIES, _MERGE_FOLDS, _APPLICATIONS, _QUERY_ROUTES):
        memo.clear()
    for name in _MEMO_HITS:
        _MEMO_HITS[name] = 0


def fingerprint_statistics() -> Mapping[str, int]:
    """Sizes and hit counts of the process-local memos (observability hook).

    A node whose condition fingerprints come from the memo is one
    ``condition_fingerprint_hits`` and builds nothing; a replaced interface
    or a new ``Network`` shows as new entries instead.  ``merge_folds``
    counts the distinct merge folds a network's policies were built from,
    and a ``merge_fold_hits`` is a node whose fold another node already
    evaluated.
    """
    return {
        "memoised_terms": len(_TERM_DIGESTS),
        "condition_fingerprints": sum(len(entries) for entries in _CONDITION_FINGERPRINTS.values()),
        "condition_fingerprint_hits": _MEMO_HITS["condition_fingerprints"],
        "query_routes": sum(len(routes) for routes in _QUERY_ROUTES.values()),
        "node_policies": sum(len(policies) for policies in _NODE_POLICIES.values()),
        "node_policy_hits": _MEMO_HITS["node_policies"],
        "merge_folds": sum(len(folds) for folds in _MERGE_FOLDS.values()),
        "merge_fold_hits": _MEMO_HITS["merge_folds"],
        "applications": sum(len(entries) for entries in _APPLICATIONS.values()),
        "application_hits": _MEMO_HITS["applications"],
    }
