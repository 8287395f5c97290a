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
  digests of its ``(assumptions, goal)`` pair (and, for a sliced condition,
  of the whole precondition it was sliced from).  Conditions name
  their query variables by predecessor position, so the fingerprint erases
  node identity: isomorphic nodes share fingerprints, and a verdict cached
  for one is a verdict for all of them.  It is the delta store's only key:
  the hash *is* the query, so a recorded pass can never describe a
  different one.

**Nothing is memoised here but term digests.**  The conditions a fingerprint
digests come from :func:`~repro.core.conditions.canonical_node_conditions`,
whose per-``Network`` memo (see its docstring) is the one build the
partition, the checker and this module share: a warm run after a one-node
edit builds only the edited node's and its successors' conditions, once.
Nothing is shared across processes: a fresh process builds each node's
conditions once and digests them.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    VerificationCondition,
    canonical_node_conditions,
    clear_memos,
    memo_statistics,
)
from repro.errors import VerificationError
from repro.smt.sorts import BitVecSort, BoolSort, Sort
from repro.smt.terms import Term

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


def condition_fingerprint(condition: VerificationCondition) -> str:
    """The content hash of one verification condition.

    Digests the ``(kind, assumptions, goal)`` triple; positional route names
    make it node-identity-erased (see :func:`node_condition_fingerprints`).
    A sliced condition's pass may be vacuous, so its hash also digests the
    whole precondition it was sliced from.
    """
    fingerprint = _digest(
        (
            FINGERPRINT_VERSION.encode("ascii"),
            b"vc",
            condition.kind.encode("ascii"),
            fingerprint_term(condition.assumptions.term).encode("ascii"),
            fingerprint_term(condition.goal.term).encode("ascii"),
        )
    )
    if condition.sliced_from is None:
        return fingerprint
    whole = fingerprint_term(condition.sliced_from.term).encode("ascii")
    return _digest((fingerprint.encode("ascii"), whole))


def node_condition_fingerprints(
    annotated: AnnotatedNetwork, node: str, delay: int = 0
) -> dict[str, str]:
    """Per-kind canonical condition fingerprints for one node.

    Digests the node's
    :func:`~repro.core.conditions.canonical_node_conditions` — built in its
    own destination numbering when the network declares a destination
    symmetry, so permuted all-pairs nodes share condition fingerprints.
    These are the keys of the delta store.
    """
    return {
        vc.kind: condition_fingerprint(vc)
        for vc in canonical_node_conditions(annotated, node, delay=delay)
    }


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
    clear_memos()


def fingerprint_statistics() -> Mapping[str, int]:
    """Sizes and hit counts of the process-local memos (observability hook).

    ``memoised_terms`` counts term digests; the rest is
    :func:`repro.core.conditions.memo_statistics`.  A node whose canonical
    conditions come from the memo is one ``canonical_condition_hits`` and
    builds nothing; a replaced interface or a new ``Network`` shows as new
    entries instead.
    """
    return {"memoised_terms": len(_TERM_DIGESTS), **memo_statistics()}
