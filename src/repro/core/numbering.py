"""The destination numbering a condition is built in (all-pairs networks).

An all-pairs network's symbolic destination ``dest`` indexes its edge nodes.
Isomorphic nodes pose the same query only up to a renaming of that index, so
:func:`repro.core.conditions.canonical_node_conditions` builds each node ``v``
in a node-relative numbering ``π_v`` (handed out by the network's
:class:`~repro.core.annotations.DestinationSymmetry` marker): while it is
active, the builder that owns ``dest`` writes the atom of raw index ``k`` as
``dest == π_v(k)``.  Every memo that can hold a term built from ``dest`` keys
on the numbering, so a term built under one numbering is never served under
another: the node-policy and application memos of :mod:`repro.core.conditions`
and the condition-fingerprint memo.  ``None`` is the identity: the network's
own numbering.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_ACTIVE: tuple[int, ...] | None = None


def active_numbering() -> tuple[int, ...] | None:
    """The numbering ``π`` (raw index ``k`` ↦ ``π[k]``) in force, ``None`` for the identity."""
    return _ACTIVE


@contextmanager
def destination_numbering(numbering: tuple[int, ...] | None) -> Iterator[None]:
    """Build in ``numbering`` (``None``: the identity) for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None if numbering == tuple(range(len(numbering or ()))) else numbering
    try:
        yield
    finally:
        _ACTIVE = previous
