"""The delta-verification store: fingerprints and verdicts between runs.

``Modular(delta="reuse")`` makes :class:`repro.verify.Session` consult a
small on-disk store before discharging anything: a node whose *dependency
fingerprint* (see :mod:`repro.core.fingerprint`) is unchanged since the last
recorded run gets its cached verdicts back as ``reused`` events, and only
changed/new nodes are handed to the SMT backend.  This module owns that
store's format and lifecycle.

**Format.**  One JSON document per (network topology, strategy signature)
pair, with two tables:

* ``conditions`` — the fingerprint-keyed verdict map: canonical condition
  content hash → verdict + metadata.  Only *passing* verdicts are recorded;
  a failing condition is always re-discharged so its counterexample is fresh
  and its verdict can never go stale.
* ``nodes`` — the invalidation index: node name → dependency fingerprint +
  its per-kind condition fingerprints.  Reuse requires the dependency
  fingerprint to match *and* each of the three kinds to resolve to a passing
  entry in ``conditions``.

Because both fingerprints are computed from canonicalized (node-identity-
erased) term structure, a stale entry can never produce a wrong verdict: any
semantic change to the inputs of a node's conditions changes its dependency
fingerprint, and an entry that no longer matches is simply not reused.
Entries for nodes whose fingerprint changed are *kept* until the node next
passes — if the operator reverts the config edit, the old entry matches
again and is legitimately reusable.

**Robustness.**  Loading is fail-soft by design: a truncated/corrupt file, a
format-version mismatch, a different network topology, a different strategy
signature or a malformed node entry each degrade to an empty store (i.e. a
full run) with a :class:`RuntimeWarning` naming the reason — never a crash,
never a stale verdict.  Saving is atomic (write-to-temp + ``os.replace``) so a crashed or
interrupted run cannot truncate a previously good store.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.conditions import CONDITION_KINDS

#: Format version; bump on any incompatible schema change.  Loaders treat a
#: mismatch as "no store" (full run), never attempt migration in place.
#: Version 2: fingerprints moved to the destination-canonicalized ``fp2``
#: encoding (see :mod:`repro.core.fingerprint`), so ``fp1`` stores must not
#: be reused against them.
STORE_VERSION = 2

#: Directory the session drops stores into when no explicit path is given.
DEFAULT_STORE_DIR = ".timepiece-delta"


def default_store_path(network_fingerprint: str, strategy_signature: str) -> str:
    """The conventional store location for a (network, strategy) pair."""
    return os.path.join(
        DEFAULT_STORE_DIR,
        f"{network_fingerprint[:16]}-{strategy_signature[:8]}.json",
    )


def _warn(path: str, reason: str) -> None:
    warnings.warn(
        f"delta store {path!r} ignored ({reason}); running a full verification",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclass
class DeltaStore:
    """In-memory image of one store file, plus its identity header."""

    path: str
    network: str
    strategy: str
    #: Canonical condition fingerprint → metadata.  Presence means "proved".
    conditions: dict[str, dict] = field(default_factory=dict)
    #: Node name → {"dependency": fp, "conditions": {kind: condition fp}}.
    nodes: dict[str, dict] = field(default_factory=dict)
    #: Whether anything changed since load (saving is skipped otherwise).
    dirty: bool = False

    # -- loading -----------------------------------------------------------------

    @classmethod
    def open(cls, path: str, network: str, strategy: str) -> "DeltaStore":
        """Load the store at ``path``, degrading to empty on any problem.

        Every failure mode — missing file (a cold start, not warned about),
        unreadable file, malformed JSON, wrong schema version, different
        network topology, different strategy signature, malformed node
        entry — yields an empty store so the session falls back to a full
        run; all but the cold start emit a :class:`RuntimeWarning` naming
        the reason.
        """
        store = cls(path=path, network=network, strategy=strategy)
        if not os.path.exists(path):
            return store
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            _warn(path, f"unreadable or corrupt: {error}")
            return store
        if not isinstance(document, dict):
            _warn(path, "malformed document (not a JSON object)")
            return store
        if document.get("version") != STORE_VERSION:
            _warn(
                path,
                f"format version {document.get('version')!r} != {STORE_VERSION}",
            )
            return store
        if document.get("network") != network:
            _warn(path, "recorded for a different network topology")
            return store
        if document.get("strategy") != strategy:
            _warn(path, "recorded under a different strategy signature")
            return store
        conditions = document.get("conditions")
        nodes = document.get("nodes")
        if not isinstance(conditions, dict) or not isinstance(nodes, dict):
            _warn(path, "malformed condition/node tables")
            return store
        for name, entry in nodes.items():
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("dependency"), str)
                or not isinstance(entry.get("conditions"), dict)
                or not all(isinstance(value, str) for value in entry["conditions"].values())
            ):
                _warn(path, f"malformed node entry {name!r}")
                return store
        store.conditions = conditions
        store.nodes = nodes
        return store

    # -- queries -----------------------------------------------------------------

    def reusable(self, node: str, dependency: str) -> bool:
        """Whether ``node``'s verdicts can be reused under ``dependency``.

        Requires a recorded entry whose dependency fingerprint matches and
        whose condition fingerprints for *every* kind resolve to recorded
        (passing) verdicts.
        """
        entry = self.nodes.get(node)
        if entry is None or entry.get("dependency") != dependency:
            return False
        return self.has_conditions(entry.get("conditions", {}))

    def has_conditions(self, condition_fingerprints: Mapping[str, str]) -> bool:
        """Whether every kind's exact condition is recorded as proved.

        The slow-path reuse check: condition fingerprints are content hashes
        of the (canonicalized) query itself, so a hit here is reusable even
        when the node's dependency entry points elsewhere — e.g. after a
        config edit was reverted, the old conditions are still in the table.
        """
        return all(
            condition_fingerprints.get(kind) in self.conditions for kind in CONDITION_KINDS
        )

    # -- updates -----------------------------------------------------------------

    def record(
        self, node: str, dependency: str, condition_fingerprints: Mapping[str, str]
    ) -> None:
        """Record one fully-passing node: its dependency key and verdicts.

        Callers only record nodes whose every condition passed — the store
        never holds failing verdicts (they must be re-discharged for fresh
        counterexamples).
        """
        entry = {"dependency": dependency, "conditions": dict(condition_fingerprints)}
        if self.nodes.get(node) != entry:
            self.nodes[node] = entry
            self.dirty = True
        for kind, fingerprint in condition_fingerprints.items():
            metadata = {"kind": kind, "holds": True, "node": node}
            existing = self.conditions.get(fingerprint)
            if existing is None:
                self.conditions[fingerprint] = metadata
                self.dirty = True

    def save(self) -> None:
        """Atomically persist the store (no-op when nothing changed).

        Writes the full document to a sibling temp file and ``os.replace``s
        it over the target, so readers only ever observe a complete store —
        an interrupted save leaves the previous version intact.
        """
        if not self.dirty:
            return
        document = {
            "version": STORE_VERSION,
            "network": self.network,
            "strategy": self.strategy,
            "conditions": self.conditions,
            "nodes": self.nodes,
        }
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        descriptor, temporary = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
            os.replace(temporary, self.path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        self.dirty = False
