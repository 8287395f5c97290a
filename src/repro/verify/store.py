"""The delta-verification store: proved condition fingerprints between runs.

``Modular(delta="reuse")`` makes :class:`repro.verify.Session` consult a
small on-disk store before discharging anything: a symmetry class whose
representative's three condition fingerprints (content hashes of the
canonical queries, see :mod:`repro.core.fingerprint`) are all recorded
as proved gets its verdicts back as ``reused`` events, and only the rest is
handed to the SMT backend.  This module owns that store's format and
lifecycle.

**Format.**  One JSON document per (network topology, strategy signature)
pair, holding one sorted list: ``proved``, the condition fingerprints an
earlier run proved.  Only *passing* verdicts are recorded; a failing
condition is always re-discharged so its counterexample is fresh and its
verdict can never go stale.  A fingerprint *is* its query, so an entry
cannot describe a different one: an edited node poses new queries, which
miss, and a reverted edit poses the old ones, which hit again.

**Robustness.**  Loading is fail-soft by design: a truncated/corrupt file, a
format-version mismatch, a different network topology, a different strategy
signature or a ``proved`` entry that is not a 64-digit lowercase hex
fingerprint each degrade to an empty store (i.e. a full run) with a
:class:`RuntimeWarning` naming the reason — never a crash, never a stale
verdict.  Saving is atomic (write-to-temp + ``os.replace``) so a crashed or
interrupted run cannot truncate a previously good store.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.conditions import CONDITION_KINDS

#: Format version; bump on any incompatible schema change.  Loaders treat a
#: mismatch as "no store" (full run), never attempt migration in place.
#: Version 3: the store is the ``proved`` list alone; version 2's per-node
#: dependency index and per-entry metadata are gone.
STORE_VERSION = 3

#: What one ``proved`` entry must look like: a SHA-256 hex digest.
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")

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
    #: Condition fingerprints recorded as proved.
    proved: set[str] = field(default_factory=set)
    #: Whether anything changed since load (saving is skipped otherwise).
    dirty: bool = False

    # -- loading -----------------------------------------------------------------

    @classmethod
    def open(cls, path: str, network: str, strategy: str) -> "DeltaStore":
        """Load the store at ``path``, degrading to empty on any problem.

        Every failure mode — missing file (a cold start, not warned about),
        unreadable file, malformed JSON, wrong schema version, different
        network topology, different strategy signature, a ``proved`` value
        that is not a list of fingerprints — yields an empty store so the
        session falls back to a full run; all but the cold start emit a
        :class:`RuntimeWarning` naming the reason.
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
        proved = document.get("proved")
        if not isinstance(proved, list) or not all(
            isinstance(entry, str) and _FINGERPRINT.fullmatch(entry) for entry in proved
        ):
            _warn(path, "malformed proved list (not a list of condition fingerprints)")
            return store
        store.proved = set(proved)
        return store

    # -- queries -----------------------------------------------------------------

    def has_conditions(self, condition_fingerprints: Mapping[str, str]) -> bool:
        """Whether every kind's condition fingerprint is recorded as proved."""
        return all(condition_fingerprints.get(kind) in self.proved for kind in CONDITION_KINDS)

    # -- updates -----------------------------------------------------------------

    def record(self, condition_fingerprints: Iterable[str]) -> None:
        """Record condition fingerprints as proved.

        Callers only record conditions that passed — the store never holds
        failing verdicts (they must be re-discharged for fresh
        counterexamples).
        """
        fresh = set(condition_fingerprints) - self.proved
        if fresh:
            self.proved |= fresh
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
            "proved": sorted(self.proved),
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
