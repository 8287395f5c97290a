"""Tests for the on-disk delta store (:mod:`repro.verify.store`).

The store's contract is *fail-soft*: any unusable file — truncated, corrupt,
wrong schema version, recorded for another network or strategy, a
``proved`` list that is not a list of fingerprints — degrades to an empty
store (a full verification run) with a :class:`RuntimeWarning`, and never a
crash or a stale verdict.
"""

import hashlib
import json
import os

import pytest

from repro.core.fingerprint import network_fingerprint, node_condition_fingerprints
from repro.core.results import condition_verdicts
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.verify import (
    DEFAULT_STORE_DIR,
    DeltaStore,
    Modular,
    STORE_VERSION,
    Session,
    default_store_path,
    verify,
)

NETWORK = "net-fp"
STRATEGY = "strategy-sig"


def _fingerprint(label):
    return hashlib.sha256(label.encode()).hexdigest()


def _kinds(suffix=""):
    """A full per-kind condition-fingerprint map, as the session records one."""
    return {kind: _fingerprint(kind + suffix) for kind in ("initial", "inductive", "safety")}


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.json")


def _saved_store(path, *fingerprint_maps):
    store = DeltaStore(path=path, network=NETWORK, strategy=STRATEGY)
    for fingerprints in fingerprint_maps:
        store.record(fingerprints.values())
    store.save()
    return store


def _write(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestFailSoftLoading:
    def test_missing_file_is_a_silent_cold_start(self, store_path, recwarn):
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.proved == set()
        assert not any(issubclass(w.category, RuntimeWarning) for w in recwarn.list)

    def test_truncated_file_degrades_with_warning(self, store_path):
        _saved_store(store_path, _kinds())
        with open(store_path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        with pytest.warns(RuntimeWarning, match="unreadable or corrupt"):
            store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.proved == set()

    def test_non_object_document_degrades(self, store_path):
        _write(store_path, ["not", "a", "store"])
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).proved == set()

    def test_version_skew_degrades(self, store_path):
        _saved_store(store_path, _kinds())
        with open(store_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["version"] = STORE_VERSION + 1
        _write(store_path, document)
        with pytest.warns(RuntimeWarning, match="format version"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).proved == set()

    def test_other_network_or_strategy_degrades(self, store_path):
        _saved_store(store_path, _kinds())
        with pytest.warns(RuntimeWarning, match="different network topology"):
            assert DeltaStore.open(store_path, "other-net", STRATEGY).proved == set()
        with pytest.warns(RuntimeWarning, match="different strategy signature"):
            assert DeltaStore.open(store_path, NETWORK, "other-sig").proved == set()

    @pytest.mark.parametrize(
        "proved",
        [
            "oops",
            {_fingerprint("a"): {"holds": True}},
            [_fingerprint("a"), {"holds": False}],
            [_fingerprint("a"), 42],
            [_fingerprint("a")[:63]],
            [_fingerprint("a").upper()],
            [_fingerprint("a")[:63] + "g"],
            None,
        ],
        ids=[
            "string",
            "v2-style-table",
            "entry-object",
            "entry-number",
            "short",
            "uppercase",
            "not-hex",
            "missing",
        ],
    )
    def test_malformed_proved_list_degrades(self, store_path, proved):
        document = {"version": STORE_VERSION, "network": NETWORK, "strategy": STRATEGY}
        if proved is not None:
            document["proved"] = proved
        _write(store_path, document)
        with pytest.warns(RuntimeWarning, match="malformed proved list"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).proved == set()

    def test_corrupt_store_still_yields_a_full_passing_run(self, store_path):
        """End to end: the session degrades to a full run, never crashes."""
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.write('{"version":')  # truncated mid-document
        benchmark = registry.build("ghost/reach")
        with pytest.warns(RuntimeWarning, match="running a full verification"):
            with Session(
                benchmark.annotated, Modular(delta="reuse", store=store_path)
            ) as session:
                report = session.run()
        assert report.passed and report.conditions_reused == 0
        # The rebuilt store replaced the corrupt file and is warm now.
        with Session(
            benchmark.annotated, Modular(delta="reuse", store=store_path)
        ) as session:
            warm = session.run()
        assert warm.conditions_reused == warm.conditions_checked > 0


class TestFailingEntriesAreNeverPasses:
    """A store entry that records a failure must never be reused as a pass.

    Version 2 stores kept a per-entry ``"holds"`` field that the loader never
    read, so a planted ``{"holds": false}`` entry counted as proved.  The
    version 3 list has no such field, and a version 2 store is not read.
    """

    def _planted(self, tmp_path):
        reach = registry.build("fattree/reach", pods=4).annotated
        edited, poisoned = inject_interface_failure(reach)
        path = str(tmp_path / "delta.json")
        assert verify(reach, Modular(delta="reuse", store=path)).passed
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        planted = node_condition_fingerprints(edited, poisoned).values()
        return edited, path, document, planted

    def test_v2_failing_entries_are_not_reused(self, tmp_path):
        edited, path, document, planted = self._planted(tmp_path)
        assert document["network"] == network_fingerprint(edited)
        conditions = {fingerprint: {"holds": True} for fingerprint in document["proved"]}
        conditions.update((fingerprint, {"holds": False}) for fingerprint in planted)
        _write(
            path,
            {
                "version": 2,
                "network": document["network"],
                "strategy": document["strategy"],
                "conditions": conditions,
                "nodes": {},
            },
        )
        with pytest.warns(RuntimeWarning, match="format version 2 != 3"):
            delta = verify(edited, Modular(delta="reuse", store=path))
        full = verify(edited, Modular())
        assert not full.passed
        assert delta.conditions_reused == 0
        assert condition_verdicts(delta) == condition_verdicts(full)

    def test_v3_failing_entries_make_the_store_malformed(self, tmp_path):
        edited, path, document, planted = self._planted(tmp_path)
        document["proved"] += [{fingerprint: {"holds": False}} for fingerprint in planted]
        _write(path, document)
        with pytest.warns(RuntimeWarning, match="malformed proved list"):
            delta = verify(edited, Modular(delta="reuse", store=path))
        assert delta.conditions_reused == 0
        assert condition_verdicts(delta) == condition_verdicts(verify(edited, Modular()))


class TestQueries:
    def test_record_then_has_conditions(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record(_kinds().values())
        assert store.has_conditions(_kinds())
        assert not store.has_conditions(_kinds("-other"))
        assert not store.has_conditions({})
        # Every kind must resolve to a proved condition.
        partial = dict(_kinds())
        partial["safety"] = _fingerprint("unproved")
        assert not store.has_conditions(partial)

    def test_conditions_match_by_content_not_node(self, store_path):
        """A proved condition is proved whichever node posed it, and an edit
        that is reverted finds its old conditions still recorded."""
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record(_kinds().values())
        store.record(_kinds("-edited").values())
        assert store.has_conditions(_kinds())
        assert store.has_conditions(_kinds("-edited"))


class TestSaving:
    def test_round_trip_is_one_sorted_list(self, store_path):
        _saved_store(store_path, _kinds(), _kinds("-2"))
        with open(store_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert set(document) == {"version", "network", "strategy", "proved"}
        assert document["proved"] == sorted({*_kinds().values(), *_kinds("-2").values()})
        loaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert loaded.has_conditions(_kinds()) and loaded.has_conditions(_kinds("-2"))
        assert not loaded.dirty

    def test_clean_store_save_is_a_no_op(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.save()
        assert not os.path.exists(store_path)
        store.record(_kinds().values())
        store.save()
        stamp = os.stat(store_path).st_mtime_ns
        # Recording proved fingerprints again does not dirty the store.
        store.record(_kinds().values())
        assert not store.dirty
        store.save()
        assert os.stat(store_path).st_mtime_ns == stamp

    def test_interrupted_save_keeps_the_previous_version(self, store_path, monkeypatch):
        _saved_store(store_path, _kinds())
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        store.record(_kinds("-b").values())

        def explode(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            store.save()
        monkeypatch.undo()
        # The original store is intact and no temp files leak.
        reloaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert reloaded.proved == set(_kinds().values())
        directory = os.path.dirname(store_path)
        assert [name for name in os.listdir(directory) if name.endswith(".tmp")] == []


class TestDefaultPath:
    def test_default_path_is_keyed_by_network_and_strategy(self):
        path = default_store_path("n" * 64, "s" * 64)
        assert path == os.path.join(DEFAULT_STORE_DIR, f"{'n' * 16}-{'s' * 8}.json")
        assert default_store_path("n" * 64, "t" * 64) != path
