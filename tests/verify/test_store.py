"""Tests for the on-disk delta store (:mod:`repro.verify.store`).

The store's contract is *fail-soft*: any unusable file — truncated, corrupt,
wrong schema version, recorded for another network or strategy — degrades to
an empty store (a full verification run) with a :class:`RuntimeWarning`, and
never a crash or a stale verdict.
"""

import json
import os

import pytest

from repro.networks import registry
from repro.verify import (
    DEFAULT_STORE_DIR,
    DeltaStore,
    Modular,
    STORE_VERSION,
    Session,
    default_store_path,
)

NETWORK = "net-fp"
STRATEGY = "strategy-sig"


def _kinds(suffix=""):
    """A full per-kind condition-fingerprint map, as the session records one."""
    return {kind: f"fp-{kind}{suffix}" for kind in ("initial", "inductive", "safety")}


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.json")


def _saved_store(path, conditions=None, nodes=None):
    store = DeltaStore(path=path, network=NETWORK, strategy=STRATEGY)
    for node, (dependency, kinds) in (nodes or {}).items():
        store.record(node, dependency, kinds)
    if conditions:
        store.conditions.update(conditions)
        store.dirty = True
    store.save()
    return store


class TestFailSoftLoading:
    def test_missing_file_is_a_silent_cold_start(self, store_path, recwarn):
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.conditions == {} and store.nodes == {}
        assert not any(issubclass(w.category, RuntimeWarning) for w in recwarn.list)

    def test_truncated_file_degrades_with_warning(self, store_path):
        _saved_store(store_path, nodes={"a": ("dep", {"safety": "fp"})})
        with open(store_path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        with pytest.warns(RuntimeWarning, match="unreadable or corrupt"):
            store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.conditions == {} and store.nodes == {}

    def test_non_object_document_degrades(self, store_path):
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(["not", "a", "store"], handle)
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).nodes == {}

    def test_version_skew_degrades(self, store_path):
        _saved_store(store_path, nodes={"a": ("dep", {"safety": "fp"})})
        with open(store_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["version"] = STORE_VERSION + 1
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="format version"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).nodes == {}

    def test_other_network_or_strategy_degrades(self, store_path):
        _saved_store(store_path, nodes={"a": ("dep", {"safety": "fp"})})
        with pytest.warns(RuntimeWarning, match="different network topology"):
            assert DeltaStore.open(store_path, "other-net", STRATEGY).nodes == {}
        with pytest.warns(RuntimeWarning, match="different strategy signature"):
            assert DeltaStore.open(store_path, NETWORK, "other-sig").nodes == {}

    def test_malformed_tables_degrade(self, store_path):
        document = {
            "version": STORE_VERSION,
            "network": NETWORK,
            "strategy": STRATEGY,
            "conditions": "oops",
            "nodes": {},
        }
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="malformed condition/node tables"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).conditions == {}

    @pytest.mark.parametrize(
        "entry",
        [
            {"dependency": 42, "conditions": {}},
            # A non-string condition fingerprint would be an unhashable
            # verdict-table key at the first reuse check.
            {"dependency": "dep", "conditions": {"initial": ["fp"]}},
            ["dep", {}],
            {"dependency": "dep"},
            {"dependency": "dep", "conditions": ["fp"]},
        ],
        ids=[
            "dependency",
            "condition-fingerprint",
            "not-an-object",
            "no-conditions",
            "conditions-list",
        ],
    )
    def test_malformed_node_entry_degrades(self, store_path, entry):
        document = {
            "version": STORE_VERSION,
            "network": NETWORK,
            "strategy": STRATEGY,
            "conditions": {},
            "nodes": {"a": entry},
        }
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="malformed node entry 'a'"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).nodes == {}

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


class TestQueries:
    def test_record_then_reusable(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record("a", "dep-1", _kinds())
        assert store.reusable("a", "dep-1")
        assert not store.reusable("a", "dep-2")
        assert not store.reusable("b", "dep-1")
        # Every kind must resolve to a proved condition.
        store.record("c", "dep-1", {"initial": "fp-initial", "safety": "fp-safety"})
        assert not store.reusable("c", "dep-1")

    def test_has_conditions_matches_by_content_not_node(self, store_path):
        """The revert slow path: exact condition hits reuse regardless of the
        node entry's current dependency key."""
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record("a", "dep-old", _kinds())
        store.record("a", "dep-new", _kinds("-2"))
        assert not store.reusable("a", "dep-old")
        assert store.has_conditions(_kinds())
        assert not store.has_conditions(_kinds("-other"))
        assert not store.has_conditions({})


class TestSaving:
    def test_round_trip(self, store_path):
        _saved_store(store_path, nodes={"a": ("dep", _kinds())})
        loaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert loaded.reusable("a", "dep")
        assert not loaded.dirty

    def test_clean_store_save_is_a_no_op(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.save()
        assert not os.path.exists(store_path)
        store.record("a", "dep", {"safety": "fp"})
        store.save()
        stamp = os.stat(store_path).st_mtime_ns
        # Recording an identical entry does not dirty the store.
        store.record("a", "dep", {"safety": "fp"})
        store.save()
        assert os.stat(store_path).st_mtime_ns == stamp

    def test_interrupted_save_keeps_the_previous_version(self, store_path, monkeypatch):
        _saved_store(store_path, nodes={"a": ("dep", {"safety": "fp"})})
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        store.record("b", "dep-b", {"safety": "fp-b"})

        def explode(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            store.save()
        monkeypatch.undo()
        # The original store is intact and no temp files leak.
        reloaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert set(reloaded.nodes) == {"a"}
        directory = os.path.dirname(store_path)
        assert [name for name in os.listdir(directory) if name.endswith(".tmp")] == []


class TestDefaultPath:
    def test_default_path_is_keyed_by_network_and_strategy(self):
        path = default_store_path("n" * 64, "s" * 64)
        assert path == os.path.join(DEFAULT_STORE_DIR, f"{'n' * 16}-{'s' * 8}.json")
        assert default_store_path("n" * 64, "t" * 64) != path
