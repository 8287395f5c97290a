"""Tests for the strategy objects."""

import dataclasses

import pytest

from repro.networks import registry
from repro.verify import DELTA_MODES, Modular, Monolithic, Session, Strawperson


class TestValidation:
    def test_defaults_are_valid(self):
        assert Modular().symmetry == "off"
        assert Monolithic().timeout is None
        assert Strawperson().interfaces is None

    def test_unknown_symmetry_names_the_modes(self):
        with pytest.raises(ValueError) as excinfo:
            Modular(symmetry="sideways")
        assert "off" in str(excinfo.value) and "classes" in str(excinfo.value)

    def test_backend_is_not_a_knob(self):
        # One engine path: the solver is the session's, not a strategy field.
        with pytest.raises(TypeError, match="backend"):
            Modular(backend="fresh")

    def test_condition_subsets_and_fail_fast_are_not_knobs(self):
        # Every run checks all three kinds and stops a node at its first failure.
        with pytest.raises(TypeError, match="conditions"):
            Modular(conditions=("safety",))
        with pytest.raises(TypeError, match="fail_fast"):
            Modular(fail_fast=False)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("parallel", 0),
            ("parallel", 2.5),
            ("parallel", "2"),
            ("parallel", True),
            ("delay", -1),
            ("delay", 1.5),
            ("delay", True),
        ],
    )
    def test_bad_parallel_and_delay(self, field, value):
        # A non-int fails here, naming the field, not later inside the pool
        # or the condition builder; a bool is not a worker count or a delay.
        with pytest.raises(ValueError, match=field):
            Modular(**{field: value})

    def test_stop_on_failure_must_be_a_bool(self):
        # A truthy string (e.g. "false" from a config file) must not
        # silently flip the run-level fail-fast.
        with pytest.raises(ValueError, match="stop_on_failure"):
            Modular(stop_on_failure="false")
        assert Modular(stop_on_failure=True).stop_on_failure is True

    def test_bad_monolithic_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            Monolithic(timeout=0)
        with pytest.raises(ValueError, match="timeout"):
            Monolithic(timeout=-5)

    def test_bad_strawperson_interfaces(self):
        with pytest.raises(ValueError, match="mapping"):
            Strawperson(interfaces=42)
        # __getitem__ alone is not enough: node→predicate mappings only.
        with pytest.raises(ValueError, match="mapping"):
            Strawperson(interfaces=["a", "b"])

    def test_unknown_delta_mode_names_the_modes(self):
        with pytest.raises(ValueError) as excinfo:
            Modular(delta="cached")
        for mode in DELTA_MODES:
            assert mode in str(excinfo.value)

    def test_store_requires_delta_reuse(self):
        # A store that is never read or written would be a silent no-op.
        with pytest.raises(ValueError, match="store"):
            Modular(store="/tmp/somewhere.json")
        with pytest.raises(ValueError, match="path string"):
            Modular(delta="reuse", store=42)
        assert Modular(delta="reuse", store="s.json").store == "s.json"
        assert Modular(delta="reuse").store is None

    def test_strategies_are_frozen(self):
        modular = Modular()
        with pytest.raises(dataclasses.FrozenInstanceError):
            modular.symmetry = "classes"


class TestEveryFieldReachesTheEngine:
    """Regression for knob-dropping: no strategy field may be lost on the way.

    The engine receives the whole strategy object; this test pins down,
    field by field, how each :class:`Modular` field steers the engine — and
    fails if a new field is added without wiring (and testing) it.
    """

    #: Fields consumed per batch (value must arrive in the kwargs of
    #: check_class) vs fields steering the engine loop itself (asserted
    #: individually below).
    OPTION_FIELDS = {"delay": 3}
    LOOP_FIELDS = {
        "symmetry",
        "parallel",
        "stop_on_failure",
        "delta",
        "store",
    }

    def test_field_inventory_is_complete(self):
        names = {field.name for field in dataclasses.fields(Modular)}
        assert names == set(self.OPTION_FIELDS) | self.LOOP_FIELDS

    def _captured_check_kwargs(self, monkeypatch, strategy_obj):
        """Run ghost/reach under ``strategy_obj``; the kwargs check_class received."""
        import repro.core.parallel as parallel_module

        captured = {}
        original = parallel_module.check_class

        def capture(annotated, symmetry_class, **kwargs):
            captured.update(kwargs)
            return original(annotated, symmetry_class, **kwargs)

        monkeypatch.setattr(parallel_module, "check_class", capture)
        with Session(registry.build("ghost/reach").annotated, strategy_obj) as session:
            session.run()
        return captured

    def test_option_fields_arrive_in_batch_kwargs(self, monkeypatch):
        captured = self._captured_check_kwargs(monkeypatch, Modular(**self.OPTION_FIELDS))
        for name, value in self.OPTION_FIELDS.items():
            assert captured[name] == value, f"field {name!r} did not reach the engine"

    def test_parallel_reaches_the_engine(self, monkeypatch):
        benchmark = registry.build("fattree/reach", pods=4)
        seen = {}

        import repro.verify.session as session_module

        original = session_module.iter_class_batches

        def capture(annotated, classes, **kwargs):
            seen["jobs"] = kwargs.get("jobs")
            return original(annotated, classes, **kwargs)

        monkeypatch.setattr(session_module, "iter_class_batches", capture)
        with Session(benchmark.annotated, Modular(parallel=2)) as session:
            report = session.run()
        assert seen["jobs"] == 2
        assert report.parallelism == 2

    def test_stop_on_failure_reaches_the_engine(self, one_failing_node_annotated):
        # One failing node in the middle of the schedule.
        annotated = one_failing_node_annotated(length=6, failing="n2")

        with Session(annotated, Modular()) as session:
            full = session.run()
        with Session(annotated, Modular(stop_on_failure=True)) as session:
            stopped = session.run()
        assert not full.passed and not full.stopped_early
        assert stopped.stopped_early and not stopped.passed
        assert stopped.conditions_checked < full.conditions_checked
        assert stopped.conditions_skipped > 0

    def test_delta_and_store_reach_the_engine(self, tmp_path):
        benchmark = registry.build("ghost/reach")
        store = str(tmp_path / "delta.json")
        with Session(benchmark.annotated, Modular(delta="reuse", store=store)) as session:
            cold = session.run()
        assert cold.delta == "reuse" and cold.conditions_reused == 0
        # The store field steered where the engine persisted the run.
        assert (tmp_path / "delta.json").exists()
        with Session(benchmark.annotated, Modular(delta="reuse", store=store)) as session:
            warm = session.run()
        assert warm.conditions_reused == warm.conditions_checked > 0

    def test_symmetry_reaches_the_report(self):
        benchmark = registry.build("fattree/reach", pods=4, all_pairs=True)
        with Session(benchmark.annotated, Modular(symmetry="classes")) as session:
            report = session.run()
        assert report.symmetry == "classes"
        assert report.symmetry_classes is not None
        assert report.conditions_propagated > 0
