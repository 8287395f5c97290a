"""Tests for the temporal operators (G, U, F, ⊓, ⊔, ∼)."""

import pytest

from repro import core
from repro.errors import VerificationError
from repro.symbolic import BitVecShape, OptionShape, SymBV, SymBool

SHAPE = OptionShape(BitVecShape(8))
WIDTH = 4


def at(predicate, route, time):
    """Evaluate a temporal predicate at a concrete time, returning a bool."""
    return predicate(route, SymBV.constant(time, WIDTH)).concrete_value()


def has_route(route):
    return route.is_some


def small(route):
    return route.is_some & (route.payload <= 3)


class TestGlobally:
    def test_time_independent(self):
        predicate = core.globally(has_route)
        present, absent = SHAPE.some(1), SHAPE.none()
        for time in (0, 1, 5, 15):
            assert at(predicate, present, time) is True
            assert at(predicate, absent, time) is False

    def test_max_witness_is_zero(self):
        assert core.globally(has_route).max_witness == 0

    def test_always_true_false(self):
        route = SHAPE.none()
        assert at(core.always_true(), route, 3) is True
        assert at(core.always_false(), route, 3) is False


class TestUntilAndFinally:
    def test_until_switches_at_witness(self):
        predicate = core.until(2, lambda r: r.is_none, core.globally(has_route))
        absent, present = SHAPE.none(), SHAPE.some(1)
        assert at(predicate, absent, 0) is True
        assert at(predicate, absent, 1) is True
        assert at(predicate, absent, 2) is False
        assert at(predicate, present, 1) is False
        assert at(predicate, present, 2) is True
        assert at(predicate, present, 9) is True

    def test_finally_allows_anything_before(self):
        predicate = core.finally_(3, core.globally(has_route))
        absent, present = SHAPE.none(), SHAPE.some(1)
        assert at(predicate, absent, 0) is True
        assert at(predicate, absent, 2) is True
        assert at(predicate, absent, 3) is False
        assert at(predicate, present, 3) is True

    def test_witness_zero_is_globally(self):
        predicate = core.until(0, lambda r: r.is_none, core.globally(has_route))
        assert at(predicate, SHAPE.none(), 0) is False
        assert at(predicate, SHAPE.some(1), 0) is True

    def test_negative_witness_rejected(self):
        with pytest.raises(VerificationError):
            core.until(-1, has_route, core.globally(has_route))
        with pytest.raises(VerificationError):
            core.until_dynamic(lambda t: t, has_route, core.globally(has_route), max_witness=-2)

    def test_max_witness_tracking(self):
        inner = core.finally_(5, core.globally(has_route))
        outer = core.until(2, lambda r: r.is_none, inner)
        assert outer.max_witness == 5
        assert core.finally_(3, core.globally(has_route)).max_witness == 3

    def test_nested_operators(self):
        # F^2 (φ U^4 G(ψ)): true before 2, φ between 2 and 3, ψ from 4 on.
        predicate = core.finally_(2, core.until(4, small, core.globally(has_route)))
        big = SHAPE.some(200)
        tiny = SHAPE.some(1)
        absent = SHAPE.none()
        assert at(predicate, big, 0) is True
        assert at(predicate, big, 2) is False
        assert at(predicate, tiny, 2) is True
        assert at(predicate, absent, 3) is False
        assert at(predicate, big, 4) is True
        assert at(predicate, absent, 5) is False


class TestCombinators:
    def test_intersection_and_union(self):
        left = core.globally(has_route)
        right = core.globally(small)
        both = left & right
        either = left | right
        big = SHAPE.some(200)
        assert at(both, big, 0) is False
        assert at(either, big, 0) is True
        assert max(both.max_witness, either.max_witness) == 0

    def test_negation(self):
        predicate = ~core.globally(has_route)
        assert at(predicate, SHAPE.none(), 1) is True
        assert at(predicate, SHAPE.some(1), 1) is False

    def test_lift_plain_predicate(self):
        lifted = core.lift(has_route)
        assert at(lifted, SHAPE.some(1), 7) is True
        already = core.globally(has_route)
        assert core.lift(already) is already
        with pytest.raises(VerificationError):
            core.lift("not a predicate")

    def test_predicate_must_return_symbool(self):
        broken = core.TemporalPredicate(lambda route, time: 42)
        with pytest.raises(VerificationError):
            broken(SHAPE.none(), SymBV.constant(0, WIDTH))

    def test_at_time_specialisation(self):
        predicate = core.finally_(2, core.globally(has_route))
        stable = predicate.at_time(2, WIDTH)
        assert stable(SHAPE.none()).concrete_value() is False
        assert stable(SHAPE.some(1)).concrete_value() is True


class TestDynamicWitness:
    def test_until_dynamic_matches_concrete_until(self):
        dynamic = core.until_dynamic(
            lambda time: SymBV.constant(2, time.width),
            lambda r: r.is_none,
            core.globally(has_route),
            max_witness=2,
        )
        concrete = core.until(2, lambda r: r.is_none, core.globally(has_route))
        for time in range(5):
            for route in (SHAPE.none(), SHAPE.some(1)):
                assert at(dynamic, route, time) == at(concrete, route, time)

    def test_finally_dynamic(self):
        predicate = core.finally_dynamic(
            lambda time: SymBV.constant(1, time.width), core.globally(has_route), max_witness=4
        )
        assert predicate.max_witness == 4
        assert at(predicate, SHAPE.none(), 0) is True
        assert at(predicate, SHAPE.none(), 1) is False

    def test_witness_is_built_once_per_time_term(self):
        """The witness may be a long ITE ladder: one build per distinct time."""
        widths = []

        def witness(time):
            widths.append(time.width)
            return SymBV.constant(2, time.width)

        predicate = core.until_dynamic(
            witness, lambda r: r.is_none, core.globally(has_route), max_witness=2
        )
        time = SymBV.fresh(WIDTH, "t")
        for route in (SHAPE.none(), SHAPE.some(1), SHAPE.fresh("r")):
            predicate(route, time)
            predicate(route, time + 1)
        assert widths == [WIDTH, WIDTH]
        predicate(SHAPE.none(), SymBV.fresh(WIDTH + 1, "t"))
        assert widths == [WIDTH, WIDTH, WIDTH + 1]
