"""Temporal operators for node interfaces and properties (§3, Figure 12).

An interface ``A(v)`` (and likewise a property ``P(v)``) is a function from a
time ``t`` to a set of routes.  We represent such functions as
:class:`TemporalPredicate` objects: callables taking a symbolic route and a
symbolic time and returning a :class:`~repro.symbolic.values.SymBool`.

The operators of the paper are provided:

* ``G(φ)``       — :func:`globally`
* ``φ U^τ Q``    — :func:`until`
* ``F^τ(Q)``     — :func:`finally_`
* ``Q₁ ⊓ Q₂``    — :meth:`TemporalPredicate.intersect` / ``&``
* ``Q₁ ⊔ Q₂``    — :meth:`TemporalPredicate.union` / ``|``
* ``∼Q``         — :meth:`TemporalPredicate.negate` / ``~``

Every predicate tracks its largest witness time.  Because the operators only
ever compare ``t`` against these finitely many constants, each predicate is
constant for ``t`` beyond its largest witness — this is what makes a bounded
bitvector encoding of the time variable sound *and* complete (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Callable, Union

from repro.errors import VerificationError
from repro.symbolic import SymBV, SymBool

#: A predicate over routes only (the paper's ``φ``).
StatePredicate = Callable[[Any], SymBool]
#: Something acceptable wherever a temporal predicate is expected.
TemporalLike = Union["TemporalPredicate", StatePredicate]


class TemporalPredicate:
    """A time-indexed set of routes: ``(route, time) -> SymBool``."""

    def __init__(
        self,
        evaluate: Callable[[Any, SymBV], SymBool],
        max_witness: int = 0,
        description: str = "",
    ) -> None:
        self._evaluate = evaluate
        self.max_witness = max_witness
        self.description = description or "<temporal predicate>"

    def __call__(self, route: Any, time: SymBV) -> SymBool:
        result = self._evaluate(route, time)
        if not isinstance(result, SymBool):
            raise VerificationError(
                f"temporal predicate {self.description!r} returned "
                f"{type(result).__name__}, expected SymBool"
            )
        return result

    # -- lifted set operations ---------------------------------------------------

    def intersect(self, other: TemporalLike) -> "TemporalPredicate":
        other = lift(other)
        return TemporalPredicate(
            lambda route, time: self(route, time) & other(route, time),
            max_witness=max(self.max_witness, other.max_witness),
            description=f"({self.description} ⊓ {other.description})",
        )

    def union(self, other: TemporalLike) -> "TemporalPredicate":
        other = lift(other)
        return TemporalPredicate(
            lambda route, time: self(route, time) | other(route, time),
            max_witness=max(self.max_witness, other.max_witness),
            description=f"({self.description} ⊔ {other.description})",
        )

    def negate(self) -> "TemporalPredicate":
        return TemporalPredicate(
            lambda route, time: ~self(route, time),
            max_witness=self.max_witness,
            description=f"∼{self.description}",
        )

    __and__ = intersect
    __or__ = union
    __invert__ = negate

    def at_time(self, time_value: int, width: int) -> StatePredicate:
        """Specialise this predicate to the concrete time ``time_value``.

        Used by the Minesweeper-style monolithic baseline, which erases
        temporal structure by evaluating predicates at (or beyond) their
        largest witness time.
        """
        constant_time = SymBV.constant(time_value, width)
        return lambda route: self(route, constant_time)

    def __repr__(self) -> str:
        return f"TemporalPredicate({self.description})"


def lift(predicate: TemporalLike) -> TemporalPredicate:
    """Lift a plain route predicate to a (time-ignoring) temporal predicate."""
    if isinstance(predicate, TemporalPredicate):
        return predicate
    if callable(predicate):
        return TemporalPredicate(
            lambda route, time: SymBool.lift(predicate(route)),
            max_witness=0,
            description=getattr(predicate, "__name__", "<predicate>"),
        )
    raise VerificationError(f"cannot lift {predicate!r} to a temporal predicate")


def globally(predicate: StatePredicate, description: str = "") -> TemporalPredicate:
    """``G(φ)``: the routes satisfying ``φ`` at every time."""
    return TemporalPredicate(
        lambda route, time: SymBool.lift(predicate(route)),
        max_witness=0,
        description=description or f"G({getattr(predicate, '__name__', 'φ')})",
    )


def until(
    witness_time: int,
    before: StatePredicate,
    after: TemporalLike,
    description: str = "",
) -> TemporalPredicate:
    """``φ U^τ Q``: ``φ`` holds strictly before time ``τ``, ``Q`` from ``τ`` on."""
    if witness_time < 0:
        raise VerificationError(f"witness time must be non-negative, got {witness_time}")
    after_predicate = lift(after)

    def evaluate(route: Any, time: SymBV) -> SymBool:
        before_holds = SymBool.lift(before(route))
        after_holds = after_predicate(route, time)
        return (time < witness_time).ite(before_holds, after_holds)

    return TemporalPredicate(
        evaluate,
        max_witness=max(witness_time, after_predicate.max_witness),
        description=description or f"(φ U^{witness_time} {after_predicate.description})",
    )


def until_dynamic(
    witness: Callable[[SymBV], SymBV],
    before: StatePredicate,
    after: TemporalLike,
    max_witness: int,
    description: str = "",
) -> TemporalPredicate:
    """``φ U^w Q`` where the witness time ``w`` is a *symbolic* expression.

    ``witness`` receives the symbolic time variable (so it can build constants
    of the right width) and returns the witness time as a bitvector of the
    same width.  This is how the all-pairs benchmarks express ``dist(v)`` as a
    function of the symbolic destination.  ``max_witness`` must bound every
    value ``witness`` can take; it is used to size the time variable.
    """
    if max_witness < 0:
        raise VerificationError(f"max_witness must be non-negative, got {max_witness}")
    after_predicate = lift(after)
    # The witness is a function of the time term alone (in practice of its
    # width), and can be a long ITE ladder: build it once per time term.
    witnesses: dict[int, SymBV] = {}

    def evaluate(route: Any, time: SymBV) -> SymBool:
        witness_value = witnesses.get(time.term.term_id)
        if witness_value is None:
            witness_value = witnesses[time.term.term_id] = witness(time)
        before_holds = SymBool.lift(before(route))
        after_holds = after_predicate(route, time)
        return (time < witness_value).ite(before_holds, after_holds)

    return TemporalPredicate(
        evaluate,
        max_witness=max(max_witness, after_predicate.max_witness),
        description=description or f"(φ U^<symbolic> {after_predicate.description})",
    )


def finally_dynamic(
    witness: Callable[[SymBV], SymBV],
    after: TemporalLike,
    max_witness: int,
    description: str = "",
) -> TemporalPredicate:
    """``F^w(Q)`` with a symbolic witness time (see :func:`until_dynamic`)."""
    return until_dynamic(
        witness,
        lambda route: SymBool.true(),
        after,
        max_witness,
        description=description or f"F^<symbolic>({lift(after).description})",
    )


def finally_(witness_time: int, after: TemporalLike, description: str = "") -> TemporalPredicate:
    """``F^τ(Q)``: anything before time ``τ``, ``Q`` from ``τ`` on."""
    return until(
        witness_time,
        lambda route: SymBool.true(),
        after,
        description=description or f"F^{witness_time}({lift(after).description})",
    )


def always_true() -> TemporalPredicate:
    """The trivial interface ``G(true)`` (used for unconstrained externals)."""
    return globally(lambda route: SymBool.true(), description="G(true)")


def always_false() -> TemporalPredicate:
    """The empty interface (no route is ever allowed)."""
    return globally(lambda route: SymBool.false(), description="G(false)")
