"""Scalar symbolic values: booleans, bitvectors and enumerations.

These classes play the role of Zen's ``Zen<T>`` wrappers in the original
Timepiece implementation: they let network models be written with ordinary
Python operators while building SMT terms underneath.  The same code runs on
fully concrete inputs (constant terms) — the smart constructors fold
constants — which is how the concrete simulator and the verifier share one
definition of every policy.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SymbolicError
from repro.smt import builder
from repro.smt.model import Model
from repro.smt.sorts import BOOL, BitVecSort
from repro.smt.terms import Term
from repro.symbolic.context import fresh_name


class SymBool:
    """A symbolic boolean."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        if term.sort != BOOL:
            raise SymbolicError(f"SymBool needs a boolean term, got sort {term.sort!r}")
        self.term = term

    # -- construction -----------------------------------------------------------

    @staticmethod
    def constant(value: bool) -> "SymBool":
        return SymBool(builder.bool_const(bool(value)))

    @staticmethod
    def true() -> "SymBool":
        return SymBool(builder.true())

    @staticmethod
    def false() -> "SymBool":
        return SymBool(builder.false())

    @staticmethod
    def fresh(prefix: str = "b") -> "SymBool":
        return SymBool(builder.bool_var(fresh_name(prefix)))

    @staticmethod
    def variable(name: str) -> "SymBool":
        return SymBool(builder.bool_var(name))

    @staticmethod
    def lift(value: "SymBool | bool") -> "SymBool":
        if isinstance(value, SymBool):
            return value
        if isinstance(value, bool):
            return SymBool.constant(value)
        raise SymbolicError(f"cannot lift {value!r} to SymBool")

    # -- logic ------------------------------------------------------------------

    def __and__(self, other: "SymBool | bool") -> "SymBool":
        return SymBool(builder.and_(self.term, SymBool.lift(other).term))

    __rand__ = __and__

    def __or__(self, other: "SymBool | bool") -> "SymBool":
        return SymBool(builder.or_(self.term, SymBool.lift(other).term))

    __ror__ = __or__

    def __xor__(self, other: "SymBool | bool") -> "SymBool":
        return SymBool(builder.xor(self.term, SymBool.lift(other).term))

    __rxor__ = __xor__

    def __invert__(self) -> "SymBool":
        return SymBool(builder.not_(self.term))

    def implies(self, other: "SymBool | bool") -> "SymBool":
        return SymBool(builder.implies(self.term, SymBool.lift(other).term))

    def iff(self, other: "SymBool | bool") -> "SymBool":
        return SymBool(builder.iff(self.term, SymBool.lift(other).term))

    def ite(self, then_value: "SymBool | bool", else_value: "SymBool | bool") -> "SymBool":
        return SymBool(
            builder.ite(self.term, SymBool.lift(then_value).term, SymBool.lift(else_value).term)
        )

    def __eq__(self, other: object) -> "SymBool":  # type: ignore[override]
        return self.iff(SymBool.lift(other))  # type: ignore[arg-type]

    def __ne__(self, other: object) -> "SymBool":  # type: ignore[override]
        return ~(self == other)  # type: ignore[operator]

    def __hash__(self) -> int:
        return hash(self.term)

    def __bool__(self) -> bool:
        """Pythonic truthiness only works for concrete values."""
        if self.term.is_bool_const():
            return self.term.bool_value()
        raise SymbolicError(
            "cannot convert a non-constant SymBool to a Python bool; "
            "use .ite(...) or builder combinators instead of `if`"
        )

    # -- inspection ---------------------------------------------------------------

    def is_concrete(self) -> bool:
        return self.term.is_bool_const()

    def concrete_value(self) -> bool:
        if not self.is_concrete():
            raise SymbolicError(f"SymBool is not concrete: {self.term!r}")
        return self.term.bool_value()

    def eval(self, model: Model) -> bool:
        return bool(model.evaluate(self.term))

    def __repr__(self) -> str:
        return f"SymBool({self.term!r})"


def all_of(values: Iterable["SymBool | bool"]) -> SymBool:
    """Conjunction of an iterable of symbolic booleans.

    One n-ary call visits each operand once and yields the same term as the
    left fold ``acc = acc & value``, which re-flattens ``acc`` at every step;
    over anything that grows with the network, collect and call this.
    """
    return SymBool(builder.and_(*[SymBool.lift(v).term for v in values]))


def any_of(values: Iterable["SymBool | bool"]) -> SymBool:
    """Disjunction of an iterable of symbolic booleans."""
    return SymBool(builder.or_(*[SymBool.lift(v).term for v in values]))


class SymBV:
    """A symbolic fixed-width unsigned bitvector."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        if not isinstance(term.sort, BitVecSort):
            raise SymbolicError(f"SymBV needs a bitvector term, got sort {term.sort!r}")
        self.term = term

    # -- construction -----------------------------------------------------------

    @staticmethod
    def constant(value: int, width: int) -> "SymBV":
        return SymBV(builder.bv_const(value, width))

    @staticmethod
    def fresh(width: int, prefix: str = "x") -> "SymBV":
        return SymBV(builder.bv_var(fresh_name(prefix), width))

    @staticmethod
    def variable(name: str, width: int) -> "SymBV":
        return SymBV(builder.bv_var(name, width))

    @property
    def width(self) -> int:
        return self.term.width()

    def _coerce(self, other: "SymBV | int") -> "SymBV":
        if isinstance(other, SymBV):
            if other.width != self.width:
                raise SymbolicError(f"width mismatch: {self.width} vs {other.width}")
            return other
        if isinstance(other, int):
            return SymBV.constant(other, self.width)
        raise SymbolicError(f"cannot coerce {other!r} to SymBV")

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "SymBV | int") -> "SymBV":
        return SymBV(builder.bv_add(self.term, self._coerce(other).term))

    __radd__ = __add__

    def __sub__(self, other: "SymBV | int") -> "SymBV":
        return SymBV(builder.bv_sub(self.term, self._coerce(other).term))

    def saturating_add(self, other: "SymBV | int") -> "SymBV":
        """Addition clamped at the maximum representable value."""
        return SymBV(builder.bv_saturating_add(self.term, self._coerce(other).term))

    def min(self, other: "SymBV | int") -> "SymBV":
        return SymBV(builder.bv_min(self.term, self._coerce(other).term))

    def max(self, other: "SymBV | int") -> "SymBV":
        return SymBV(builder.bv_max(self.term, self._coerce(other).term))

    # -- comparisons --------------------------------------------------------------

    def __lt__(self, other: "SymBV | int") -> SymBool:
        return SymBool(builder.bv_ult(self.term, self._coerce(other).term))

    def __le__(self, other: "SymBV | int") -> SymBool:
        return SymBool(builder.bv_ule(self.term, self._coerce(other).term))

    def __gt__(self, other: "SymBV | int") -> SymBool:
        return SymBool(builder.bv_ugt(self.term, self._coerce(other).term))

    def __ge__(self, other: "SymBV | int") -> SymBool:
        return SymBool(builder.bv_uge(self.term, self._coerce(other).term))

    def __eq__(self, other: object) -> SymBool:  # type: ignore[override]
        if not isinstance(other, (SymBV, int)):
            return SymBool.false()
        return SymBool(builder.eq(self.term, self._coerce(other).term))

    def __ne__(self, other: object) -> SymBool:  # type: ignore[override]
        return ~(self == other)  # type: ignore[operator]

    def __hash__(self) -> int:
        return hash(self.term)

    def ite(self, cond: SymBool, other: "SymBV | int") -> "SymBV":
        """``cond ? self : other`` (kept for symmetry; prefer :func:`ite_value`)."""
        return SymBV(builder.ite(cond.term, self.term, self._coerce(other).term))

    # -- inspection ---------------------------------------------------------------

    def is_concrete(self) -> bool:
        return self.term.is_bv_const()

    def concrete_value(self) -> int:
        if not self.is_concrete():
            raise SymbolicError(f"SymBV is not concrete: {self.term!r}")
        return self.term.bv_value()

    def eval(self, model: Model) -> int:
        return int(model.evaluate(self.term))

    def __repr__(self) -> str:
        return f"SymBV({self.term!r})"


class EnumType:
    """A finite enumeration, encoded as a bitvector of minimal width.

    Instances are shared descriptors (one per enumeration), while the values
    flowing through models are :class:`SymEnum` objects referring back to
    their :class:`EnumType`.
    """

    def __init__(self, name: str, members: Sequence[str]) -> None:
        if not members:
            raise SymbolicError(f"enum {name!r} needs at least one member")
        if len(set(members)) != len(members):
            raise SymbolicError(f"enum {name!r} has duplicate members")
        self.name = name
        self.members = tuple(members)
        self.width = max(1, (len(members) - 1).bit_length())

    def index_of(self, member: str) -> int:
        try:
            return self.members.index(member)
        except ValueError:
            raise SymbolicError(f"{member!r} is not a member of enum {self.name!r}") from None

    def constant(self, member: str) -> "SymEnum":
        return SymEnum(self, SymBV.constant(self.index_of(member), self.width))

    def fresh(self, prefix: str | None = None) -> "SymEnum":
        value = SymBV.fresh(self.width, prefix or self.name)
        return SymEnum(self, value)

    def variable(self, name: str) -> "SymEnum":
        return SymEnum(self, SymBV.variable(name, self.width))

    def in_range(self, value: "SymEnum") -> SymBool:
        """Constraint that a symbolic enum encodes one of the declared members."""
        return value.index < len(self.members)

    def __repr__(self) -> str:
        return f"EnumType({self.name!r}, {list(self.members)!r})"


class SymEnum:
    """A symbolic member of an :class:`EnumType`."""

    __slots__ = ("enum_type", "index")

    def __init__(self, enum_type: EnumType, index: SymBV) -> None:
        if index.width != enum_type.width:
            raise SymbolicError(
                f"enum {enum_type.name!r} expects width {enum_type.width}, got {index.width}"
            )
        self.enum_type = enum_type
        self.index = index

    def is_member(self, member: str) -> SymBool:
        return self.index == self.enum_type.index_of(member)

    def __eq__(self, other: object) -> SymBool:  # type: ignore[override]
        if isinstance(other, str):
            return self.is_member(other)
        if isinstance(other, SymEnum):
            if other.enum_type is not self.enum_type:
                raise SymbolicError("cannot compare members of different enums")
            return self.index == other.index
        return SymBool.false()

    def __ne__(self, other: object) -> SymBool:  # type: ignore[override]
        return ~(self == other)  # type: ignore[operator]

    def __hash__(self) -> int:
        return hash((self.enum_type.name, self.index.term))

    def is_concrete(self) -> bool:
        return self.index.is_concrete()

    def concrete_value(self) -> str:
        position = self.index.concrete_value()
        if position >= len(self.enum_type.members):
            raise SymbolicError(f"enum index {position} out of range for {self.enum_type.name!r}")
        return self.enum_type.members[position]

    def eval(self, model: Model) -> str:
        position = self.index.eval(model)
        members = self.enum_type.members
        return members[position] if position < len(members) else members[-1]

    def __repr__(self) -> str:
        return f"SymEnum({self.enum_type.name}, {self.index.term!r})"
