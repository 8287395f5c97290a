"""Smart constructors for SMT terms.

These constructors perform light-weight, *sound* algebraic simplification
while building terms (constant folding, neutral/absorbing element removal,
double-negation elimination, ...).  They are the only way user code should
build terms: the aggressive sharing plus local rewriting keeps the formulas
produced by the verification-condition encoder small enough for the pure
Python SAT backend.

All constructors are total functions: they validate sorts and raise
:class:`~repro.errors.SortError`/:class:`~repro.errors.TermError` on misuse.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SortError, TermError
from repro.smt.sorts import BOOL, BitVecSort, check_same_sort
from repro.smt.terms import (
    FALSE,
    OP_AND,
    OP_BVADD,
    OP_BVCONST,
    OP_BVSUB,
    OP_BVULE,
    OP_BVULT,
    OP_EQ,
    OP_ITE,
    OP_NOT,
    OP_OR,
    OP_VAR,
    TRUE,
    Term,
    make_term,
)

__all__ = [
    "true",
    "false",
    "bool_const",
    "bool_var",
    "bv_const",
    "bv_var",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "xor",
    "ite",
    "eq",
    "distinct",
    "bv_add",
    "bv_sub",
    "bv_ult",
    "bv_ule",
    "bv_ugt",
    "bv_uge",
    "bv_min",
    "bv_max",
    "bv_saturating_add",
]


# -- constants and variables ---------------------------------------------------


def true() -> Term:
    """The boolean constant ``true``."""
    return TRUE


def false() -> Term:
    """The boolean constant ``false``."""
    return FALSE


def bool_const(value: bool) -> Term:
    """Lift a Python bool into a term."""
    return TRUE if value else FALSE


def bool_var(name: str) -> Term:
    """A boolean variable named ``name``."""
    if not name:
        raise TermError("variable name must be non-empty")
    return make_term(OP_VAR, (), name, BOOL)


def bv_const(value: int, width: int) -> Term:
    """A bitvector constant; ``value`` is truncated to ``width`` bits."""
    sort = BitVecSort(width)
    return make_term(OP_BVCONST, (), sort.mask(int(value)), sort)


def bv_var(name: str, width: int) -> Term:
    """A bitvector variable named ``name`` of the given ``width``."""
    if not name:
        raise TermError("variable name must be non-empty")
    return make_term(OP_VAR, (), name, BitVecSort(width))


# -- boolean connectives -------------------------------------------------------


def not_(arg: Term) -> Term:
    """Boolean negation with double-negation and constant folding."""
    _require_bool(arg, "not")
    if arg.is_true():
        return FALSE
    if arg.is_false():
        return TRUE
    if arg.op == OP_NOT:
        return arg.args[0]
    return make_term(OP_NOT, (arg,), None, BOOL)


def _flatten(op: str, args: Iterable[Term]) -> list[Term]:
    flat: list[Term] = []
    for arg in args:
        if arg.op == op:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    return flat


def and_(*args: Term) -> Term:
    """N-ary conjunction.  Flattens, deduplicates and folds constants."""
    flat = _flatten(OP_AND, args)
    kept: list[Term] = []
    seen: set[int] = set()
    for arg in flat:
        _require_bool(arg, "and")
        if arg.is_false():
            return FALSE
        if arg.is_true() or arg.term_id in seen:
            continue
        seen.add(arg.term_id)
        kept.append(arg)
    for arg in kept:
        if arg.op == OP_NOT and arg.args[0].term_id in seen:
            return FALSE
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return make_term(OP_AND, tuple(kept), None, BOOL)


def or_(*args: Term) -> Term:
    """N-ary disjunction.  Flattens, deduplicates and folds constants."""
    flat = _flatten(OP_OR, args)
    kept: list[Term] = []
    seen: set[int] = set()
    for arg in flat:
        _require_bool(arg, "or")
        if arg.is_true():
            return TRUE
        if arg.is_false() or arg.term_id in seen:
            continue
        seen.add(arg.term_id)
        kept.append(arg)
    for arg in kept:
        if arg.op == OP_NOT and arg.args[0].term_id in seen:
            return TRUE
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return make_term(OP_OR, tuple(kept), None, BOOL)


def implies(antecedent: Term, consequent: Term) -> Term:
    """Material implication, normalised to a disjunction."""
    return or_(not_(antecedent), consequent)


def iff(left: Term, right: Term) -> Term:
    """Boolean equivalence (routed through :func:`eq`)."""
    return eq(left, right)


def xor(left: Term, right: Term) -> Term:
    """Exclusive or, normalised to negated equivalence."""
    return not_(eq(left, right))


def ite(cond: Term, then_branch: Term, else_branch: Term) -> Term:
    """If-then-else over booleans or bitvectors.

    Folds constant conditions, identical branches, and the common boolean
    special cases (``ite(c, true, e)`` etc.).
    """
    _require_bool(cond, "ite condition")
    sort = check_same_sort(then_branch.sort, else_branch.sort, "ite branches")
    if cond.is_true():
        return then_branch
    if cond.is_false():
        return else_branch
    if then_branch is else_branch:
        return then_branch
    if sort == BOOL:
        if then_branch.is_true() and else_branch.is_false():
            return cond
        if then_branch.is_false() and else_branch.is_true():
            return not_(cond)
        if then_branch.is_true():
            return or_(cond, else_branch)
        if then_branch.is_false():
            return and_(not_(cond), else_branch)
        if else_branch.is_true():
            return or_(not_(cond), then_branch)
        if else_branch.is_false():
            return and_(cond, then_branch)
    return make_term(OP_ITE, (cond, then_branch, else_branch), None, sort)


def eq(left: Term, right: Term) -> Term:
    """Equality over booleans or same-width bitvectors."""
    check_same_sort(left.sort, right.sort, "eq")
    if left is right:
        return TRUE
    if left.is_const() and right.is_const():
        return bool_const(left.const_value() == right.const_value())
    if left.sort == BOOL:
        # Fold equivalences with a constant side into the other side.
        if left.is_true():
            return right
        if left.is_false():
            return not_(right)
        if right.is_true():
            return left
        if right.is_false():
            return not_(left)
    return make_term(OP_EQ, _ordered(left, right), None, BOOL)


def distinct(left: Term, right: Term) -> Term:
    """Disequality."""
    return not_(eq(left, right))


def _ordered(left: Term, right: Term) -> tuple[Term, Term]:
    """Canonically order commutative arguments to improve sharing."""
    if left.term_id <= right.term_id:
        return (left, right)
    return (right, left)


# -- bitvector arithmetic and comparisons --------------------------------------


def bv_add(left: Term, right: Term) -> Term:
    """Wrap-around bitvector addition."""
    sort = _require_same_bv(left, right, "bvadd")
    if left.is_bv_const() and right.is_bv_const():
        return bv_const(left.bv_value() + right.bv_value(), sort.width)
    if left.is_bv_const() and left.bv_value() == 0:
        return right
    if right.is_bv_const() and right.bv_value() == 0:
        return left
    return make_term(OP_BVADD, (left, right), None, sort)


def bv_sub(left: Term, right: Term) -> Term:
    """Wrap-around bitvector subtraction."""
    sort = _require_same_bv(left, right, "bvsub")
    if left.is_bv_const() and right.is_bv_const():
        return bv_const(left.bv_value() - right.bv_value(), sort.width)
    if right.is_bv_const() and right.bv_value() == 0:
        return left
    if left is right:
        return bv_const(0, sort.width)
    return make_term(OP_BVSUB, (left, right), None, sort)


def bv_ult(left: Term, right: Term) -> Term:
    """Unsigned strictly-less-than comparison."""
    sort = _require_same_bv(left, right, "bvult")
    if left.is_bv_const() and right.is_bv_const():
        return bool_const(left.bv_value() < right.bv_value())
    if right.is_bv_const() and right.bv_value() == 0:
        return FALSE
    if left.is_bv_const() and left.bv_value() == sort.max_value:
        return FALSE
    if left is right:
        return FALSE
    return make_term(OP_BVULT, (left, right), None, BOOL)


def bv_ule(left: Term, right: Term) -> Term:
    """Unsigned less-than-or-equal comparison."""
    sort = _require_same_bv(left, right, "bvule")
    if left.is_bv_const() and right.is_bv_const():
        return bool_const(left.bv_value() <= right.bv_value())
    if left.is_bv_const() and left.bv_value() == 0:
        return TRUE
    if right.is_bv_const() and right.bv_value() == sort.max_value:
        return TRUE
    if left is right:
        return TRUE
    return make_term(OP_BVULE, (left, right), None, BOOL)


def bv_ugt(left: Term, right: Term) -> Term:
    """Unsigned strictly-greater-than comparison."""
    return bv_ult(right, left)


def bv_uge(left: Term, right: Term) -> Term:
    """Unsigned greater-than-or-equal comparison."""
    return bv_ule(right, left)


def bv_min(left: Term, right: Term) -> Term:
    """The unsigned minimum of two bitvectors."""
    return ite(bv_ule(left, right), left, right)


def bv_max(left: Term, right: Term) -> Term:
    """The unsigned maximum of two bitvectors."""
    return ite(bv_ule(left, right), right, left)


def bv_saturating_add(left: Term, right: Term) -> Term:
    """Addition that clamps at the maximum value instead of wrapping.

    Used for path-length counters so that a narrow bitvector encoding of an
    unbounded integer can never wrap back to a "better" (smaller) value.
    """
    sort = _require_same_bv(left, right, "bv_saturating_add")
    top = bv_const(sort.max_value, sort.width)
    total = bv_add(left, right)
    overflowed = bv_ult(total, left)
    return ite(overflowed, top, total)


# -- helpers -------------------------------------------------------------------


def _require_bool(term: Term, context: str) -> None:
    if term.sort != BOOL:
        raise SortError(f"{context}: expected a boolean term, got sort {term.sort!r}")


def _require_same_bv(left: Term, right: Term, context: str) -> BitVecSort:
    if not isinstance(left.sort, BitVecSort) or not isinstance(right.sort, BitVecSort):
        raise SortError(f"{context}: expected bitvector terms, got {left.sort!r} and {right.sort!r}")
    check_same_sort(left.sort, right.sort, context)
    return left.sort
