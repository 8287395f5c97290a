"""Traversal utilities over the term DAG: substitution and evaluation.

Both operations are memoised on term identity, so shared subterms are
processed once regardless of how many paths reach them.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import TermError
from repro.smt import builder
from repro.smt.sorts import BOOL, BitVecSort
from repro.smt.terms import (
    OP_AND,
    OP_BVADD,
    OP_BVCONST,
    OP_BVSUB,
    OP_BVULE,
    OP_BVULT,
    OP_EQ,
    OP_FALSE,
    OP_ITE,
    OP_NOT,
    OP_OR,
    OP_TRUE,
    OP_VAR,
    Term,
    iter_subterms,
)


def rebuild(root: Term, leaf_map: Callable[[Term], Term | None]) -> Term:
    """Rebuild ``root`` bottom-up through the smart constructors.

    ``leaf_map`` may return a replacement term for any subterm (applied before
    the subterm's children are considered) or ``None`` to keep rebuilding.
    Because the rebuild goes through :mod:`repro.smt.builder`, any constants
    introduced by the mapping are folded through the whole term.
    """
    cache: dict[int, Term] = {}
    for term in iter_subterms(root):
        replacement = leaf_map(term)
        if replacement is not None:
            cache[term.term_id] = replacement
            continue
        new_args = tuple(cache[a.term_id] for a in term.args)
        cache[term.term_id] = _rebuild_node(term, new_args)
    return cache[root.term_id]


def _rebuild_node(term: Term, args: tuple[Term, ...]) -> Term:
    if all(new is old for new, old in zip(args, term.args)):
        return term
    if term.op == OP_NOT:
        return builder.not_(args[0])
    if term.op == OP_AND:
        return builder.and_(*args)
    if term.op == OP_OR:
        return builder.or_(*args)
    if term.op == OP_ITE:
        return builder.ite(args[0], args[1], args[2])
    if term.op == OP_EQ:
        return builder.eq(args[0], args[1])
    if term.op == OP_BVADD:
        return builder.bv_add(args[0], args[1])
    if term.op == OP_BVSUB:
        return builder.bv_sub(args[0], args[1])
    if term.op == OP_BVULT:
        return builder.bv_ult(args[0], args[1])
    if term.op == OP_BVULE:
        return builder.bv_ule(args[0], args[1])
    raise TermError(f"cannot rebuild operator {term.op!r}")


def substitute(root: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace free variables of ``root`` by name according to ``mapping``."""

    def map_leaf(term: Term) -> Term | None:
        if term.op == OP_VAR and term.payload in mapping:
            replacement = mapping[term.payload]
            if replacement.sort != term.sort:
                raise TermError(
                    f"substitution for {term.payload!r} has sort {replacement.sort!r}, "
                    f"expected {term.sort!r}"
                )
            return replacement
        return None

    return rebuild(root, map_leaf)


def evaluate(root: Term, env: Mapping[str, bool | int], default: bool = True) -> bool | int:
    """Evaluate ``root`` under the variable assignment ``env``.

    Boolean variables map to ``bool`` and bitvector variables to ``int``.
    Unassigned variables evaluate to ``False``/``0`` when ``default`` is true,
    otherwise evaluation raises :class:`TermError`.
    """
    cache: dict[int, bool | int] = {}
    for term in iter_subterms(root):
        cache[term.term_id] = _evaluate_node(term, cache, env, default)
    return cache[root.term_id]


def _evaluate_node(
    term: Term,
    cache: Mapping[int, bool | int],
    env: Mapping[str, bool | int],
    default: bool,
) -> bool | int:
    op = term.op
    if op == OP_TRUE:
        return True
    if op == OP_FALSE:
        return False
    if op == OP_BVCONST:
        return term.bv_value()
    if op == OP_VAR:
        if term.payload in env:
            value = env[term.payload]
            if term.sort == BOOL:
                return bool(value)
            return term.sort.mask(int(value))
        if not default:
            raise TermError(f"no value for variable {term.payload!r}")
        return False if term.sort == BOOL else 0
    args = [cache[a.term_id] for a in term.args]
    if op == OP_NOT:
        return not args[0]
    if op == OP_AND:
        return all(args)
    if op == OP_OR:
        return any(args)
    if op == OP_ITE:
        return args[1] if args[0] else args[2]
    if op == OP_EQ:
        return args[0] == args[1]
    if op == OP_BVADD:
        assert isinstance(term.sort, BitVecSort)
        return term.sort.mask(int(args[0]) + int(args[1]))
    if op == OP_BVSUB:
        assert isinstance(term.sort, BitVecSort)
        return term.sort.mask(int(args[0]) - int(args[1]))
    if op == OP_BVULT:
        return int(args[0]) < int(args[1])
    if op == OP_BVULE:
        return int(args[0]) <= int(args[1])
    raise TermError(f"cannot evaluate operator {op!r}")
