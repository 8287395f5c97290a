"""TP001: the well-sortedness walker over verification-condition cones.

Two failure modes surface here.  *Build failures*: applying a user
annotation can raise ``SortError``/``SymbolicError``/``VerificationError``
deep inside the term builder — this pass converts the exception into one
diagnostic naming the node instead of a ten-frame traceback.  *Ill-sorted
terms*: the smart constructors make these unconstructible through the public
API, but terms also arrive via pickling (parallel workers) and the low-level
``make_term`` escape hatch, so each condition's cone is re-checked
operator-by-operator and violations are reported with a precise
root-to-offender path (e.g. ``assumptions/and[1]/ite[0]``).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget
from repro.errors import ReproError
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
)

#: Expected argument counts per operator (``None``: any arity >= 1).
_ARITIES: dict[str, int | None] = {
    OP_TRUE: 0,
    OP_FALSE: 0,
    OP_VAR: 0,
    OP_BVCONST: 0,
    OP_NOT: 1,
    OP_AND: None,
    OP_OR: None,
    OP_ITE: 3,
    OP_EQ: 2,
    OP_BVADD: 2,
    OP_BVSUB: 2,
    OP_BVULT: 2,
    OP_BVULE: 2,
}


#: Term ids whose entire cones have been proven well-sorted.  Terms are
#: interned process-wide with monotonically increasing ids (never reused),
#: and are immutable, so a cone cleared once is clear forever; the set only
#: holds ints for terms the intern table keeps alive anyway.  Ill-sorted
#: terms — and any term containing one — are never added, so they are
#: re-reported on every lint run.
_CLEAN_CONES: set[int] = set()


def check_term_sorts(root: Term, visited: set[int] | None = None) -> list[tuple[Term, str]]:
    """Every ill-sorted subterm of ``root`` with a one-line explanation.

    A sound re-statement of the builder's sort rules over raw terms; an
    empty list means the whole cone is well-sorted.  ``visited`` is a set of
    term ids whose entire cones are already known clean: it prunes the walk
    and is extended with every newly cleared cone, so a caller sharing one
    set across many (heavily shared) roots walks each unique clean term
    once.
    """
    problems: list[tuple[Term, str]] = []
    if visited is not None and root.term_id in visited:
        return problems
    clean: dict[int, bool] = {}

    def is_clean(term: Term) -> bool:
        if visited is not None and term.term_id in visited:
            return True
        return clean.get(term.term_id, False)

    # Post-order DFS over first-visit edges; terms form a DAG, so when a
    # parent's post-visit runs every child — including children shared with
    # an earlier subtree — has completed its own post-visit.
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        term, expanded = stack.pop()
        if expanded:
            message = _check_one(term)
            if message is not None:
                problems.append((term, message))
            cone_clean = message is None and all(is_clean(arg) for arg in term.args)
            clean[term.term_id] = cone_clean
            if cone_clean and visited is not None:
                visited.add(term.term_id)
            continue
        if is_clean(term) or term.term_id in clean:
            continue
        # Reserve the slot so sharing within this walk expands the term once.
        clean.setdefault(term.term_id, False)
        stack.append((term, True))
        for arg in term.args:
            stack.append((arg, False))
    return problems


def _check_one(term: Term) -> str | None:
    arity = _ARITIES.get(term.op)
    if term.op not in _ARITIES:
        return f"unknown operator {term.op!r}"
    if arity is None:
        if not term.args:
            return f"{term.op} needs at least one argument"
    elif len(term.args) != arity:
        return f"{term.op} expects {arity} argument(s), got {len(term.args)}"

    if term.op in (OP_TRUE, OP_FALSE):
        return None if term.sort == BOOL else f"{term.op} must be BOOL-sorted, got {term.sort!r}"
    if term.op == OP_VAR:
        if not isinstance(term.payload, str) or not term.payload:
            return f"variable payload must be a non-empty name, got {term.payload!r}"
        return None
    if term.op == OP_BVCONST:
        if not isinstance(term.sort, BitVecSort):
            return f"bvconst must be bitvector-sorted, got {term.sort!r}"
        if not isinstance(term.payload, int) or not 0 <= term.payload <= term.sort.max_value:
            return (
                f"bvconst value {term.payload!r} out of range for {term.sort!r} "
                f"(0..{term.sort.max_value})"
            )
        return None
    if term.op in (OP_NOT, OP_AND, OP_OR):
        if term.sort != BOOL:
            return f"{term.op} must be BOOL-sorted, got {term.sort!r}"
        for index, arg in enumerate(term.args):
            if arg.sort != BOOL:
                return f"argument {index} of {term.op} has sort {arg.sort!r}, expected BOOL"
        return None
    if term.op == OP_ITE:
        condition, then_branch, else_branch = term.args
        if condition.sort != BOOL:
            return f"ite condition has sort {condition.sort!r}, expected BOOL"
        if then_branch.sort != else_branch.sort:
            return (
                f"ite branches disagree: {then_branch.sort!r} vs {else_branch.sort!r}"
            )
        if term.sort != then_branch.sort:
            return f"ite is {term.sort!r}-sorted but its branches are {then_branch.sort!r}"
        return None
    if term.op == OP_EQ:
        left, right = term.args
        if left.sort != right.sort:
            return f"eq compares {left.sort!r} with {right.sort!r}"
        if term.sort != BOOL:
            return f"eq must be BOOL-sorted, got {term.sort!r}"
        return None
    if term.op in (OP_BVADD, OP_BVSUB):
        left, right = term.args
        if not isinstance(term.sort, BitVecSort):
            return f"{term.op} must be bitvector-sorted, got {term.sort!r}"
        if left.sort != term.sort or right.sort != term.sort:
            return (
                f"{term.op} of {term.sort!r} has arguments sorted "
                f"{left.sort!r} and {right.sort!r}"
            )
        return None
    # OP_BVULT / OP_BVULE
    left, right = term.args
    if not isinstance(left.sort, BitVecSort) or left.sort != right.sort:
        return f"{term.op} compares {left.sort!r} with {right.sort!r}"
    if term.sort != BOOL:
        return f"{term.op} must be BOOL-sorted, got {term.sort!r}"
    return None


def term_path(root: Term, target: Term) -> str | None:
    """The first root-to-``target`` operator path, e.g. ``and[1]/ite[0]``.

    Terms form a DAG, so several paths may reach ``target``; the first in a
    deterministic depth-first order is reported — enough to locate the
    offender, without enumerating exponentially many routes.
    """
    if root is target:
        return ""
    # (term, path-so-far); DFS over first-visit edges only.
    stack: list[tuple[Term, str]] = [(root, "")]
    seen: set[int] = set()
    while stack:
        term, path = stack.pop()
        if term.term_id in seen:
            continue
        seen.add(term.term_id)
        for index, arg in enumerate(term.args):
            step = f"{path}/{term.op}[{index}]" if path else f"{term.op}[{index}]"
            if arg is target:
                return step
            stack.append((arg, step))
    return None


class SortCheckPass(AnalysisPass):
    """Re-check every condition cone's sorts; turn build errors into TP001."""

    name = "sorts"

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        # Every node's annotation applications are checked (cheap — the
        # probes are shared with the coverage pass); broken annotations on
        # symmetry-class members surface here even though only the class
        # representatives' full condition cones are rebuilt below.
        for node in target.nodes:
            for kind in ("interface", "property"):
                try:
                    target.annotation_term(node, kind)
                except ReproError as error:
                    yield diagnostic(
                        "TP001",
                        f"applying the {kind} of {node!r} to a symbolic route "
                        f"and time failed: {type(error).__name__}: {error}",
                        node=node,
                    )

        # The process-wide clean-cone set: conditions share most of their
        # DAG (isomorphic nodes share *all* of it, and repeated
        # lint runs re-derive the identical interned terms), so each unique
        # term is sort-checked once per process.  Sound because terms are
        # immutable and ids are never reused; ill-sorted cones are never
        # added, so findings recur on every run.
        visited = _CLEAN_CONES
        for node in target.deep_nodes():
            try:
                conditions = target.conditions(node)
            except ReproError as error:
                yield diagnostic(
                    "TP001",
                    f"building the verification conditions of {node!r} failed: "
                    f"{type(error).__name__}: {error}",
                    node=node,
                )
                continue
            for condition in conditions:
                for root_name, root in (
                    ("assumptions", condition.assumptions.term),
                    ("goal", condition.goal.term),
                ):
                    for term, message in check_term_sorts(root, visited):
                        path = term_path(root, term)
                        located = root_name if not path else f"{root_name}/{path}"
                        yield diagnostic(
                            "TP001",
                            message,
                            node=node,
                            condition=condition.kind,
                            term_path=located,
                        )
