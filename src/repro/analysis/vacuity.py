"""TP002/TP003/TP005/TP006: vacuity and contradiction detection, no SAT.

Two layers of checking, both purely syntactic over the folded term DAG:

* **Annotation probes** — applying an interface to a *fully symbolic* route
  and time goes through the smart constructors, so a trivially-true
  interface folds to the constant ``true`` (TP002: every inductive step is
  vacuous, the interface proves nothing about its node) and a
  trivially-false one folds to ``false`` (TP003: the initial condition can
  never hold).  A trivially-true interface is only *suspicious* when the
  node's property is non-trivial — the WAN benchmark deliberately leaves
  internal routers unconstrained with ``G(true)`` interfaces *and*
  properties, which is a coverage note (TP007), not a warning.

* **Condition folding + Boolean constraint propagation** — each condition is
  an ``assumptions ⟹ goal`` query.  Unit facts syntactically conjoined in
  the assumptions (``x``, ``¬x``, ``x = c``) are propagated into both sides
  with :func:`repro.smt.walker.substitute`, whose builder-backed rebuild
  re-folds constants; repeated to a fixpoint this is textbook BCP on the
  term DAG.  Assumptions that collapse to ``false`` make the condition
  vacuous (TP005); a goal that collapses to ``false`` under satisfiable-
  looking assumptions is unprovable (TP006) — the SAT run can only
  corroborate with a counterexample.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.analysis.passes import AnalysisPass, LintTarget
from repro.errors import ReproError
from repro.smt.sorts import BOOL
from repro.smt.terms import FALSE, OP_AND, OP_EQ, OP_NOT, OP_VAR, TRUE, Term
from repro.smt.walker import substitute

#: Fixpoint bound for unit propagation rounds.  Each productive round
#: eliminates at least one variable, so real fixpoints arrive much earlier;
#: the bound only guards against pathological self-sustaining rewrites.
MAX_PROPAGATION_ROUNDS = 32


def conjuncts(term: Term) -> Iterator[Term]:
    """The flattened conjuncts of a (possibly nested) conjunction."""
    stack = [term]
    while stack:
        current = stack.pop()
        if current.op == OP_AND:
            stack.extend(current.args)
        else:
            yield current


def unit_assignments(assumptions: Term) -> dict[str, Term] | None:
    """Unit facts syntactically forced by ``assumptions``.

    Recognises conjuncts of the form ``x`` (boolean var), ``¬x``, and
    ``x = c`` / ``c = x`` for constant ``c``.  Returns ``None`` when two
    units contradict each other (e.g. ``x ∧ ¬x``) — the assumptions are
    unsatisfiable outright.
    """
    units: dict[str, Term] = {}

    def record(name: str, value: Term) -> bool:
        existing = units.get(name)
        if existing is not None and existing is not value:
            return False
        units[name] = value
        return True

    for conjunct in conjuncts(assumptions):
        if conjunct.op == OP_VAR and conjunct.sort == BOOL:
            if not record(conjunct.payload, TRUE):
                return None
        elif conjunct.op == OP_NOT and conjunct.args[0].op == OP_VAR:
            if not record(conjunct.args[0].payload, FALSE):
                return None
        elif conjunct.op == OP_EQ:
            left, right = conjunct.args
            if left.op == OP_VAR and right.is_const():
                if not record(left.payload, right):
                    return None
            elif right.op == OP_VAR and left.is_const():
                if not record(right.payload, left):
                    return None
    return units


def propagate(assumptions: Term, goal: Term) -> tuple[Term, Term]:
    """Constant folding + BCP to fixpoint over an ``assumptions ⟹ goal`` pair.

    Facts are only ever drawn from the assumptions and substituted into both
    sides; the rebuild runs through the smart constructors, so every
    substitution re-folds constants through the whole cone.  Sound for
    implication checking: under the assumptions, each unit's variable *is*
    its value.
    """
    for _ in range(MAX_PROPAGATION_ROUNDS):
        if assumptions.is_false():
            break
        units = unit_assignments(assumptions)
        if units is None:
            return FALSE, goal
        if not units:
            break
        new_assumptions = substitute(assumptions, units)
        new_goal = substitute(goal, units)
        if new_assumptions is assumptions and new_goal is goal:
            break
        assumptions, goal = new_assumptions, new_goal
    return assumptions, goal


class VacuityPass(AnalysisPass):
    """Flag trivially true/false interfaces and refuted/vacuous conditions."""

    name = "vacuity"

    def run(self, target: LintTarget) -> Iterator[Diagnostic]:
        # Annotation probes cover every node (they are shared, memoised
        # applications); the condition-level BCP below rebuilds full
        # verification conditions and therefore runs only on the deep set —
        # class representatives plus unhinted nodes (see
        # ``LintTarget.deep_nodes``); member divergence is the coverage
        # pass's TP008.
        deep = set(target.deep_nodes())
        for node in target.nodes:
            interface_value = target.interface_value(node)
            if interface_value is False:
                yield diagnostic(
                    "TP003",
                    f"the interface of {node!r} "
                    f"({target.annotated.interface(node).description}) rejects every "
                    "route at every time: its initial condition cannot hold and its "
                    "safety condition is vacuous",
                    node=node,
                )
                # The per-condition findings below would all be downstream
                # symptoms of this one root cause.
                continue
            if interface_value is True and target.property_value(node) is not True:
                yield diagnostic(
                    "TP002",
                    f"the interface of {node!r} "
                    f"({target.annotated.interface(node).description}) accepts every "
                    "route at every time, so induction through it is vacuous and the "
                    f"non-trivial property of {node!r} cannot follow from it",
                    node=node,
                )

            if node not in deep:
                continue
            try:
                conditions = target.conditions(node)
            except ReproError:
                continue  # reported as TP001 by the sort pass
            # BCP is a pure function of the (interned, immutable) term pair;
            # memoised per network so repeated lint runs skip the fixpoint.
            bcp = target.memo("bcp")
            for condition in conditions:
                key = (condition.assumptions.term.term_id, condition.goal.term.term_id)
                folded = bcp.get(key)
                if folded is None:
                    folded = propagate(condition.assumptions.term, condition.goal.term)
                    bcp[key] = folded
                assumptions, goal = folded
                if assumptions.is_false():
                    yield diagnostic(
                        "TP005",
                        f"the {condition.kind} condition of {node!r} has "
                        "contradictory assumptions: it holds vacuously and "
                        "verifies nothing",
                        node=node,
                        condition=condition.kind,
                    )
                elif goal.is_false():
                    yield diagnostic(
                        "TP006",
                        f"the {condition.kind} condition of {node!r} has a "
                        "constant-false goal under constraint propagation: the SAT "
                        "check can only fail",
                        node=node,
                        condition=condition.kind,
                    )
