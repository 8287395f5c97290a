"""The bit-blaster and Tseitin encoder against the term evaluator.

A pass is an UNSAT answer, and a certificate for it would prove only that
the CNF is unsatisfiable.  This property closes the other half: the CNF says
what the term says.  For a drawn term and a drawn assignment of its inputs,
the CNF plus the input literals must be satisfiable with the root fixed to
``walker.evaluate``'s value, and unsatisfiable with the root fixed to
anything else.  The two questions are decided by a small DPLL in this file,
so nothing from ``repro.smt.sat`` is trusted; ``walker.evaluate`` shares only
the term representation with the encoder.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro import smt
from repro.smt.bitblast import BitBlaster, bit_name
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
    iter_subterms,
)
from repro.smt.tseitin import TseitinEncoder
from repro.smt.walker import evaluate

BOOL_NAMES = ("p", "q", "r")
BV_NAMES = ("x", "y", "z")


def _assign(clauses, true):
    """``clauses`` with every literal in ``true`` set, or ``None`` on an empty clause."""
    reduced = []
    for clause in clauses:
        if any(literal in true for literal in clause):
            continue
        clause = [literal for literal in clause if -literal not in true]
        if not clause:
            return None
        reduced.append(clause)
    return reduced


def _satisfiable(clauses):
    """DPLL: unit propagation to a fixpoint, then a split on the first literal."""
    while True:
        units = {clause[0] for clause in clauses if len(clause) == 1}
        if not units:
            break
        if any(-unit in units for unit in units):
            return False
        clauses = _assign(clauses, units)
        if clauses is None:
            return False
    if not clauses:
        return True
    literal = clauses[0][0]
    for choice in (literal, -literal):
        reduced = _assign(clauses, {choice})
        if reduced is not None and _satisfiable(reduced):
            return True
    return False


def _check_encoding(root, env):
    """The CNF of ``root`` agrees with ``evaluate(root, env)`` on inputs ``env``."""
    blaster, encoder = BitBlaster(), TseitinEncoder()
    if root.sort == smt.BOOL:
        outputs = [encoder.literal_for(blaster.blast(root))]
        expected = [evaluate(root, env)]
    else:
        outputs = [encoder.literal_for(bit) for bit in blaster._blast_bits(root)]
        value = evaluate(root, env)
        expected = [bool(value >> index & 1) for index in range(root.sort.width)]
    cnf = encoder.cnf
    inputs = []
    for name, value in env.items():
        if isinstance(value, bool):
            inputs.append(cnf.var_for_name(name) * (1 if value else -1))
        else:
            for index in range(blaster.bitvector_variables.get(name, 0)):
                literal = cnf.var_for_name(bit_name(name, index))
                inputs.append(literal if value >> index & 1 else -literal)
    fixed = [literal if value else -literal for literal, value in zip(outputs, expected)]
    clauses = [list(clause) for clause in cnf.clauses] + [[literal] for literal in inputs]
    assert _satisfiable(clauses + [[literal] for literal in fixed]), "the evaluated value is excluded"
    assert not _satisfiable(clauses + [[-literal for literal in fixed]]), "another value is allowed"


def _bool_term(draw, width, depth):
    leaves = ["var", "true", "false"]
    op = draw(st.sampled_from(leaves + ["not", "and", "or", "ite", "iff", "eq", "ult", "ule"] * (depth > 0)))
    if op == "var":
        return smt.bool_var(draw(st.sampled_from(BOOL_NAMES)))
    if op in ("true", "false"):
        return smt.bool_const(op == "true")
    if op == "not":
        return smt.not_(_bool_term(draw, width, depth - 1))
    if op in ("and", "or"):
        args = [_bool_term(draw, width, depth - 1) for _ in range(draw(st.integers(2, 3)))]
        return (smt.and_ if op == "and" else smt.or_)(*args)
    if op == "ite":
        return smt.ite(*(_bool_term(draw, width, depth - 1) for _ in range(3)))
    if op == "iff":
        return smt.eq(_bool_term(draw, width, depth - 1), _bool_term(draw, width, depth - 1))
    left, right = _bv_term(draw, width, depth - 1), _bv_term(draw, width, depth - 1)
    return {"eq": smt.eq, "ult": smt.bv_ult, "ule": smt.bv_ule}[op](left, right)


def _bv_term(draw, width, depth):
    op = draw(st.sampled_from(["var", "var", "const"] + ["ite", "add", "sub"] * (depth > 0)))
    if op == "var":
        return smt.bv_var(draw(st.sampled_from(BV_NAMES)), width)
    if op == "const":
        return smt.bv_const(draw(st.integers(0, (1 << width) - 1)), width)
    if op == "ite":
        condition = _bool_term(draw, width, depth - 1)
        return smt.ite(condition, _bv_term(draw, width, depth - 1), _bv_term(draw, width, depth - 1))
    left, right = _bv_term(draw, width, depth - 1), _bv_term(draw, width, depth - 1)
    return (smt.bv_add if op == "add" else smt.bv_sub)(left, right)


def _environment(draw, width):
    env = {name: draw(st.booleans()) for name in BOOL_NAMES}
    env.update({name: draw(st.integers(0, (1 << width) - 1)) for name in BV_NAMES})
    return env


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cnf_fixes_the_root_to_its_evaluated_value(data):
    width = data.draw(st.integers(1, 6), label="width")
    sort_is_bool = data.draw(st.booleans(), label="boolean root")
    root = (_bool_term if sort_is_bool else _bv_term)(data.draw, width, depth=3)
    _check_encoding(root, _environment(data.draw, width))


def test_every_blasted_operator_is_checked_exhaustively():
    """One term per operator family, every input assignment at width 2."""
    p, q = smt.bool_var("p"), smt.bool_var("q")
    x, y = smt.bv_var("x", 2), smt.bv_var("y", 2)
    roots = [
        smt.true(),
        smt.false(),
        smt.ite(
            p,
            smt.bv_ult(smt.bv_add(x, y), smt.bv_sub(x, smt.bv_const(3, 2))),
            smt.not_(smt.bv_ule(y, x)),
        ),
        smt.or_(smt.and_(p, smt.eq(x, y)), smt.eq(p, q)),
        smt.bv_sub(smt.ite(q, x, y), smt.bv_add(y, smt.bv_const(1, 2))),
    ]
    seen = {term.op for root in roots for term in iter_subterms(root)}
    assert seen == {
        *(OP_TRUE, OP_FALSE, OP_VAR, OP_NOT, OP_AND, OP_OR, OP_ITE, OP_EQ, OP_BVULT, OP_BVULE),
        *(OP_BVCONST, OP_BVADD, OP_BVSUB),
    }
    for root in roots:
        for bools in itertools.product((False, True), repeat=2):
            for values in itertools.product(range(4), repeat=2):
                _check_encoding(root, {"p": bools[0], "q": bools[1], "x": values[0], "y": values[1]})
