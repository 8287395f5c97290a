"""Tseitin transformation from purely boolean terms to CNF.

Every non-literal subterm is assigned a fresh auxiliary CNF variable and the
standard defining clauses are emitted, so the CNF grows linearly in the size
of the (shared) term DAG.  The transformation requires its input to contain
no bitvector operations — run :class:`repro.smt.bitblast.BitBlaster` first.
"""

from __future__ import annotations

from repro.errors import TermError
from repro.smt.cnf import Cnf
from repro.smt.sorts import BOOL
from repro.smt.terms import (
    OP_AND,
    OP_EQ,
    OP_FALSE,
    OP_ITE,
    OP_NOT,
    OP_OR,
    OP_TRUE,
    OP_VAR,
    Term,
)


#: Clause indices live in ``array('i')`` offsets, so 32 bits hold any of them.
_SPAN_BITS = 32


class TseitinEncoder:
    """Encodes boolean terms into a shared :class:`Cnf` instance.

    The encoder memoises the CNF literal of every subterm by its (stable,
    process-wide) ``term_id`` and records which clause indices each subterm's
    encoding emitted (:meth:`clause_span`).  Long-lived encoders therefore
    encode shared structure exactly once, and incremental backends can
    extract the cone of clauses relevant to one query without rescanning the
    whole database.
    """

    def __init__(self, cnf: Cnf | None = None) -> None:
        self.cnf = cnf if cnf is not None else Cnf()
        self._literal_cache: dict[int, int] = {}
        #: term_id -> ``start << _SPAN_BITS | end``: one int per term, a
        #: quarter of the memory of a tuple of two (there is an entry per gate).
        self._clause_spans: dict[int, int] = {}
        self._true_literal: int | None = None
        #: Memoisation counters, surfaced by the incremental backend's
        #: ``cache_statistics`` (a hit means a subterm's CNF was reused).
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API -------------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Add the constraint that ``term`` is true."""
        literal = self.literal_for(term)
        self.cnf.add_clause([literal])

    def literal_for(self, term: Term) -> int:
        """Return a CNF literal equisatisfiable with ``term``."""
        if term.sort != BOOL:
            raise TermError(f"Tseitin encoding expects boolean terms, got {term.sort!r}")
        cached = self._literal_cache.get(term.term_id)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        start = self.cnf.num_clauses
        literal = self._encode(term)
        self._literal_cache[term.term_id] = literal
        if start < self.cnf.num_clauses:
            self._clause_spans[term.term_id] = start << _SPAN_BITS | self.cnf.num_clauses
        return literal

    def clause_span(self, term_id: int) -> tuple[int, int] | None:
        """The clause-index range ``[start, end)`` this term's encoding emitted.

        The range covers the defining clauses of the term and of every
        subterm that was first encoded while encoding it; subterms shared
        with earlier encodings carry their own (earlier) spans.  ``None`` for
        terms whose encoding emitted no clause (variables, negations of
        encoded terms: not worth an entry each) and for terms this encoder
        has never seen.
        """
        packed = self._clause_spans.get(term_id)
        if packed is None:
            return None
        return packed >> _SPAN_BITS, packed & ((1 << _SPAN_BITS) - 1)

    # -- encoding ---------------------------------------------------------------

    def _constant_true(self) -> int:
        if self._true_literal is None:
            self._true_literal = self.cnf.new_var("$true")
            self.cnf.add_clause([self._true_literal])
        return self._true_literal

    def _encode(self, term: Term) -> int:
        op = term.op
        if op == OP_TRUE:
            return self._constant_true()
        if op == OP_FALSE:
            return -self._constant_true()
        if op == OP_VAR:
            return self.cnf.var_for_name(term.payload)
        if op == OP_NOT:
            return -self.literal_for(term.args[0])
        if op == OP_AND:
            return self._encode_and([self.literal_for(a) for a in term.args])
        if op == OP_OR:
            return self._encode_or([self.literal_for(a) for a in term.args])
        if op == OP_ITE:
            return self._encode_ite(
                self.literal_for(term.args[0]),
                self.literal_for(term.args[1]),
                self.literal_for(term.args[2]),
            )
        if op == OP_EQ:
            left, right = term.args
            if left.sort != BOOL:
                raise TermError("Tseitin encoder saw a bitvector equality; bit-blast first")
            return self._encode_iff(self.literal_for(left), self.literal_for(right))
        raise TermError(f"Tseitin encoder cannot handle operator {op!r}")

    def _encode_and(self, literals: list[int]) -> int:
        output = self.cnf.new_var()
        for literal in literals:
            self.cnf.add_clause([-output, literal])
        self.cnf.add_clause([output] + [-lit for lit in literals])
        return output

    def _encode_or(self, literals: list[int]) -> int:
        output = self.cnf.new_var()
        for literal in literals:
            self.cnf.add_clause([-literal, output])
        self.cnf.add_clause([-output] + literals)
        return output

    def _encode_ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        output = self.cnf.new_var()
        self.cnf.add_clause([-cond, -then_lit, output])
        self.cnf.add_clause([-cond, then_lit, -output])
        self.cnf.add_clause([cond, -else_lit, output])
        self.cnf.add_clause([cond, else_lit, -output])
        # Redundant but helpful clauses: if both branches agree, so does the output.
        self.cnf.add_clause([-then_lit, -else_lit, output])
        self.cnf.add_clause([then_lit, else_lit, -output])
        return output

    def _encode_iff(self, left: int, right: int) -> int:
        output = self.cnf.new_var()
        self.cnf.add_clause([-output, -left, right])
        self.cnf.add_clause([-output, left, -right])
        self.cnf.add_clause([output, left, right])
        self.cnf.add_clause([output, -left, -right])
        return output
