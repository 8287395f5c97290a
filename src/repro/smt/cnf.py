"""CNF clause databases shared between the Tseitin encoder and the SAT core.

Variables are positive integers starting at 1; literals are non-zero integers
where a negative literal denotes the negation of the corresponding variable
(the usual DIMACS convention).

Clauses are stored flat: one ``array('i')`` of literals plus an ``array('i')``
of offsets (clause ``i`` is ``literals[offsets[i]:offsets[i + 1]]``), so a
contiguous range of clauses is a single slice (:meth:`Cnf.span`) and a
database of a few hundred thousand clauses costs a few megabytes instead of
one Python list per clause.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence

from repro.errors import SolverError


class _ClauseView(Sequence):
    """Read-only ``list[list[int]]``-shaped view of a :class:`Cnf`'s clauses."""

    __slots__ = ("_cnf",)

    def __init__(self, cnf: "Cnf") -> None:
        self._cnf = cnf

    def __len__(self) -> int:
        return self._cnf.num_clauses

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("clause index out of range")
        return self._cnf.span(index, index + 1)[0].tolist()

    def __iter__(self) -> Iterator[list[int]]:
        literals, ends = self._cnf.span(0, len(self))
        flat = literals.tolist()
        start = 0
        for end in ends:
            yield flat[start:end]
            start = end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, _ClauseView)):
            return NotImplemented
        return list(self) == [list(clause) for clause in other]

    def __repr__(self) -> str:
        return repr(list(self))


class Cnf:
    """A CNF formula: a variable counter, flat clause storage and name bookkeeping."""

    def __init__(self) -> None:
        self.num_vars = 0
        #: Every clause's literals, back to back.
        self.literals = array("i")
        #: ``offsets[i]`` is where clause ``i`` starts in :attr:`literals`;
        #: the final entry is ``len(literals)``.
        self.offsets = array("i", [0])
        #: ``var_marks[v]`` is :attr:`num_clauses` when variable ``v`` was
        #: allocated (nondecreasing; entry 0 pads the 1-based numbering), see
        #: :meth:`span_variables`.
        self.var_marks = array("i", [0])
        #: Maps the original boolean variable name to its CNF variable index.
        self.name_to_var: dict[str, int] = {}
        #: Inverse of :attr:`name_to_var`.
        self.var_to_name: dict[int, str] = {}

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally registering a source name."""
        self.num_vars += 1
        index = self.num_vars
        self.var_marks.append(self.num_clauses)
        if name is not None:
            if name in self.name_to_var:
                raise SolverError(f"variable name {name!r} already allocated")
            self.name_to_var[name] = index
            self.var_to_name[index] = name
        return index

    def var_for_name(self, name: str) -> int:
        """The variable index for ``name``, allocating it on first use."""
        existing = self.name_to_var.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause.  Tautologies are dropped; duplicates are merged."""
        seen: set[int] = set()
        unique: list[int] = []
        for literal in literals:
            if literal == 0 or abs(literal) > self.num_vars:
                raise SolverError(f"literal {literal} out of range (num_vars={self.num_vars})")
            if -literal in seen:
                return  # tautology: clause is trivially satisfied
            if literal not in seen:
                seen.add(literal)
                unique.append(literal)
        self.literals.extend(unique)
        self.offsets.append(len(self.literals))

    @property
    def num_clauses(self) -> int:
        return len(self.offsets) - 1

    @property
    def clauses(self) -> _ClauseView:
        """The clauses as a read-only sequence of literal lists (copies)."""
        return _ClauseView(self)

    def span(self, start: int, end: int) -> tuple[array, list[int]]:
        """Clauses ``[start, end)`` as one flat literal array plus clause ends.

        ``ends[i]`` is where the ``i``-th clause of the range stops within the
        returned array (it starts where the previous one stopped, the first
        at 0) — the shape :meth:`CdclSolver.add_clauses
        <repro.smt.sat.solver.CdclSolver.add_clauses>` loads in one pass.
        """
        offsets = self.offsets
        base = offsets[start]
        ends = [offset - base for offset in offsets[start + 1 : end + 1]]
        return self.literals[base : offsets[end]], ends

    def span_variables(self, start: int, end: int) -> range:
        """The variables allocated after clause ``start - 1`` and before clause ``end - 1``.

        An encoder that allocates a gate's variable right before the gate's
        defining clauses gets, for the clause range a term's encoding emitted,
        the gate variables of that term and its first-encoded subterms (plus
        any input variables first named in between).
        """
        marks = self.var_marks
        return range(bisect_left(marks, start, 1), bisect_left(marks, end, 1))

    def to_dimacs(self) -> str:
        """Render the formula in DIMACS CNF format (useful for debugging)."""
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"
