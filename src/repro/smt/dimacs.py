"""DIMACS CNF import/export helpers.

These are mainly debugging aids: they let a formula produced by the encoder
be dumped to the standard DIMACS format (so it can be cross-checked against
an external SAT solver on another machine) and let DIMACS benchmark files be
loaded into the CDCL core for testing.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.smt.cnf import Cnf


def dumps(cnf: Cnf, comments: list[str] | None = None) -> str:
    """Serialise a :class:`Cnf` to DIMACS text."""
    return "".join(f"c {comment}\n" for comment in comments or []) + cnf.to_dimacs()


def loads(text: str) -> Cnf:
    """Parse DIMACS text into a :class:`Cnf`."""
    cnf = Cnf()
    declared_vars: int | None = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SolverError(f"malformed DIMACS header: {line!r}")
            declared_vars = int(parts[2])
            while cnf.num_vars < declared_vars:
                cnf.new_var()
            continue
        literals = [int(token) for token in line.split()]
        if literals and literals[-1] == 0:
            literals = literals[:-1]
        for literal in literals:
            while cnf.num_vars < abs(literal):
                cnf.new_var()
        cnf.add_clause(literals)
    if declared_vars is None:
        raise SolverError("DIMACS input has no problem line")
    return cnf


def load_file(path: str) -> Cnf:
    """Read a DIMACS file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dump_file(cnf: Cnf, path: str, comments: list[str] | None = None) -> None:
    """Write a DIMACS file to disk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(cnf, comments))
