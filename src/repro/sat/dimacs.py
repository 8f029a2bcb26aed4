"""DIMACS CNF reading and writing.

Not required by the verification pipeline itself, but standard solver
plumbing: ``rehearsal solve`` reads external instances with
:func:`read_dimacs`, and the external-solver backend writes its
queries with :func:`write_dimacs`."""

from __future__ import annotations

from typing import List, Sequence, TextIO, Tuple

from repro.errors import SolverError


def write_dimacs(
    out: TextIO,
    clauses: Sequence[Sequence[int]],
    num_vars: int,
    comments: Sequence[str] = (),
) -> None:
    for comment in comments:
        out.write(f"c {comment}\n")
    out.write(f"p cnf {num_vars} {len(clauses)}\n")
    for clause in clauses:
        out.write(" ".join(str(lit) for lit in clause) + " 0\n")


def read_dimacs(inp: TextIO) -> Tuple[List[List[int]], int]:
    """Parse a DIMACS file; returns (clauses, num_vars)."""
    clauses: List[List[int]] = []
    num_vars = 0
    declared_clauses = None
    current: List[int] = []
    for raw in inp:
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SolverError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            declared_clauses = int(parts[3])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
                num_vars = max(num_vars, abs(lit))
    if current:
        clauses.append(current)
    if declared_clauses is not None and declared_clauses != len(clauses):
        # Tolerate the mismatch (many generators get this wrong) but
        # normalize num_vars to cover every literal seen.
        pass
    return clauses, num_vars


def dimacs_to_string(
    clauses: Sequence[Sequence[int]], num_vars: int
) -> str:
    import io

    buf = io.StringIO()
    write_dimacs(buf, clauses, num_vars)
    return buf.getvalue()
