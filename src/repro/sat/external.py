"""External SAT-competition solver backend.

:class:`ExternalBackend` satisfies :class:`repro.sat.backend.SolverBackend`
by shelling out to a solver binary (kissat, cadical, minisat — anything
speaking DIMACS in and SAT-competition output out).  Each ``solve()``
call dumps the clause database plus the assumptions (appended as unit
clauses) through :func:`repro.sat.dimacs.write_dimacs`, runs the
binary, and parses the verdict:

* exit code 10 / ``s SATISFIABLE`` → SAT, model from the ``v`` lines;
* exit code 20 / ``s UNSATISFIABLE`` → UNSAT;
* anything else → :class:`repro.errors.SolverError`.

Two impedance mismatches with the incremental interface, both handled
here rather than leaked to callers:

* **Unsat cores.**  Competition solvers don't report which appended
  assumption units caused UNSAT, but race localization needs the core.
  We recover a minimal-ish core by deletion: drop one assumption at a
  time and re-run; if the instance stays UNSAT the assumption was not
  needed.  That costs up to ``len(assumptions)`` extra solver runs —
  acceptable because the pure-Python CDCL stays the default and the
  external backend is an escape hatch for instances where one external
  run beats thousands of Python conflicts.

* **Budgets.**  There is no portable way to impose a conflict limit
  on an arbitrary binary, so :data:`TIMEOUT_SECONDS` bounds each run
  by wall clock, raising ``SolverError`` on expiry (race localization
  then returns the best core it has, or no race).

``minisat`` is special-cased: it takes ``input output`` file arguments
and writes the verdict/model to the output file (still exiting 10/20).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SolverError
from repro.sat.dimacs import write_dimacs
from repro.sat.solver import SolveResult

#: Probe order for ``--solver external:auto``.
KNOWN_SOLVERS = ("kissat", "cadical", "minisat")

#: Wall-clock bound per external run (a conflict budget has no
#: portable equivalent across binaries).
TIMEOUT_SECONDS = 60.0


def find_external_solver(name: Optional[str] = None) -> Optional[str]:
    """Resolve an external solver to an executable path.

    With ``name=None``, probe :data:`KNOWN_SOLVERS` on PATH in order.
    With a name or path, resolve that specific solver.  Returns None
    when nothing is found.
    """
    if name is None:
        for candidate in KNOWN_SOLVERS:
            path = shutil.which(candidate)
            if path:
                return path
        return None
    if os.path.sep in name or (os.path.altsep and os.path.altsep in name):
        return name if os.access(name, os.X_OK) else None
    return shutil.which(name)


def parse_solver_output(text: str) -> Tuple[Optional[bool], Dict[int, bool]]:
    """Parse SAT-competition output: the ``s`` status line and, on
    SAT, the ``v`` model lines (terminated by literal 0).  Returns
    ``(verdict, model)`` with verdict None when no status line was
    printed."""
    verdict: Optional[bool] = None
    model: Dict[int, bool] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            status = line[2:].strip().upper()
            if status == "SATISFIABLE":
                verdict = True
            elif status == "UNSATISFIABLE":
                verdict = False
        elif line.startswith("v ") or line == "v":
            for token in line[1:].split():
                lit = int(token)
                if lit == 0:
                    continue
                model[abs(lit)] = lit > 0
        elif verdict is None and line in ("SAT", "UNSAT", "SATISFIABLE", "UNSATISFIABLE"):
            # minisat's output file spells the verdict bare, with the
            # model on the following line (no "v " prefix).
            verdict = line.startswith("SAT")
        elif verdict is True and not model and _all_ints(line):
            for token in line.split():
                lit = int(token)
                if lit:
                    model[abs(lit)] = lit > 0
    return verdict, model


def _all_ints(line: str) -> bool:
    tokens = line.split()
    if not tokens:
        return False
    for token in tokens:
        body = token[1:] if token[0] in "+-" else token
        if not body.isdigit():
            return False
    return True


class ExternalBackend:
    """A :class:`SolverBackend` backed by a solver binary on PATH.

    Clauses accumulate in-process; every ``solve()`` is a fresh run of
    the binary over the whole database (external solvers have no
    incremental interface), so counters stay at zero and learned
    clauses are not retained between calls.
    """

    def __init__(
        self,
        path: str,
        timeout_seconds: float = TIMEOUT_SECONDS,
    ):
        if not path:
            raise SolverError("external solver path is empty")
        self.path = path
        self.timeout_seconds = timeout_seconds
        self.num_vars = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self._clauses: List[List[int]] = []
        self._ok = True

    # -- clause database ------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        if n > self.num_vars:
            self.num_vars = n

    def add_clause(self, lits: Sequence[int]) -> None:
        clause = list(lits)
        for lit in clause:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            self.ensure_vars(abs(lit))
        if not clause:
            self._ok = False
            return
        self._clauses.append(clause)

    def root_units(self) -> List[int]:
        return [c[0] for c in self._clauses if len(c) == 1]

    def clause_database(
        self, include_learned: bool = False
    ) -> List[List[int]]:
        if not self._ok:
            return [[]]
        return [list(c) for c in self._clauses]

    # -- solving --------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            self.ensure_vars(abs(lit))
        if not self._ok:
            return SolveResult(False)
        sat, model = self._run(assumptions)
        if sat:
            # The binary may leave don't-care variables out of the
            # model; downstream evaluation treats absence as False,
            # matching the CDCL backend's convention.
            return SolveResult(True, assignment=model)
        core = self._deletion_core(assumptions) if assumptions else []
        return SolveResult(False, core=core)

    def _run(self, assumptions: List[int]) -> Tuple[bool, Dict[int, bool]]:
        clauses = self._clauses + [[lit] for lit in assumptions]
        with tempfile.TemporaryDirectory(prefix="rehearsal-sat-") as tmp:
            cnf_path = os.path.join(tmp, "query.cnf")
            with open(cnf_path, "w") as out:
                write_dimacs(
                    out,
                    clauses,
                    self.num_vars,
                    comments=[f"rehearsal external query via {self.path}"],
                )
            argv = [self.path, cnf_path]
            out_path = None
            if os.path.basename(self.path).startswith("minisat"):
                out_path = os.path.join(tmp, "result.out")
                argv.append(out_path)
            try:
                proc = subprocess.run(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    timeout=self.timeout_seconds,
                    text=True,
                )
            except subprocess.TimeoutExpired:
                raise SolverError(
                    f"external solver timed out after "
                    f"{self.timeout_seconds:g}s: {self.path}"
                ) from None
            except OSError as exc:
                raise SolverError(
                    f"failed to run external solver {self.path}: {exc}"
                ) from None
            output = proc.stdout
            if out_path and os.path.exists(out_path):
                with open(out_path) as handle:
                    output += "\n" + handle.read()
            verdict, model = parse_solver_output(output)
            if verdict is None:
                if proc.returncode == 10:
                    verdict = True
                elif proc.returncode == 20:
                    verdict = False
                else:
                    raise SolverError(
                        f"external solver {self.path} produced no verdict "
                        f"(exit {proc.returncode}): "
                        f"{proc.stderr.strip()[:200]}"
                    )
            return verdict, model

    def _deletion_core(self, assumptions: List[int]) -> List[int]:
        """Deletion-based core recovery: an assumption stays in the
        core iff removing it flips the instance to SAT.  Each probe is
        one more solver run, so the core is minimal w.r.t. single
        deletions."""
        core = list(assumptions)
        i = 0
        while i < len(core):
            trial = core[:i] + core[i + 1 :]
            sat, _ = self._run(trial)
            if sat:
                i += 1  # needed: keep it
            else:
                core = trial  # redundant: drop and retry at same index
        return sorted(core)
