"""The pluggable solver-backend surface.

Everything above the raw CDCL loop talks to the SAT substrate through
the :class:`SolverBackend` protocol: the incremental query façade
(:class:`repro.smt.query.IncrementalQuery`), the determinacy analysis
(:mod:`repro.analysis.determinism`) and the DIMACS plumbing
(:mod:`repro.sat.dimacs`) only ever use this handful of methods.  That
makes the solver swappable:

* the default backend is the pure-Python CDCL loop
  (:class:`repro.sat.solver.Solver`), always available, always the
  reference semantics;
* :class:`repro.sat.external.ExternalBackend` shells out to a
  SAT-competition solver (kissat/cadical/minisat) found on PATH via
  the DIMACS writer.

A backend choice is spelled as a **spec string** (what the CLI's
``--solver`` flag takes): ``"cdcl"``, or ``"external:auto"`` /
``"external:<name-or-path>"``.
:func:`parse_backend_spec` turns a spec into a zero-argument factory,
so the spec itself stays a plain string — picklable, hashable into the
verdict-cache key, and storable in :class:`DeterminismOptions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

try:  # Protocol is 3.8+; keep a runtime-checkable structural type.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


if TYPE_CHECKING:
    from repro.sat.solver import SolveResult


@runtime_checkable
class SolverBackend(Protocol):
    """What the query layer needs from a solver.

    :class:`repro.sat.solver.Solver` satisfies this natively; the
    external backend implements the same surface.  The
    contract mirrors MiniSat's incremental interface:

    * the clause database persists across :meth:`solve` calls;
    * ``assumptions`` are per-call temporary units;
    * a backend that gives up (an external solver's wall-clock
      timeout) raises :class:`repro.errors.SolverError`;
    * on UNSAT under assumptions, ``SolveResult.core`` holds the
      implicated assumption literals.
    """

    num_vars: int

    def ensure_vars(self, n: int) -> None: ...

    def add_clause(self, lits: Sequence[int]) -> None: ...

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult: ...

    def root_units(self) -> List[int]: ...

    def clause_database(
        self, include_learned: bool = False
    ) -> List[List[int]]: ...


#: A zero-argument callable producing a fresh backend; what
#: ``IncrementalQuery(backend=...)`` and ``Query(backend=...)`` accept.
BackendFactory = Callable[[], SolverBackend]


def parse_backend_spec(spec: str) -> BackendFactory:
    """Turn a ``--solver`` spec string into a backend factory.

    Accepted specs:

    * ``"cdcl"`` — the pure-Python CDCL reference solver;
    * ``"external:auto"`` — the first SAT-competition solver found on
      PATH (kissat, cadical, minisat), raising ``ValueError`` when
      none is installed;
    * ``"external:<name-or-path>"`` — a specific external solver.

    Raises ``ValueError`` on a malformed spec, so CLI validation can
    exit 2 with the message.
    """
    head, _, arg = spec.partition(":")
    if head == "cdcl":
        if arg:
            raise ValueError(f"'cdcl' takes no argument (got {spec!r})")
        return _cdcl
    if head == "external":
        from repro.sat.external import ExternalBackend, find_external_solver

        if not arg or arg == "auto":
            path = find_external_solver()
            if path is None:
                raise ValueError(
                    "no external SAT solver found on PATH (looked for "
                    "kissat, cadical, minisat); install one or use "
                    "--solver cdcl"
                )
        else:
            path = find_external_solver(arg)
            if path is None:
                raise ValueError(f"external solver not found: {arg!r}")
        return lambda: ExternalBackend(path)
    raise ValueError(
        f"unknown solver spec {spec!r} (expected 'cdcl' or "
        "'external:auto|<name-or-path>')"
    )


def _cdcl() -> SolverBackend:
    """A fresh reference solver.  The CDCL module loads on the first
    solve, not when ``--solver cdcl`` is validated, so a verify that
    never reaches SAT does not import it."""
    from repro.sat.solver import Solver

    return Solver()


def solver_counters(backend: SolverBackend) -> Dict[str, int]:
    """Lifetime effort counters of a backend, zero-filled for backends
    that do not track one (e.g. external processes)."""
    return {
        name: int(getattr(backend, name, 0))
        for name in ("conflicts", "decisions", "propagations", "restarts")
    }
