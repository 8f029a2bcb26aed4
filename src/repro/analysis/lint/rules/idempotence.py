"""Per-resource idempotence rule (REH011 non-idempotent-resource).

``rehearsal verify`` decides idempotence of the *whole manifest*
(§5): a rewriting proof first, SAT only when that fails.  This rule
is the lint-sized version, per resource, and tries the same proof
(:func:`repro.fs.rewrite.proves_idempotent`) first.  That proof holds
on every filesystem, so sampling a resource it proves could never
find a difference.  Only the resources it cannot prove are run twice
in a row, concretely, from a small family of initial states.  If the
second run changes the filesystem the first run produced, the
resource is not idempotent in isolation — the usual culprit is an
unguarded operation (``creat``/``rm``/``mkdir`` without an existence
check)."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.engine import (
    LintContext,
    Rule,
    graph_checker,
    register_rule,
)
from repro.fs import eval_expr, is_error
from repro.fs import syntax as fx
from repro.fs.rewrite import proves_idempotent
from repro.testing.oracle import initial_state_family

#: States sampled per resource; the family's first entries (empty,
#: scaffold, converged) catch the common unguarded-operation shapes.
_MAX_STATES = 6

register_rule(
    Rule(
        id="REH011",
        name="non-idempotent-resource",
        severity=Severity.WARNING,
        summary="running a resource twice changes the filesystem again",
        description=(
            "Concretely evaluating the resource's filesystem program "
            "twice from the same initial state yields a different "
            "result than evaluating it once: the resource is not "
            "idempotent in isolation, so repeated Puppet runs keep "
            "mutating the host. Whole-manifest idempotence is decided "
            "by `rehearsal verify`."
        ),
    )
)


def _sampled_failure(program: fx.Expr) -> Optional[str]:
    """How a second run of ``program`` differs from the first, on the
    first sampled initial state where it does; ``None`` if none does."""
    states = initial_state_family([program], max_states=_MAX_STATES, seed=0)
    for initial in states:
        once = eval_expr(program, initial)
        if is_error(once):
            continue
        twice = eval_expr(program, once)
        if is_error(twice):
            return "fails"
        if twice != once:
            return "changes the filesystem again"
    return None


@graph_checker
def non_idempotent_resources(ctx: LintContext) -> Iterable[Diagnostic]:
    if not ctx.programs:
        return
    for node in sorted(ctx.programs, key=str):
        program = ctx.programs[node]
        if proves_idempotent(program):
            continue
        failure = _sampled_failure(program)
        if failure is None:
            continue
        line, col = ctx.span_of(node)
        yield ctx.diag(
            "REH011",
            f"{node} is not idempotent: a second run from the "
            f"state the first run produced {failure}",
            line=line,
            col=col,
            resource=str(node),
        )
