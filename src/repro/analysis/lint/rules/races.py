"""Race rules (REH005 definite-race, REH006 possible-race).

The candidate set is footprint-based (§4.3, Lemma 4): every unordered
pair of resources whose footprints conflict on a path the graph has
not settled (:func:`repro.analysis.commutativity.conflict_matrix`).
That check alone over-approximates, so each candidate is
*self-validated* before being reported as definite: the checker
builds two complete topological linearizations of the whole graph
that differ only in the pair's order, concretely evaluates both
(Fig. 5 reference semantics) from a family of well-formed initial
states, and promotes the candidate to REH005 only when the
**full-run outcomes differ**.  A REH005 therefore
comes with a replayable witness and is a true positive by
construction; candidates the budget cannot confirm stay REH006
warnings.

Both linearizations are valid orders: with ``S`` the non-descendants
of the pair, ``S`` is predecessor-closed, and neither element of an
unordered pair can precede the other, so ``topo(S), a, b,
topo(rest)`` respects every edge (likewise with the pair swapped, and
likewise for the ancestors-first variant used as a second attempt —
placing the pair late keeps later resources from masking the
divergence; placing it early maximizes what the divergence can
poison)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.commutativity import conflict_matrix
from repro.analysis.lint.diagnostics import (
    Diagnostic,
    RaceWitness,
    Related,
    Severity,
)
from repro.analysis.lint.engine import (
    LintContext,
    Rule,
    graph_checker,
    register_rule,
)
from repro.digraph import ancestors, descendants, lexicographical_topological_sort
from repro.fs.semantics import ConcreteRunner
from repro.testing.oracle import initial_state_family

#: Initial states sampled per candidate pair during confirmation.
_MAX_STATES = 12
#: Concrete-evaluation budget for confirmation per manifest; exhaustion
#: degrades candidates to warnings, never to errors.
_MAX_EVALUATIONS = 20_000

register_rule(
    Rule(
        id="REH005",
        name="definite-race",
        severity=Severity.ERROR,
        summary="unordered resources provably produce different outcomes",
        description=(
            "Two resources with no ordering constraint between them "
            "have conflicting filesystem footprints, and concretely "
            "evaluating two complete apply orders that differ only in "
            "this pair produces different final filesystems. The "
            "manifest is non-deterministic; the finding carries the "
            "witness initial state and both orders."
        ),
    )
)

register_rule(
    Rule(
        id="REH006",
        name="possible-race",
        severity=Severity.WARNING,
        summary="unordered resources have conflicting footprints",
        description=(
            "Two resources with no ordering constraint have "
            "conflicting footprints (Lemma 4), but no concrete "
            "divergence was found within the confirmation budget. "
            "The conflict may still be benign (both orders can "
            "converge); full SAT-backed verification can decide."
        ),
    )
)


@graph_checker
def races(ctx: LintContext) -> Iterable[Diagnostic]:
    graph = ctx.graph
    if graph is None or graph.number_of_nodes() < 2:
        return
    if ctx.failed:
        # Footprints of unmodeled resources are unknown; candidates
        # would be incomplete and confirmations unreplayable.  The
        # REH003 errors already make the manifest exit 2.
        return

    matrix = conflict_matrix(graph, ctx.footprints)
    candidates = _candidates(graph, matrix)
    ctx.report.stats.race_candidates = len(candidates)
    if not candidates:
        return

    states: List = []
    if ctx.options.confirm_races:
        states = initial_state_family(
            ctx.programs.values(), max_states=_MAX_STATES, seed=0
        )

    runner = ConcreteRunner(ctx.programs)
    for a, b in candidates:
        paths = matrix[a][b]
        witness, swept = _confirm(ctx, runner, graph, a, b, states)
        primary, other = sorted(
            (a, b), key=lambda n: (ctx.span_of(n), str(n))
        )
        line, col = ctx.span_of(primary)
        o_line, o_col = ctx.span_of(other)
        contended = ", ".join(str(p) for p in sorted(paths))
        if witness is not None:
            ctx.report.stats.races_confirmed += 1
            ctx.report.race_witnesses.append(witness)
            yield ctx.diag(
                "REH005",
                f"definite race: {primary} and {other} have no ordering "
                f"constraint and provably diverge (contended: "
                f"{contended})",
                line=line,
                col=col,
                resource=str(primary),
                related=(
                    Related(
                        f"{other} declared here, unordered against "
                        f"{primary}",
                        line=o_line,
                        col=o_col,
                    ),
                ),
                paths=tuple(str(p) for p in sorted(paths)),
            )
        else:
            # A completed sweep is concrete evidence of benignity:
            # both orders agreed on every sampled well-formed state,
            # so demote to an advisory note.  Candidates the budget
            # (or --no-confirm) left unexamined stay warnings.
            demote = swept and states
            suffix = (
                f"; both orders agree on all {len(states)} sampled "
                "initial states"
                if demote
                else "; unconfirmed within the evaluation budget"
                if states
                else "; confirmation disabled"
            )
            yield ctx.diag(
                "REH006",
                f"possible race: {primary} and {other} have no ordering "
                f"constraint and conflicting footprints (contended: "
                f"{contended}{suffix})",
                line=line,
                col=col,
                resource=str(primary),
                related=(
                    Related(
                        f"{other} declared here, unordered against "
                        f"{primary}",
                        line=o_line,
                        col=o_col,
                    ),
                ),
                paths=tuple(str(p) for p in sorted(paths)),
                severity=Severity.NOTE if demote else None,
            )


def _candidates(graph, matrix) -> List[Tuple[object, object]]:
    """Unordered pairs with conflicting footprints, deterministically
    ordered."""
    nodes = sorted(graph.nodes, key=str)
    reach: Dict[object, Set[object]] = {
        n: descendants(graph, n) for n in nodes
    }
    out = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if b in reach[a] or a in reach[b]:
                continue
            if matrix[a][b]:
                out.append((a, b))
    return out


def _placement(graph, a, b, late: bool) -> Tuple[List[object], List[object]]:
    """``(prefix, suffix)`` such that ``prefix + [a, b] + suffix`` and
    ``prefix + [b, a] + suffix`` are complete topological orders.
    ``late`` places the pair after every non-descendant; otherwise
    right after the pair's ancestors."""
    if late:
        after = (descendants(graph, a) | descendants(graph, b)) - {
            a,
            b,
        }
        before = set(graph.nodes) - after - {a, b}
    else:
        before = (ancestors(graph, a) | ancestors(graph, b)) - {a, b}
        after = set(graph.nodes) - before - {a, b}
    prefix = lexicographical_topological_sort(graph.subgraph(before), key=str)
    suffix = lexicographical_topological_sort(graph.subgraph(after), key=str)
    return prefix, suffix


def _confirm(
    ctx: LintContext, runner: ConcreteRunner, graph, a, b, states
) -> Tuple[Optional[RaceWitness], bool]:
    """Try to produce a divergence witness for the pair.  Returns
    ``(witness, swept)`` where ``swept`` means every placement/state
    combination was evaluated (so the absence of a witness is concrete
    evidence of benignity, not a truncated search).

    Both orders share the prefix, so it runs once per state.  The
    suffix runs only when the pair leaves two different states behind:
    from one state the deterministic suffix cannot diverge.  Each
    placement and state still counts as two full evaluations, so the
    budget and the stats read as if both orders ran end to end."""
    stats = ctx.report.stats
    for late in (True, False):
        prefix, suffix = _placement(graph, a, b, late=late)
        for initial in states:
            if stats.confirm_evaluations + 2 > _MAX_EVALUATIONS:
                stats.confirm_budget_exhausted = True
                return None, False
            stats.confirm_evaluations += 2
            mid_ab, mid_ba = runner.swap(a, b, runner.run(prefix, initial))
            if mid_ab == mid_ba:
                continue
            out_ab = runner.run(suffix, mid_ab)
            out_ba = runner.run(suffix, mid_ba)
            if out_ab != out_ba:
                return (
                    RaceWitness(
                        a=str(a),
                        b=str(b),
                        initial=initial,
                        order_a=prefix + [a, b] + suffix,
                        order_b=prefix + [b, a] + suffix,
                        outcome_a=out_ab,
                        outcome_b=out_ba,
                    ),
                    True,
                )
    return None, True
