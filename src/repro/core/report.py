"""Human-readable rendering of verification results."""

from __future__ import annotations

from typing import List

from repro.analysis.determinism import DeterminismResult
from repro.analysis.idempotence import IdempotenceResult
from repro.core.pipeline import VerificationReport


def _declaration_lines(
    resources, declared_at, manifest_name: str
) -> List[str]:
    """``File['/etc/ntp.conf'] declared at ntp.pp:14`` for every
    resource with a known source span."""
    lines: List[str] = []
    if not declared_at:
        return lines
    for res in resources:
        span = declared_at.get(str(res))
        if span and span[0]:
            where = f"{manifest_name}:{span[0]}" if manifest_name else f"line {span[0]}"
            lines.append(f"  {res} declared at {where}")
    return lines


def render_explanation(
    result: DeterminismResult,
    programs,
    declared_at=None,
    manifest_name: str = "",
) -> str:
    """Narrate the two diverging orders step by step on the witness
    machine state (the --explain view)."""
    from repro.fs.trace import explain_order

    if result.deterministic or result.witness_orders is None:
        return "(nothing to explain: the manifest is deterministic)"
    parts = []
    if result.race is not None:
        parts.append(f"Race localized (witness replay): {result.race.describe()}")
        parts.extend(
            _declaration_lines(
                (result.race.resource_a, result.race.resource_b),
                declared_at,
                manifest_name,
            )
        )
        if result.race.ok_divergence:
            parts.append(
                "The orders disagree on whether the run errors at all."
            )
        if result.race.core_paths:
            paths = ", ".join(str(p) for p in result.race.core_paths)
            parts.append(f"Paths the orders cannot agree on: {paths}")
        parts.append("")
    order1, order2 = result.witness_orders
    parts += [
        "--- order (1) ---",
        explain_order(order1, programs, result.witness_fs),
        "--- order (2) ---",
        explain_order(order2, programs, result.witness_fs),
    ]
    return "\n".join(parts)


def render_determinism(
    result: DeterminismResult,
    declared_at=None,
    manifest_name: str = "",
) -> str:
    lines: List[str] = []
    if result.deterministic:
        lines.append("DETERMINISTIC: all orders produce the same outcome.")
    else:
        lines.append("NON-DETERMINISTIC: resource orders diverge.")
        if result.race is not None:
            lines.append(f"Race localized: {result.race.describe()}")
            lines.extend(
                _declaration_lines(
                    (result.race.resource_a, result.race.resource_b),
                    declared_at,
                    manifest_name,
                )
            )
        if result.witness_fs is not None:
            lines.append("Witness initial filesystem:")
            lines.append(_describe_fs(result.witness_fs))
        if result.witness_orders is not None:
            order1, order2 = result.witness_orders
            lines.append("Diverging orders:")
            lines.append(f"  (1) {' -> '.join(map(str, order1))}")
            lines.append(f"  (2) {' -> '.join(map(str, order2))}")
        if result.witness_outcomes is not None:
            out1, out2 = result.witness_outcomes
            lines.append(f"Outcome (1): {_describe_outcome(out1)}")
            lines.append(f"Outcome (2): {_describe_outcome(out2)}")
    stats = result.stats
    lines.append(
        f"[{stats.resources_total} resources, "
        f"{stats.resources_after_elimination} after elimination; "
        f"{stats.paths_before_pruning} stateful paths, "
        f"{stats.paths_after_pruning} after pruning, "
        f"{stats.contended_paths} contended; "
        f"{stats.branches_explored} branches, "
        f"{stats.memo_hits} memo hit"
        + ("" if stats.memo_hits == 1 else "s")
        + f" / {stats.states_merged} states merged, "
        f"{stats.distinct_finals} distinct finals; "
        f"{stats.sat_vars} vars / {stats.sat_clauses} clauses "
        f"in {stats.sat_queries} quer"
        + ("y" if stats.sat_queries == 1 else "ies")
        + f"; {stats.total_seconds:.3f}s]"
    )
    return "\n".join(lines)


#: Functions shown by ``rehearsal verify --profile``.
PROFILE_TOP_N = 15


def render_profile(report: VerificationReport, profiler) -> str:
    """The ``--profile`` view: the determinacy phase split
    (explore / encode / solve) followed by cProfile's top functions by
    cumulative time."""
    import io
    import pstats

    lines: List[str] = []
    if report.determinism is not None:
        stats = report.determinism.stats
        lines.append(
            "determinacy phase split: "
            f"explore {stats.explore_seconds:.3f}s, "
            f"encode {stats.encode_seconds:.3f}s, "
            f"solve {stats.solve_seconds:.3f}s "
            f"({stats.sat_queries} quer"
            + ("y" if stats.sat_queries == 1 else "ies")
            + f", {stats.sat_conflicts} conflicts, "
            f"{stats.sat_decisions} decisions)"
        )
    buffer = io.StringIO()
    ps = pstats.Stats(profiler, stream=buffer)
    ps.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    lines.append(buffer.getvalue().rstrip())
    return "\n".join(lines)


def render_idempotence(result: IdempotenceResult) -> str:
    if result.idempotent:
        return "IDEMPOTENT: applying twice equals applying once."
    lines = ["NOT IDEMPOTENT: a second run behaves differently."]
    if result.witness_fs is not None:
        lines.append("Witness initial filesystem:")
        lines.append(_describe_fs(result.witness_fs))
    return "\n".join(lines)


def render_report(report: VerificationReport) -> str:
    lines = [f"== {report.manifest_name} =="]
    if report.error is not None:
        lines.append(f"ERROR: {report.error}")
        return "\n".join(lines)
    lines.append(f"{report.resource_count} primitive resources")
    if report.determinism is not None:
        lines.append(
            render_determinism(
                report.determinism,
                declared_at=report.declared_at,
                manifest_name=report.manifest_name,
            )
        )
    if report.idempotence is not None:
        lines.append(render_idempotence(report.idempotence))
    elif report.deterministic is False:
        lines.append(
            "(idempotence not checked: unsound for non-deterministic "
            "manifests, §5)"
        )
    lines.append(f"total time: {report.total_seconds:.3f}s")
    return "\n".join(lines)


def render_table(header, rows) -> str:
    """Plain-text column-aligned table (shared by the batch summary
    and the benchmark figures)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(
            len(str(header[i])),
            max((len(row[i]) for row in cells), default=0),
        )
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(c.ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)


def render_batch_report(report) -> str:
    """Text summary table for a :class:`repro.service.BatchReport`."""
    from repro.service.schema import batch_table_rows

    header = [
        "manifest",
        "status",
        "deterministic",
        "idempotent",
        "resources",
        "time",
        "cache",
    ]
    cache_notes = ""
    if report.cache.corrupted:
        cache_notes += (
            f" / {report.cache.corrupted} corrupted entr"
            + ("y" if report.cache.corrupted == 1 else "ies")
            + " recovered"
        )
    if report.cache.read_errors:
        cache_notes += (
            f" / {report.cache.read_errors} lookup(s) failed on "
            "storage errors"
        )
    if report.cache.write_errors:
        cache_notes += (
            f" / {report.cache.write_errors} store(s) not persisted "
            "(cache writes disabled after first failure)"
        )
    summary = (
        f"{len(report.results)} manifests: {report.ok_count} ok, "
        f"{report.failed_count} failed, {report.error_count} errors "
        f"[{report.workers} worker(s), "
        f"cache {report.cache.hits} hit(s) / {report.cache.misses} miss(es)"
        f"{cache_notes}; solver {report.solver_seconds:.3f}s; "
        f"total {report.total_seconds:.3f}s]"
    )
    return "\n".join(
        [render_table(header, batch_table_rows(report)), "", summary]
    )


def _describe_outcome(outcome) -> str:
    from repro.fs.semantics import ERROR

    if outcome is ERROR:
        return "error"
    return f"success; final state:\n{_describe_fs(outcome)}"


def _describe_fs(fs) -> str:
    """A witness or outcome filesystem, indented (the model decoder
    loads only when a verdict has one to show)."""
    from repro.smt.model import describe_filesystem

    return _indent(describe_filesystem(fs))


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
