"""Command-line interface.

Subcommands behind one ``rehearsal`` entry point (see setup.py
``console_scripts``):

* ``rehearsal verify <manifest.pp> [flags]`` — single-manifest
  verification, mirroring the artifact's CLI (§8: "Rehearsal takes the
  platform name as a command-line flag").  For compatibility the
  subcommand word is optional: ``rehearsal <manifest.pp>`` still works
  when the first word ends in ``.pp``, contains a path separator, or
  names an existing file; any other unknown first word exits 2 with
  ``error: unknown command``.
* ``rehearsal verify-batch <dir-or-manifests...> [flags]`` — the batch
  service: fan a fleet of manifests out to worker processes behind the
  content-addressed verdict cache (:mod:`repro.service`).
* ``rehearsal serve [--port N --workers N --watch DIR --quota RPS]``
  — the long-running verification daemon (:mod:`repro.service.daemon`,
  docs/serve.md): an asyncio HTTP service fronting the batch verifier
  with a tiered verdict cache, a filesystem watcher streaming
  re-verification rows over long-poll ``/v1/events``, per-client
  token-bucket quotas, and ``/healthz`` + Prometheus ``/metrics``.
  Exit 0 on clean (SIGTERM/SIGINT) shutdown, 2 on bad invocation.
* ``rehearsal cache stats|clear|gc [--cache-dir DIR]`` — inspect and
  manage both on-disk caches: the verdict cache and the incremental
  store (:mod:`repro.service.incremental`); ``gc --max-bytes N``
  evicts oldest-first until each fits the budget.
* ``rehearsal fuzz [--seed N --budget S --shrink --out DIR]`` —
  differential fuzzing: random catalogs through both the symbolic
  pipeline and the concrete interleavings oracle
  (:mod:`repro.testing`); exit 1 on any disagreement.
* ``rehearsal lint <manifests...> [--format text|json|sarif]`` — the
  catalog-level static analyzer (:mod:`repro.analysis.lint`): rule
  diagnostics with source spans, no SAT.  Exit 0 — clean (at most
  notes), 1 — warnings, 2 — errors, 3 — bad invocation.

Exit codes of the verify commands: 0 — verified (for the batch: every
manifest produced a verdict, and with ``--strict`` every verdict is
positive); 1 — a negative or missing verdict (batch: some manifest
errored, a verdict failed under ``--strict``, or the final ``--json``
write failed); 2 — bad invocation (unreadable manifest, no manifests
found, invalid ``--workers``, an unknown ``--platform``, ``--json``
pointing at a directory or into a missing one).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path as OsPath

from repro.analysis.determinism import DeterminismOptions
from repro.core.pipeline import Rehearsal
from repro.core.report import render_batch_report, render_report
from repro.errors import ReproError
from repro.resources.compiler import PLATFORMS, ModelContext


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by both commands (platform + §4 toggles)."""
    parser.add_argument(
        "--platform",
        default="ubuntu",
        choices=tuple(PLATFORMS),
        help="target platform: its facts and package database "
        "(default: ubuntu)",
    )
    parser.add_argument(
        "--node",
        default="default",
        help="node name used to select node blocks",
    )
    parser.add_argument(
        "--no-pruning",
        action="store_true",
        help="disable file pruning (§4.4)",
    )
    parser.add_argument(
        "--no-commutativity",
        action="store_true",
        help="disable the commutativity reduction (§4.3)",
    )
    parser.add_argument(
        "--no-elimination",
        action="store_true",
        help="disable resource elimination (§4.4)",
    )
    parser.add_argument(
        "--strict-packages",
        action="store_true",
        help="fail on packages missing from the database instead of "
        "synthesizing a listing",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="analysis timeout in seconds (per manifest)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="reuse the whole determinism and idempotence verdicts of "
        "an unchanged (post-pruning) catalog from a persistent store "
        "across runs; verdicts are byte-identical to from-scratch runs "
        "(default: off, or REHEARSAL_INCREMENTAL=1)",
    )
    parser.add_argument(
        "--incremental-dir",
        metavar="DIR",
        default=None,
        help="directory holding the incremental store (default: the "
        "cache directory, see REHEARSAL_CACHE_DIR)",
    )


def _options_from_args(args: argparse.Namespace) -> DeterminismOptions:
    # --incremental only ever turns the store ON: without the flag the
    # dataclass default applies, which honors REHEARSAL_INCREMENTAL=1.
    extra = {}
    if args.incremental:
        extra["incremental"] = True
    if args.incremental_dir is not None:
        extra["incremental_dir"] = args.incremental_dir
    return DeterminismOptions(
        use_pruning=not args.no_pruning,
        use_commutativity=not args.no_commutativity,
        use_elimination=not args.no_elimination,
        timeout_seconds=args.timeout,
        **extra,
    )


# -- rehearsal verify ---------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal",
        description=(
            "Verify that a Puppet manifest is deterministic and idempotent "
            "(reproduction of Shambaugh et al., PLDI 2016)."
        ),
        epilog=(
            "To verify a whole fleet of manifests in parallel behind a "
            "content-addressed verdict cache, use 'rehearsal verify-batch "
            "<dir-or-manifests...>' (see 'rehearsal verify-batch --help')."
        ),
    )
    parser.add_argument("manifest", help="path to a .pp manifest file")
    _add_analysis_flags(parser)
    parser.add_argument(
        "--explain",
        action="store_true",
        help="on non-determinism, narrate both diverging orders step "
        "by step on the witness machine state",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the verification: cProfile's top functions by "
        "cumulative time, plus the explore/encode/solve phase split "
        "from the determinacy stats",
    )
    return parser


def run_verify(argv) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        source = OsPath(args.manifest).read_text(encoding="utf8")
    except (OSError, UnicodeDecodeError) as exc:
        print(
            f"error: cannot read manifest {args.manifest}: {exc}",
            file=sys.stderr,
        )
        return 2
    context = ModelContext.for_platform(
        args.platform, synthesize=not args.strict_packages
    )
    tool = Rehearsal(
        context=context, options=_options_from_args(args), node_name=args.node
    )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    # One frontend for the verify and --explain; verify reports a failure.
    start = time.perf_counter()
    try:
        front = tool.frontend(source)
    except ReproError:
        front = None
    report = tool.verify(source, name=args.manifest, compiled=front)
    report.total_seconds = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    print(render_report(report))
    if profiler is not None:
        from repro.core.report import render_profile

        print()
        print(render_profile(report, profiler))
    if (
        args.explain
        and report.determinism is not None
        and not report.determinism.deterministic
        and report.error is None
    ):
        from repro.core.report import render_explanation

        _, programs = tool.with_prelude(front)
        print()
        print(
            render_explanation(
                report.determinism,
                programs,
                declared_at=report.declared_at,
                manifest_name=report.manifest_name,
            )
        )
    return 0 if report.ok else 1


# -- rehearsal verify-batch ---------------------------------------------------


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal verify-batch",
        description=(
            "Verify a fleet of Puppet manifests in parallel worker "
            "processes, caching verdicts by content so unchanged "
            "manifests re-verify instantly."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="manifest files and/or directories (searched recursively "
        "for *.pp)",
    )
    _add_analysis_flags(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="number of verification worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="verdict cache directory (default: $XDG_CACHE_HOME/rehearsal)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="verify everything from scratch; neither read nor write "
        "the verdict cache",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the machine-readable run report to PATH "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any manifest fails verification, not only on "
        "errors",
    )
    return parser


def run_verify_batch(argv) -> int:
    from repro.service import BatchVerifier, VerdictCache, discover_manifests

    args = build_batch_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2

    if args.json not in (None, "-"):
        # Fail fast (without touching the filesystem): discovering the
        # path is unwritable only after the whole fleet has been
        # verified would waste the entire run.
        json_path = OsPath(args.json)
        problem = None
        if json_path.is_dir():
            problem = "path is a directory"
        elif not json_path.parent.is_dir():
            problem = f"parent directory {json_path.parent} does not exist"
        if problem is not None:
            print(
                f"error: cannot write --json {args.json}: {problem}",
                file=sys.stderr,
            )
            return 2

    paths = []
    for target in args.targets:
        try:
            paths.extend(discover_manifests(target))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # Overlapping targets (a directory plus a file inside it, possibly
    # spelled differently) must not produce duplicate rows or inflated
    # counts.
    seen = set()
    unique_paths = []
    for path in paths:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique_paths.append(path)
    paths = unique_paths
    if not paths:
        print(
            f"error: no *.pp manifests found under: {', '.join(args.targets)}",
            file=sys.stderr,
        )
        return 2

    verifier = BatchVerifier(
        options=_options_from_args(args),
        platform=args.platform,
        node_name=args.node,
        synthesize_packages=not args.strict_packages,
        workers=args.workers,
        cache=None if args.no_cache else VerdictCache(args.cache_dir),
    )
    report = verifier.verify_paths(paths)

    print(render_batch_report(report))
    if args.json == "-":
        print(report.to_json())
    elif args.json is not None:
        try:
            OsPath(args.json).write_text(
                report.to_json() + "\n", encoding="utf8"
            )
        except OSError as exc:
            print(
                f"error: cannot write --json {args.json}: {exc}",
                file=sys.stderr,
            )
            return 1

    if report.error_count:
        return 1
    if args.strict and report.failed_count:
        return 1
    return 0


# -- rehearsal serve ----------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal serve",
        description=(
            "Run the resident verification daemon: an asyncio HTTP "
            "service fronting the batch verifier behind a tiered "
            "(in-memory LRU over on-disk) verdict cache, with an "
            "optional filesystem watcher that re-verifies changed "
            "manifests and streams rows over long-poll /v1/events.  "
            "See docs/serve.md for the endpoint contract."
        ),
        epilog=(
            "Exit codes: 0 — clean shutdown on SIGTERM/SIGINT; "
            "2 — bad invocation or the service cannot start."
        ),
    )
    _add_analysis_flags(parser)
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1; 0.0.0.0 in Docker)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8421,
        help="TCP port (default: 8421; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="verification worker threads; extra requests queue "
        "(default: 1)",
    )
    parser.add_argument(
        "--watch",
        metavar="DIR",
        default=None,
        help="re-verify any *.pp under DIR when it changes (stat-poll "
        "watcher; rows stream over /v1/events)",
    )
    parser.add_argument(
        "--quota",
        type=float,
        default=None,
        metavar="RPS",
        help="per-client token-bucket quota on /v1/* in requests per "
        "second; exhausted clients get 429 + Retry-After "
        "(default: no quota)",
    )
    parser.add_argument(
        "--quota-burst",
        type=int,
        default=None,
        metavar="N",
        help="token-bucket capacity (default: ceil of --quota)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="verdict cache directory (default: $XDG_CACHE_HOME/rehearsal)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="verify every request from scratch; disables /v1/verdicts",
    )
    parser.add_argument(
        "--lru-capacity",
        type=int,
        default=None,
        metavar="N",
        help="in-process LRU tier size in verdicts (default: 1024)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="watcher stat-poll cadence in seconds (default: 0.5)",
    )
    parser.add_argument(
        "--debounce",
        type=float,
        default=0.25,
        help="quiet period before a changed manifest re-verifies, "
        "coalescing rapid successive writes (default: 0.25)",
    )
    return parser


def run_serve(argv) -> int:
    from repro.service.daemon import DaemonConfig, run_daemon

    args = build_serve_parser().parse_args(argv)
    problem = None
    if args.workers < 1:
        problem = "--workers must be >= 1"
    if problem is None and args.port < 0:
        problem = "--port must be >= 0"
    if problem is None and args.quota is not None and args.quota <= 0:
        problem = "--quota must be positive"
    if problem is None and (
        args.quota_burst is not None and args.quota_burst < 1
    ):
        problem = "--quota-burst must be >= 1"
    if problem is None and args.quota_burst is not None and args.quota is None:
        problem = "--quota-burst needs --quota"
    if problem is None and (
        args.lru_capacity is not None and args.lru_capacity < 1
    ):
        problem = "--lru-capacity must be >= 1"
    if problem is None and args.poll_interval <= 0:
        problem = "--poll-interval must be positive"
    if problem is None and args.debounce < 0:
        problem = "--debounce must be >= 0"
    if problem is None and args.watch is not None:
        if not OsPath(args.watch).is_dir():
            problem = f"--watch: no such directory: {args.watch}"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    from repro.service.tiered import DEFAULT_CAPACITY

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        watch=args.watch,
        quota=args.quota,
        quota_burst=args.quota_burst,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        lru_capacity=(
            args.lru_capacity
            if args.lru_capacity is not None
            else DEFAULT_CAPACITY
        ),
        options=_options_from_args(args),
        platform=args.platform,
        node_name=args.node,
        synthesize_packages=not args.strict_packages,
        poll_interval=args.poll_interval,
        debounce=args.debounce,
    )
    return run_daemon(config)


# -- rehearsal cache ----------------------------------------------------------


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal cache",
        description=(
            "Inspect and manage the on-disk caches: the verdict cache "
            "(one JSON entry per verified manifest) and the "
            "incremental store (whole determinism and idempotence "
            "verdicts of unchanged post-pruning catalogs, reused across "
            "runs).  Both live in the cache directory (REHEARSAL_CACHE_DIR, else "
            "$XDG_CACHE_HOME/rehearsal)."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REHEARSAL_CACHE_DIR, else "
        "$XDG_CACHE_HOME/rehearsal)",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser(
        "stats", help="entry counts and on-disk bytes for both caches"
    )
    sub.add_parser(
        "clear", help="delete every verdict entry and incremental row"
    )
    gc = sub.add_parser(
        "gc",
        help="evict oldest entries until both caches fit the budget",
    )
    gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="per-cache size budget in bytes; oldest entries go first",
    )
    return parser


def run_cache(argv) -> int:
    from repro.service import VerdictCache
    from repro.service.incremental import IncrementalStore, default_store_path

    args = build_cache_parser().parse_args(argv)
    cache = VerdictCache(args.cache_dir)
    store = IncrementalStore(default_store_path(args.cache_dir))

    if args.action == "stats":
        vstats = cache.stats()
        istats = store.stats()
        print(f"cache directory: {vstats['directory']}")
        entries = vstats["entries"]
        print(
            f"verdict cache: {entries} "
            f"{'entry' if entries == 1 else 'entries'}, "
            f"{vstats['bytes']} bytes"
        )
        if store.disabled:
            print("incremental store: unavailable")
        else:
            print(
                f"incremental store: {istats.get('entries', 0)} row(s), "
                f"{istats.get('bytes', 0)} bytes on disk"
            )
            for section, counts in sorted(
                istats.get("sections", {}).items()
            ):
                print(
                    f"  {section}: {counts['entries']} row(s), "
                    f"{counts['bytes']} bytes"
                )
        return 0

    if args.action == "clear":
        removed = cache.clear()
        rows = store.clear()
        print(
            f"removed {removed} cached verdict(s) and {rows} "
            f"incremental row(s) from {cache.directory}"
        )
        return 0

    if args.action == "gc":
        if args.max_bytes < 0:
            print("error: --max-bytes must be >= 0", file=sys.stderr)
            return 2
        removed = cache.gc(args.max_bytes)
        rows = store.gc(args.max_bytes)
        print(
            f"evicted {removed} cached verdict(s) and {rows} "
            f"incremental row(s) to fit {args.max_bytes} bytes"
        )
        return 0

    return 2  # unreachable: argparse requires an action


# -- rehearsal fuzz -----------------------------------------------------------


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal fuzz",
        description=(
            "Differential fuzzing: generate random catalogs, verify "
            "each with the real symbolic pipeline AND a concrete "
            "all-interleavings oracle, and fail on any disagreement. "
            "Runs are reproducible: the same --seed and --budget "
            "produce the same cases and a byte-identical summary."
        ),
        epilog=(
            "Exit codes: 0 — every case agreed; 1 — disagreement(s) "
            "found; 2 — bad invocation; 3 — the wall clock stopped "
            "the run before an explicit --cases quota completed."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed of the case stream (default: 0); the "
        "nightly job derives one from the date",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="time budget in seconds; buys a deterministic case quota "
        "(5 cases per second) with the wall clock as a safety stop "
        "(default: 60, or sized to fit an explicit --cases)",
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        help="run exactly this many cases instead of the "
        "budget-derived quota",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug every disagreeing case to a minimal "
        "reproducer before reporting it",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write summary.json plus one reproducer .pp per "
        "disagreement into DIR (created if missing)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="also run the static analyzer on every case and "
        "cross-examine it against the oracle: a definite race "
        "(REH005) the oracle refutes is a failing lint_false_race "
        "disagreement; races lint misses are counted, not failures",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="verify every generated case with the persistent "
        "incremental store enabled, keeping the differential oracle "
        "honest against the cross-run reuse path (default: off, or "
        "REHEARSAL_INCREMENTAL=1)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-case progress lines",
    )
    parser.add_argument(
        "--replay",
        metavar="REPRODUCER",
        default=None,
        help="replay a single committed reproducer .pp through the "
        "differential pipeline instead of fuzzing; exit 0 if the "
        "disagreement stays fixed and the pinned verdicts hold",
    )
    parser.add_argument(
        "--oracle-seed",
        type=int,
        default=None,
        help="with --replay: override the oracle seed instead of "
        "using the header's",
    )
    return parser


def _budget_for_cases(cases: int) -> float:
    """A wall-clock safety stop comfortably above the quota's nominal
    pace (5 cases/second), so 'reproduce with --cases N' commands never
    stop short on a slower machine."""
    from repro.testing import CASES_PER_SECOND

    return max(60.0, 2.0 * cases / CASES_PER_SECOND)


def run_fuzz(argv) -> int:
    from repro.testing import FuzzSession
    from repro.testing.regressions import format_reproducer

    args = build_fuzz_parser().parse_args(argv)
    if args.replay is not None:
        return _run_replay(args)
    if args.oracle_seed is not None:
        print(
            "error: --oracle-seed only makes sense with --replay",
            file=sys.stderr,
        )
        return 2
    if args.budget is not None and args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    if args.cases is not None and args.cases < 1:
        print("error: --cases must be >= 1", file=sys.stderr)
        return 2
    budget = args.budget
    if budget is None:
        # An explicit --cases must never be truncated by the default
        # wall clock: size the safety stop to the requested quota.
        budget = (
            _budget_for_cases(args.cases)
            if args.cases is not None
            else 60.0
        )
    out_dir = None
    if args.out is not None:
        out_dir = OsPath(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(
                f"error: cannot create --out {args.out}: {exc}",
                file=sys.stderr,
            )
            return 2

    progress = (
        (lambda message: None)
        if args.quiet
        else (lambda message: print(f"  {message}"))
    )
    session = FuzzSession(
        seed=args.seed,
        budget_seconds=budget,
        cases=args.cases,
        shrink=args.shrink,
        options=(
            DeterminismOptions(incremental=True)
            if args.incremental
            else None
        ),
        progress=progress,
        lint=args.lint,
    )
    print(
        f"fuzzing with seed {args.seed}: "
        f"{session.quota} cases (budget {budget:g}s)"
    )
    summary = session.run()

    counts = ", ".join(
        f"{count} {verdict}"
        for verdict, count in sorted(summary.verdict_counts.items())
    )
    print(
        f"ran {summary.cases_run}/{summary.case_quota} cases in "
        f"{summary.elapsed_seconds:.1f}s: {counts or 'nothing'}"
    )
    if summary.lint_enabled:
        print(
            f"lint: {summary.lint_definite_races} case(s) with definite "
            f"races, {summary.lint_false_races} false race(s), "
            f"{summary.lint_missed_definite_races} missed definite "
            "race(s)"
        )
    truncated_failure = False
    if summary.truncated:
        if args.cases is not None:
            # An explicit --cases pins the coverage; delivering less
            # must not read as success (the CI smoke relies on this).
            print(
                f"error: wall clock stopped the run at "
                f"{summary.cases_run}/{args.cases} requested cases",
                file=sys.stderr,
            )
            truncated_failure = True
        else:
            print("warning: wall-clock budget exhausted before the quota")

    if out_dir is not None:
        (out_dir / "summary.json").write_text(
            summary.to_json(), encoding="utf8"
        )
        for finding in summary.findings:
            repro = finding.reproducer
            outcome = finding.reproducer_outcome
            text = format_reproducer(
                repro.source,
                seed=repro.master_seed,
                case_id=repro.case_id,
                disagreement=",".join(finding.outcome.kinds()),
                expected_deterministic=outcome.oracle_deterministic,
                expected_idempotent=outcome.oracle_idempotent,
                bug_class=repro.bug,
                found_by=f"fuzz-seed-{repro.master_seed}",
            )
            (out_dir / f"repro-{repro.case_id}.pp").write_text(
                text, encoding="utf8"
            )
        print(f"wrote summary.json to {out_dir}")

    if summary.findings:
        print(
            f"\n{summary.disagreement_count} DISAGREEMENT(S) between "
            "the pipeline and the concrete oracle:",
            file=sys.stderr,
        )
        for finding in summary.findings:
            kinds = ",".join(finding.outcome.kinds())
            # Cases are a pure function of (seed, case_id), and
            # --cases sizes its own wall clock, no --budget needed.
            print(
                f"  - case {finding.case.case_id} "
                f"({finding.case.bug}): {kinds}; reproduce with "
                f"--seed {finding.case.master_seed} "
                f"--cases {finding.case.case_id + 1}",
                file=sys.stderr,
            )
        return 1
    if truncated_failure:
        return 3
    print("no disagreements.")
    return 0


def _run_replay(args) -> int:
    from repro.testing.replay import replay_file

    path = OsPath(args.replay)
    if not path.is_file():
        print(f"error: no such reproducer: {path}", file=sys.stderr)
        return 2
    result = replay_file(path, oracle_seed=args.oracle_seed)
    seed = result.oracle_seed
    if result.ok:
        outcome = result.outcome
        print(
            f"{path.name}: still fixed under oracle seed {seed} "
            f"(deterministic={outcome.pipeline_deterministic}, "
            f"idempotent={outcome.pipeline_idempotent})"
        )
        return 0
    print(f"{path.name}: REPLAY FAILED", file=sys.stderr)
    for problem in result.problems:
        print(f"  - {problem}", file=sys.stderr)
    return 1


# -- rehearsal lint -----------------------------------------------------------


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rehearsal lint",
        description=(
            "Statically analyze Puppet manifests against the "
            "Rehearsal rule catalogue (REH001..): races, duplicate "
            "path claims, dangling references, cycles, filesystem "
            "hygiene — with source-span diagnostics and zero SAT "
            "queries.  See docs/lint.md for the rules."
        ),
        epilog=(
            "Exit codes: 0 — clean (at most notes); 1 — warnings; "
            "2 — errors; 3 — bad invocation."
        ),
    )
    parser.add_argument(
        "manifests", nargs="+", help="paths to .pp manifest files"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text); sarif emits one SARIF "
        "2.1.0 log covering every linted manifest",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--protect",
        metavar="PATH",
        action="append",
        default=[],
        help="flag writes inside this subtree (REH010); repeatable",
    )
    parser.add_argument(
        "--no-confirm",
        action="store_true",
        help="skip the concrete two-order confirmation of race "
        "candidates; every candidate stays a possible-race warning",
    )
    parser.add_argument(
        "--disable",
        metavar="RULE",
        action="append",
        default=[],
        help="suppress a rule id (e.g. --disable REH009); repeatable",
    )
    parser.add_argument(
        "--platform",
        default="ubuntu",
        choices=tuple(PLATFORMS),
        help="target platform: its facts and package database "
        "(default: ubuntu)",
    )
    parser.add_argument(
        "--node",
        default="default",
        help="node name used to select node blocks",
    )
    parser.add_argument(
        "--strict-packages",
        action="store_true",
        help="fail on packages missing from the database instead of "
        "synthesizing a listing",
    )
    return parser


def run_lint(argv) -> int:
    import json as _json

    from repro import __version__
    from repro.analysis.lint import LintOptions, lint_source, render_sarif
    from repro.fs.paths import Path as FsPath

    args = build_lint_parser().parse_args(argv)
    try:
        protected = tuple(FsPath.of(p) for p in args.protect)
    except ValueError as exc:
        print(f"error: bad --protect path: {exc}", file=sys.stderr)
        return 3
    options = LintOptions(
        confirm_races=not args.no_confirm,
        protected=protected,
        disabled=tuple(args.disable),
    )
    context = ModelContext.for_platform(
        args.platform, synthesize=not args.strict_packages
    )

    reports = []
    for manifest in args.manifests:
        try:
            source = OsPath(manifest).read_text(encoding="utf8")
        except (OSError, UnicodeDecodeError) as exc:
            print(
                f"error: cannot read manifest {manifest}: {exc}",
                file=sys.stderr,
            )
            return 3
        reports.append(
            lint_source(
                source,
                name=manifest,
                options=options,
                context=context,
                node_name=args.node,
            )
        )

    if args.format == "sarif":
        output = render_sarif(reports, tool_version=__version__)
    elif args.format == "json":
        output = (
            _json.dumps(
                {
                    "schema": 1,
                    "manifests": [r.to_dict() for r in reports],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        output = "\n\n".join(r.render() for r in reports) + "\n"

    if args.out is not None:
        try:
            OsPath(args.out).write_text(output, encoding="utf8")
        except OSError as exc:
            print(
                f"error: cannot write --out {args.out}: {exc}",
                file=sys.stderr,
            )
            return 3
    else:
        sys.stdout.write(output)

    return max(r.exit_code for r in reports)


# -- dispatch -----------------------------------------------------------------


#: Every subcommand word and what runs it.
COMMANDS = {
    "verify": run_verify,
    "verify-batch": run_verify_batch,
    "serve": run_serve,
    "cache": run_cache,
    "fuzz": run_fuzz,
    "lint": run_lint,
}


def _names_a_manifest(word: str) -> bool:
    """Whether a first word that is no subcommand is read as the
    manifest of an implicit ``verify``: a ``.pp`` name, a path, or an
    existing file.  Any other word is a mistyped or retired command."""
    return (
        word.endswith(".pp")
        or os.sep in word
        or (os.altsep is not None and os.altsep in word)
        or os.path.isfile(word)
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    first = argv[0] if argv else ""
    if first in COMMANDS:
        return COMMANDS[first](argv[1:])
    if first and not first.startswith("-") and not _names_a_manifest(first):
        print(
            f"error: unknown command {first!r}\n"
            f"commands: {', '.join(COMMANDS)}, "
            f"or a manifest path to verify",
            file=sys.stderr,
        )
        return 2
    return run_verify(argv)


if __name__ == "__main__":
    sys.exit(main())
