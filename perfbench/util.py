"""Process, timing and bookkeeping helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, caches, edited manifests and span files;
#: inside the checkout and ignored by git.
WORK_ROOT = ROOT / ".perfbench_work"

#: The ``rehearsal`` command, run from the checkout's sources.
CLI = [sys.executable, "-m", "repro.core.cli"]

#: Seconds any one child process may take before it counts as failed.
CHILD_TIMEOUT = 60.0
#: Seconds a stopped child may take to drain before it is killed.
STOP_TIMEOUT = 30.0
#: Milliseconds :func:`probe_ms` takes on a quiet 2-vCPU shared host
#: (Python 3.11): the speed every reported time is scaled to.
REFERENCE_PROBE_MS = 8.5
#: Speed probes before and after each set-up run.
SETUP_PROBES = 3


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Set-up checks (corpus verdicts, store fill) that went wrong.
    problems: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def child_env(hash_seed: str, work: Path, traced: bool = False, **extra: str) -> Dict[str, str]:
    """Environment of a spawned program process: the checkout's
    ``src`` on the path, a pinned hash seed, caches inside ``work``."""
    env = dict(os.environ)
    path = [str(SRC)] + ([str(ROOT)] if traced else [])
    env.update(
        PYTHONPATH=os.pathsep.join(path),
        PYTHONHASHSEED=hash_seed,
        REHEARSAL_CACHE_DIR=str(work / "cache"),
        REHEARSAL_INCREMENTAL="0",
    )
    env.update(extra)
    return env


@dataclass
class ChildResult:
    returncode: int
    seconds: float
    max_rss_mb: float
    stdout: str


def run_child(argv: Sequence[str], env: Dict[str, str], stdout_path: Path) -> ChildResult:
    """Run one process to completion, timed from spawn to reaped.

    ``os.wait4`` reaps it, so its own peak RSS is known; a watchdog
    kills it after ``CHILD_TIMEOUT`` seconds (return code -9).
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        seconds,
        usage.ru_maxrss / 1024.0,
        stdout_path.read_text(encoding="utf8", errors="replace"),
    )


def stop_child(proc: subprocess.Popen) -> float:
    """SIGTERM ``proc``, reap it (SIGKILL after ``STOP_TIMEOUT`` s) and return
    its peak RSS in MB."""
    if proc.returncode is None:
        # os.kill, not proc.send_signal: the latter polls, and a poll
        # that reaps the process loses its resource usage.
        os.kill(proc.pid, signal.SIGTERM)
    watchdog = threading.Timer(STOP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        if proc.returncode is None:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
    finally:
        watchdog.cancel()
    return 0.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workdir(label: str) -> Path:
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run's directory is still there


def git_sha() -> Optional[str]:
    """The checked-out commit; None where the checkout is not itself a
    repository (git would otherwise answer for an enclosing one)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (paths and bytes): names
    the code measured where no git SHA is available."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode("utf8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return self.a + x if x & 1 else self.b - x


def probe_ms() -> float:
    """Wall milliseconds of a fixed pure-Python workload, an integer
    loop and method calls on a small object: how fast this CPU runs
    Python right now.  On a shared host that drifts by 1.5x and more
    within seconds, and the program's own times drift with it.  Only
    ints, so ``PYTHONHASHSEED`` does not change it."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    probe = _Probe(1, 2)
    for i in range(40_000):
        total += probe.step(i)
    return (time.perf_counter() - start) * 1000.0


def probe_on(cpu: Optional[int], count: int) -> List[float]:
    """``count`` runs of :func:`probe_ms` on CPU ``cpu`` (None: wherever
    this process runs); this process's CPU affinity is restored after."""
    if cpu is None:
        return [probe_ms() for _ in range(count)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return [probe_ms() for _ in range(count)]
    finally:
        os.sched_setaffinity(0, allowed)


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts from now on, on one
    CPU, so that a speed probe times the CPU the measured work runs on:
    on a shared host one vCPU can run slow while the other does not."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_scale(probes: Sequence[float]) -> float:
    """The factor that turns a wall time measured alongside ``probes``
    into a reference-speed time (multiply; divide a rate by it): the
    host's speed swings cancel, a change in the program's own speed
    does not."""
    return REFERENCE_PROBE_MS * len(probes) / sum(probes)


def circumstances() -> Dict[str, object]:
    return {
        "probe_ms": median([probe_ms() for _ in range(5)]),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }
