"""``daemon-mixed``: the service shape, against a ``rehearsal serve``
child (``--workers 1 --incremental``, no quota).

One generator process (this one) drives it through at most ``nproc``
concurrent connections with the request mix of
:data:`perfbench.inputs.MIX`: tier reads of corpus verdicts by key,
re-POSTs of corpus sources (verdict-cache hits) and fresh one-resource
edits (pipeline plus store writes).  A run is a series of rounds, each
with two phases: closed-loop capacity (every connection busy over a
fixed batch of requests), then an open loop at the frozen ``light``
rate, constant-rate arrivals, each request timed from when it was due.  The traced run drives open loops
at the ``heavy`` rate instead.  The daemon and the generator run on
separate CPUs.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import inputs, tracing
from perfbench.util import (
    CHILD_TIMEOUT, CLI, ROOT, SETUP_PROBES, Outcome, child_env, median, percentile, probe_on, stop_child,
    time_scale,
)

#: Offered rates (requests/s), frozen against the closed-loop capacity
#: measured on a shared 2-core host (Python 3.11): about 100 requests/s
#: when the host is quiet, about 60 when it is busy.  ``light`` is 1/4
#: of the busy capacity, so the light phase stays out of queueing
#: whatever the host does; ``heavy`` is about 1/2 of the quiet one,
#: because at 3/4 the median alone moved by more than 30% between seeds.
LIGHT_RPS = 15.0
HEAVY_RPS = 50.0
#: The tail percentile of the capacity phase: a run's 500-odd capacity
#: samples keep ten beyond it.
TAIL = 98.0
SETUPS = 3
CONNECTIONS = max(1, os.cpu_count() or 1)
#: Requests in the capacity phase of a round: whole blocks of the mix
#: holding one deck cycle of edits, so every round's capacity phase
#: edits every base once and is the same work.
CAPACITY_REQUESTS = 10 * len(inputs.EDIT_BASES)
#: Seconds of the light phase of a round.
LIGHT_SECONDS = 4.5
#: Seconds of a traced round (half on each daemon).
ROUND_SECONDS = 6.0
#: Speed probes on each CPU before and after each round.
ROUND_PROBES = 2
REQUEST_TIMEOUT = 30.0
#: The generator wakes this many seconds before a request is due and
#: polls the event loop until then, so its own timer slack does not
#: count as the daemon's latency.
EARLY_WAKE = 0.002

_SERVING = re.compile(r"serving on http://[^:]+:(\d+)")
_METRIC = re.compile(r"^([a-z_]+(?:\{[^}]*\})?) ([0-9.eE+-]+)$", re.M)


def split_cpus() -> Optional[int]:
    """Move this generator to one CPU and return another for the
    daemons.

    Left to the scheduler, the daemon's event-loop and worker threads
    hand the GIL across cores and the daemon preempts the generator's
    timers, each by chance; on separate CPUs neither varies from run
    to run.  With a single CPU there is nothing to separate (None).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def daemon_hash_seed(seed: int, index: int) -> str:
    return inputs.hash_seed(seed, "daemon", index)


class Daemon:
    """One ``rehearsal serve`` child with its own cache and store."""

    def __init__(self, seed: int, index: int, work: Path, traced: bool, cpu: Optional[int]):
        self.cpu = cpu
        self.dir = work / f"daemon{index}"
        self.dir.mkdir()
        self.store = self.dir / "store"
        self.spans = self.dir / "spans.json" if traced else None
        self.log = self.dir / "serve.log"
        args = [
            "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "--incremental", "--incremental-dir", str(self.store),
            "--cache-dir", str(self.dir / "cache"),
        ]
        if traced:
            self.argv = [sys.executable, "-m", "perfbench.traced_child", str(self.spans)] + args
        else:
            self.argv = CLI + args
        self.env = child_env(daemon_hash_seed(seed, index), work, traced=traced)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.keys: Dict[str, str] = {}

    def start(self) -> None:
        """Spawn and wait until ``/healthz`` answers."""
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        deadline = time.perf_counter() + CHILD_TIMEOUT
        while not self.port:
            found = _SERVING.search(self.log.read_text(errors="replace"))
            if found:
                self.port = int(found.group(1))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: {self.log.read_text()[-500:]}")
            else:
                time.sleep(0.002)
        status, _ = asyncio.run(http(self.port, "GET", "/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def stop(self) -> float:
        """Graceful SIGTERM shutdown; returns the daemon's peak RSS."""
        return stop_child(self.proc) if self.proc is not None else 0.0

    def metrics(self) -> Dict[str, float]:
        _, body = asyncio.run(http(self.port, "GET", "/metrics"))
        return parse_metrics(body)

    def probes(self) -> List[float]:
        """Speed probes on the daemon's CPU and on the generator's, taken
        while both are idle: capacity rides on both."""
        return probe_on(self.cpu, ROUND_PROBES) + probe_on(None, ROUND_PROBES)


def parse_metrics(body: bytes) -> Dict[str, float]:
    return {key: float(value) for key, value in _METRIC.findall(body.decode("utf8"))}


async def http(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the daemon closes
    every connection after its response)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + (body or b""))
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    status_line, _, rest = response.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    parts = status_line.split(b" ")
    return (int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0), payload


def _post_body(name: str, source: str) -> bytes:
    return json.dumps({"name": name, "source": source}).encode("utf8")


class Client:
    """Issues the mix against one daemon and checks every verdict."""

    def __init__(self, daemon: Daemon, sources: Dict[str, str], outcome: Outcome):
        self.daemon = daemon
        self.sources = sources
        self.outcome = outcome
        self._edits: Dict[str, Iterator[inputs.Edit]] = {}

    def next_edit(self, seed: int, stream: str) -> inputs.Edit:
        """The next fresh edit of ``stream``; a stream runs on across
        rounds, so a run's edits stay deck-balanced over all bases."""
        if stream not in self._edits:
            self._edits[stream] = inputs.edit_stream(seed, f"daemon-{stream}")
        return next(self._edits[stream])

    async def one(self, kind: str, target: str, edit: Optional[inputs.Edit]) -> Tuple[bool, float]:
        """Send one request; returns (ok, seconds from send to reply)."""
        if kind == "get":
            method, path, body, expect = "GET", f"/v1/verdicts/{self.daemon.keys[target]}", None, target
        elif kind == "repost":
            method, path, body, expect = "POST", "/v1/verify", _post_body(target, self.sources[target]), target
        else:
            method, path, body, expect = "POST", "/v1/verify", _post_body(edit.token, edit.source), edit.base
        start = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                http(self.daemon.port, method, path, body), REQUEST_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self.outcome.fail(f"{kind} {target}: {type(exc).__name__}: {exc}")
            return False, time.perf_counter() - start
        spent = time.perf_counter() - start
        if status != 200:
            self.outcome.fail(f"{kind} {target}: HTTP {status}")
            return False, spent
        try:
            row = json.loads(payload)["row"]
        except (ValueError, KeyError) as exc:
            self.outcome.fail(f"{kind} {target}: bad body: {exc}")
            return False, spent
        problem = inputs.verdict_error(expect, row)
        if problem:
            self.outcome.fail(f"{kind}: {problem}")
            return False, spent
        if kind == "repost" and row.get("cache_key") != self.daemon.keys[target]:
            self.outcome.fail(f"repost {target}: cache key changed")
            return False, spent
        return True, spent

    def prefill(self) -> None:
        """POST every corpus manifest once, remembering its cache key."""

        async def fill() -> None:
            for name in inputs.CORPUS:
                status, payload = await http(
                    self.daemon.port, "POST", "/v1/verify", _post_body(name, self.sources[name])
                )
                row = json.loads(payload)["row"] if status == 200 else {"status": "error", "error": status}
                problem = inputs.verdict_error(name, row)
                if problem:
                    self.outcome.problems.append(f"prefill: {problem}")
                self.daemon.keys[name] = row.get("cache_key", "")

        asyncio.run(fill())

    def closed_loop(self, seed: int, stream: str, round_index: int, count: int) -> Tuple[float, List[float]]:
        """Every connection busy until ``count`` requests are answered:
        completed requests/s and the send-to-reply milliseconds of each
        completed request."""
        mix = iter(inputs.request_mix(seed, f"{stream}-{round_index}", count))

        latencies: List[float] = []

        async def worker() -> None:
            for kind, target in mix:
                ok, spent = await self.one(kind, target, self.next_edit(seed, stream) if kind == "edit" else None)
                self.outcome.attempted += 1
                if ok:
                    latencies.append(spent * 1000.0)

        async def drive() -> Tuple[float, List[float]]:
            start = time.perf_counter()
            await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
            return len(latencies) / (time.perf_counter() - start), latencies

        return asyncio.run(drive())

    def open_loop(self, seed: int, stream: str, round_index: int, rate: float, seconds: float,
                  watch_queue: bool = False) -> Dict[str, object]:
        """Arrivals at a constant ``rate``, each request timed from when
        it was due.  ``records`` holds (due offset s, kind, latency ms,
        send-to-reply ms) of every request that succeeded."""
        phase = f"{stream}-{round_index}"
        schedule = inputs.arrival_schedule(seed, phase, rate, seconds)
        mix = inputs.request_mix(seed, phase, len(schedule))

        async def drive():
            slots = asyncio.Semaphore(CONNECTIONS)
            records: List[Tuple[float, str, float, float]] = []
            lags: List[float] = []
            queue_depths: List[float] = [0.0]

            async def request(at: float, due: float, kind: str, target: str, edit) -> None:
                async with slots:
                    ok, spent = await self.one(kind, target, edit)
                if ok:
                    records.append((at, kind, (time.perf_counter() - due) * 1000.0, spent * 1000.0))

            async def sample_queue() -> None:
                while True:
                    _, body = await http(self.daemon.port, "GET", "/metrics")
                    queue_depths.append(parse_metrics(body).get("rehearsal_daemon_queue_depth", 0.0))
                    await asyncio.sleep(0.05)

            watcher = asyncio.ensure_future(sample_queue()) if watch_queue else None
            tasks = []
            start = time.perf_counter()
            for at, (kind, target) in zip(schedule, mix):
                due = start + at
                delay = due - time.perf_counter()
                if delay > EARLY_WAKE:
                    await asyncio.sleep(delay - EARLY_WAKE)
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
                lags.append((time.perf_counter() - due) * 1000.0)
                edit = self.next_edit(seed, stream) if kind == "edit" else None
                tasks.append(asyncio.ensure_future(request(at, due, kind, target, edit)))
            await asyncio.gather(*tasks)
            if watcher is not None:
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass
            return start, records, lags, max(queue_depths)

        started, records, lags, queue_max = asyncio.run(drive())
        self.outcome.attempted += len(schedule)
        return {
            "requests": len(schedule),
            "started_at": started,
            "records": records,
            "lag_p99_ms": percentile(lags, 99.0),
            "queue_depth_max": queue_max,
        }


def _boot(seed: int, index: int, work: Path, traced: bool, cpu: Optional[int], sources,
          outcome) -> Tuple[Daemon, Client, float]:
    """Boot a daemon on ``cpu`` and prefill its keys; returns it with
    the set-up seconds (spawn to the last prefill verdict)."""
    start = time.perf_counter()
    daemon = Daemon(seed, index, work, traced, cpu)
    try:
        daemon.start()
        client = Client(daemon, sources, outcome)
        client.prefill()
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.corpus import load_source

    outcome = Outcome()
    sources = {name: load_source(name) for name in inputs.CORPUS}
    cpu = split_cpus()
    if trace:
        return _run_traced(seed, seconds, work, cpu, sources, outcome)

    setups: List[float] = []
    daemon = None
    for index in range(SETUPS):
        if daemon is not None:
            daemon.stop()
        before = probe_on(cpu, SETUP_PROBES)
        daemon, client, spent = _boot(seed, index, work, False, cpu, sources, outcome)
        setups.append(spent * time_scale(before + probe_on(cpu, SETUP_PROBES)))
    # The phases take turns in short rounds, so each one samples the
    # whole run; timed at reference speed, the median over rounds
    # shrugs off the seconds in which the machine ran slow.
    capacity: List[float] = []
    capacity_ms: List[float] = []
    read_ms: List[List[float]] = []
    light_ms: List[float] = []
    lags: List[float] = []
    probes: List[float] = []
    end = time.perf_counter() + seconds
    try:
        while time.perf_counter() < end or not capacity:
            r = len(capacity)
            round_probes = daemon.probes()
            rps, latencies = client.closed_loop(seed, "capacity", r, CAPACITY_REQUESTS)
            light = client.open_loop(seed, "light", r, LIGHT_RPS, LIGHT_SECONDS)
            round_probes += daemon.probes()
            scale = time_scale(round_probes)
            probes += round_probes
            capacity.append(rps / scale)
            capacity_ms += [ms * scale for ms in latencies]
            read_ms.append([latency * scale for _, kind, latency, _ in light["records"] if kind == "get"])
            light_ms += [latency * scale for _, _, latency, _ in light["records"]]
            lags.append(light["lag_p99_ms"])
    finally:
        rss = daemon.stop()
    # The median is the reads' (70% of requests) at the light rate: over
    # every request it would sit where reads give way to the verifies
    # they queue behind.  The tail is taken at capacity, pooled over the
    # run: there the slowest verifies set it, while at the light rate it
    # hangs on how many reads happen to arrive during one.
    outcome.metrics = {
        "setup_s": median(setups),
        "verdicts_per_s": median(capacity),
        "verdict_p50_ms": median([median(lat) for lat in read_ms]),
        "verdict_tail_ms": percentile(capacity_ms, TAIL),
        "peak_rss_mb": rss,
    }
    outcome.details = {
        "setup_runs_s": setups,
        "daemon_hash_seeds": [daemon_hash_seed(seed, index) for index in range(SETUPS)],
        "connections": CONNECTIONS,
        "light_rps": LIGHT_RPS,
        "tail_percentile": TAIL,
        "rounds": len(capacity),
        "capacity_requests_per_round": CAPACITY_REQUESTS,
        "light_seconds_per_round": LIGHT_SECONDS,
        "capacity_rps_by_round": capacity,
        "capacity_samples": len(capacity_ms),
        "light_samples": len(light_ms),
        "light_p95_ms": percentile(light_ms, 95.0),
        "read_samples": sum(len(lat) for lat in read_ms),
        "read_p50_ms_by_round": [median(lat) for lat in read_ms],
        "light_lag_p99_ms": max(lags),
        "probe_ms_median": median(probes),
    }
    return outcome


def _run_traced(seed: int, seconds: float, work: Path, cpu: Optional[int], sources,
                outcome: Outcome) -> Outcome:
    """Heavy-rate slices that alternate between an untraced and a
    traced daemon, so both see the same machine; per-layer metrics come
    from the traced daemon's spans and ``/metrics`` deltas."""
    plain_daemon, plain_client, _ = _boot(seed, 0, work, False, cpu, sources, outcome)
    try:
        daemon, client, _ = _boot(seed, 1, work, True, cpu, sources, outcome)
    except BaseException:
        plain_daemon.stop()
        raise
    rounds = max(1, round(seconds / ROUND_SECONDS))
    half = seconds / rounds / 2
    plain: List[dict] = []
    traced: List[dict] = []
    try:
        before = daemon.metrics()
        for r in range(rounds):
            plain.append(plain_client.open_loop(seed, "heavy", r, HEAVY_RPS, half))
            traced.append(client.open_loop(seed, "heavy-traced", r, HEAVY_RPS, half, watch_queue=True))
        after = daemon.metrics()
    finally:
        plain_daemon.stop()
        daemon.stop()

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    verifies = delta("rehearsal_daemon_verify_seconds_count")
    server_ms = delta("rehearsal_daemon_verify_seconds_sum") * 1000.0 / verifies if verifies else 0.0
    tiers = {tier: delta(f'rehearsal_daemon_cache_lookups_total{{tier="{tier}"}}')
             for tier in ("memory", "disk", "miss")}
    lookups = sum(tiers.values())
    # perf_counter is CLOCK_MONOTONIC, shared with the child: keep the
    # spans of the measured slices, not those of the prefill.
    spans = [
        span for span in (tracing.read_spans(str(daemon.spans)) if daemon.spans.exists() else [])
        if span[2] >= traced[0]["started_at"]
    ]
    requests = sum(phase["requests"] for phase in traced)
    plain_ms = [latency for phase in plain for _, _, latency, _ in phase["records"]]
    traced_ms = [latency for phase in traced for _, _, latency, _ in phase["records"]]
    post_send = [sent for phase in traced for _, kind, _, sent in phase["records"] if kind != "get"]
    outcome.metrics = tracing.layer_metrics(spans, requests)
    outcome.metrics.update({
        "store.bytes": (daemon.store / "incremental.sqlite").stat().st_size,
        "daemon.server_verify_ms": server_ms,
        "daemon.transport_ms": mean(post_send) - server_ms if post_send else 0.0,
        "daemon.queue_depth_max": max(phase["queue_depth_max"] for phase in traced),
        "daemon.generator_lag_ms": max(phase["lag_p99_ms"] for phase in traced),
        "tiered.memory_hits": tiers["memory"] / requests,
        "tiered.disk_hits": tiers["disk"] / requests,
        "tiered.misses": tiers["miss"] / requests,
        "tiered.hit_ratio": (tiers["memory"] + tiers["disk"]) / lookups if lookups else 0.0,
        "trace.overhead_ms": mean(traced_ms) - mean(plain_ms),
    })
    outcome.details = {
        "daemon_hash_seeds": [daemon_hash_seed(seed, index) for index in range(2)],
        "heavy_rps": HEAVY_RPS,
        "untraced_samples": len(plain_ms),
        "traced_samples": len(traced_ms),
        "untraced_mean_ms": mean(plain_ms),
        "traced_mean_ms": mean(traced_ms),
        "spans": len(spans),
    }
    return outcome
