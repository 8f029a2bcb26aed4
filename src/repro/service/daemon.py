"""``rehearsal serve`` — the long-running verification daemon.

The paper's verifier is a batch process; ROADMAP #1 wants the
"millions of users" shape: many tenants submitting catalogs against
one shared cache, with no per-request process startup.  This module is
that shape, on the standard library alone — ``asyncio.start_server``
plus a hand-rolled HTTP/1.1 layer, no web framework, no new runtime
dependency.

Endpoints (see docs/serve.md for the full contract):

* ``POST /v1/verify`` — body ``{"source": ..., "name": ...}`` or
  ``{"path": ...}``; returns the same verdict row as ``rehearsal
  verify-batch --json`` (byte-identical after
  :func:`repro.service.schema.normalized_row`).
* ``GET /v1/verdicts/<digest>`` — look a verdict up by its cache key
  without verifying; served from the tiered cache
  (:class:`repro.service.tiered.TieredVerdictCache` — in-process LRU
  over the on-disk store).
* ``GET /v1/events?since=N&timeout=S`` — long-poll stream of the
  filesystem watcher's re-verification rows.
* ``GET /healthz`` — liveness + basic run info.
* ``GET /metrics`` — Prometheus text format: request counts, cache
  hit tiers, queue depth, the warm re-verify latency histogram.

The watcher is a stat-poll loop (no watchdog dependency): any
``*.pp`` under ``--watch DIR`` whose (mtime, size) changes is
re-verified once it has been *stable* for the debounce interval, so an
editor's rapid successive writes coalesce into one verification.

Per-client token-bucket quotas guard the ``/v1/*`` endpoints: an
exhausted bucket answers ``429`` with a ``Retry-After`` header and is
refilled continuously at ``--quota`` requests/second.

Verification itself runs on a small thread pool (``--workers``)
through one shared :class:`~repro.service.orchestrator.BatchVerifier`
in serial mode, so every request shares the tiered verdict cache and
— with ``--incremental`` — the one incremental-store handle the
daemon pins open for its whole lifetime (the "daemon mode" headroom
named in ROADMAP #4).

Graceful shutdown: SIGTERM/SIGINT stops accepting connections, wakes
every long-poller, drains in-flight verifications to completion (a
response is written whole or not at all — no partial rows), then
exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.analysis.determinism import DeterminismOptions
from repro.service.orchestrator import BatchVerifier
from repro.service.schema import SCHEMA_VERSION
from repro.service.tiered import DEFAULT_CAPACITY, TieredVerdictCache

#: Upper bounds keeping one rogue client from starving the loop.
MAX_REQUEST_BYTES = 4 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_EVENT_BUFFER = 1000
MAX_LONGPOLL_SECONDS = 60.0

#: How long shutdown waits for in-flight requests before cancelling.
DRAIN_SECONDS = 30.0

#: Histogram buckets for the verify-latency histogram (seconds).  The
#: low end is sized to the warm re-verify path (~ms against a hot
#: store), the high end to cold full-corpus manifests.
LATENCY_BUCKETS = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class DaemonConfig:
    """Everything ``rehearsal serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8421
    #: Verification worker threads: requests beyond this verify queue
    #: behind the pool (visible as ``rehearsal_daemon_queue_depth``).
    workers: int = 1
    #: Directory whose ``*.pp`` files the watcher re-verifies on change.
    watch: Optional[str] = None
    #: Requests/second allowed per client on ``/v1/*`` (None: no quota).
    quota: Optional[float] = None
    #: Bucket capacity (burst size); default: max(1, ceil(quota)).
    quota_burst: Optional[int] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    lru_capacity: int = DEFAULT_CAPACITY
    options: DeterminismOptions = field(default_factory=DeterminismOptions)
    platform: str = "ubuntu"
    node_name: str = "default"
    synthesize_packages: bool = True
    #: Watcher stat-poll cadence and write-coalescing quiet period.
    poll_interval: float = 0.5
    debounce: float = 0.25


class TokenBucket:
    """Continuous-refill token bucket, one per client address."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def admit(self) -> Tuple[bool, float]:
        """(admitted?, seconds until the next token when denied)."""
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class _Histogram:
    """Fixed-bucket Prometheus histogram (cumulative counts)."""

    def __init__(self, buckets=LATENCY_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.total = 0.0
        self.observations = 0

    def observe(self, seconds: float) -> None:
        self.observations += 1
        self.total += seconds
        for i, bound in enumerate(self.buckets):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def render(self, name: str) -> List[str]:
        lines = [
            f"# HELP {name} Verification wall-clock per request.",
            f"# TYPE {name} histogram",
        ]
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += self.counts[-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {self.total:.6f}")
        lines.append(f"{name}_count {self.observations}")
        return lines


@dataclass
class _Request:
    method: str
    path: str
    query: Dict[str, str]
    body: bytes
    client: str


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers=None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        #: True once the router has recorded this error in the request
        #: metrics (the outer handler must not count it again).
        self.counted = False


class RehearsalDaemon:
    """The resident verification service.  Create, ``await start()``,
    then ``await run_until_stopped()`` (or use
    :func:`daemon_in_thread` / :func:`run_daemon`)."""

    def __init__(self, config: Optional[DaemonConfig] = None):
        self.config = config or DaemonConfig()
        if self.config.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.config.workers}"
            )
        if self.config.quota is not None and self.config.quota <= 0:
            raise ValueError(
                f"quota must be positive, got {self.config.quota}"
            )
        self.cache: Optional[TieredVerdictCache] = (
            TieredVerdictCache(
                self.config.cache_dir, capacity=self.config.lru_capacity
            )
            if self.config.use_cache
            else None
        )
        self.verifier = BatchVerifier(
            options=self.config.options,
            platform=self.config.platform,
            node_name=self.config.node_name,
            synthesize_packages=self.config.synthesize_packages,
            workers=1,  # serial in-process; concurrency is the thread pool
            cache=self.cache,
        )
        # The "daemon mode" headroom of ROADMAP #4: resolve the
        # incremental-store handle once and hold it for the process
        # lifetime, so every request (and every watcher re-verify)
        # lands on the same hot SQLite connection instead of paying a
        # registry round-trip per call.
        self.incremental_store = None
        if self.config.options.incremental:
            from repro.service.incremental import open_store

            self.incremental_store = open_store(
                getattr(self.config.options, "incremental_dir", None)
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="rehearsal-verify",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._watch_task: Optional[asyncio.Task] = None
        self._handlers: set = set()
        self._buckets: Dict[str, TokenBucket] = {}
        # -- event stream ----------------------------------------------------
        self._events: List[dict] = []
        self._next_seq = 1
        self._events_dropped = 0
        self._event_cond: Optional[asyncio.Condition] = None
        # -- metrics ---------------------------------------------------------
        self.started_at = time.monotonic()
        self.requests_total: Dict[Tuple[str, int], int] = {}
        self.quota_rejections = 0
        self.watch_reverifies = 0
        self.queue_depth = 0
        self.verify_latency = _Histogram()
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._event_cond = asyncio.Condition()
        if self.config.watch is not None:
            watch_dir = Path(self.config.watch)
            if not watch_dir.is_dir():
                raise FileNotFoundError(
                    f"no such watch directory: {watch_dir}"
                )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        if self.config.watch is not None:
            self._watch_task = self._loop.create_task(self._watch_loop())
        self._log(
            f"serving on {self.base_url}"
            + (f", watching {self.config.watch}" if self.config.watch else "")
        )

    def request_stop(self) -> None:
        """Begin a graceful shutdown (call from inside the loop)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_stop_threadsafe(self) -> None:
        """Begin a graceful shutdown from any thread (idempotent: a
        no-op once the daemon's loop has already wound down)."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed: the daemon has stopped

    async def run_until_stopped(self) -> None:
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        self._stopping = True
        self._log("shutting down: draining in-flight requests")
        # Stop accepting; wake every long-poller (they observe
        # _stopping and return their current cursor immediately).
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._event_cond is not None:
            async with self._event_cond:
                self._event_cond.notify_all()
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
        # In-flight verifications finish and their responses are
        # written whole — the no-partial-rows half of the shutdown
        # contract.  Only a drain-timeout cancels.
        pending = [t for t in self._handlers if not t.done()]
        if pending:
            done, still = await asyncio.wait(pending, timeout=DRAIN_SECONDS)
            for task in still:
                task.cancel()
            if still:
                await asyncio.wait(still, timeout=1.0)
        self._executor.shutdown(wait=True)
        self._log("shutdown complete")

    def _log(self, message: str) -> None:
        sys.stderr.write(f"rehearsal-serve: {message}\n")
        sys.stderr.flush()

    # -- HTTP layer --------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            try:
                request = await self._read_request(reader, writer)
                if request is None:
                    return
                status, payload, content_type, headers = await self._route(
                    request
                )
            except _HttpError as exc:
                status = exc.status
                payload = json.dumps({"error": exc.message}).encode("utf8")
                content_type = "application/json"
                headers = exc.headers
                if not exc.counted:
                    self._count_request("bad-request", status)
            await self._write_response(
                writer, status, payload, content_type, headers
            )
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - last-resort guard
            with contextlib.suppress(Exception):
                await self._write_response(
                    writer,
                    500,
                    json.dumps(
                        {"error": f"internal error: {type(exc).__name__}"}
                    ).encode("utf8"),
                    "application/json",
                    {},
                )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Request]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large")
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        try:
            text = head.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                raise _HttpError(400, "bad Content-Length")
            if length < 0:
                raise _HttpError(400, "bad Content-Length")
            if length > MAX_REQUEST_BYTES:
                raise _HttpError(413, "request body too large")
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=30.0
                    )
                except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                    return None
        path, _, query_string = target.partition("?")
        query = {}
        for pair in query_string.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            query[key] = value
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) and peer else "local"
        return _Request(
            method=method, path=path, query=query, body=body, client=client
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        headers: Dict[str, str],
    ) -> None:
        reason = _REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        # One write + drain: the response hits the socket whole, so a
        # reader can never observe a partial verdict row.
        writer.write(head + payload)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    def _count_request(self, endpoint: str, status: int) -> None:
        key = (endpoint, status)
        self.requests_total[key] = self.requests_total.get(key, 0) + 1

    def _check_quota(self, request: _Request) -> None:
        if self.config.quota is None:
            return
        bucket = self._buckets.get(request.client)
        if bucket is None:
            burst = self.config.quota_burst or max(
                1, math.ceil(self.config.quota)
            )
            bucket = TokenBucket(self.config.quota, burst)
            self._buckets[request.client] = bucket
        admitted, wait = bucket.admit()
        if not admitted:
            self.quota_rejections += 1
            raise _HttpError(
                429,
                f"quota exhausted for {request.client}: "
                f"{self.config.quota:g} request(s)/s",
                headers={"Retry-After": str(max(1, math.ceil(wait)))},
            )

    async def _route(
        self, request: _Request
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        path, method = request.path, request.method
        if path == "/healthz":
            endpoint, handler = "healthz", self._handle_healthz
        elif path == "/metrics":
            endpoint, handler = "metrics", self._handle_metrics
        elif path == "/v1/verify":
            endpoint, handler = "verify", self._handle_verify
        elif path.startswith("/v1/verdicts/"):
            endpoint, handler = "verdicts", self._handle_verdict
        elif path == "/v1/events":
            endpoint, handler = "events", self._handle_events
        else:
            self._count_request("other", 404)
            error = _HttpError(404, f"no such endpoint: {path}")
            error.counted = True
            raise error

        expected = "POST" if endpoint == "verify" else "GET"
        if method != expected:
            self._count_request(endpoint, 405)
            error = _HttpError(
                405,
                f"{endpoint} expects {expected}, got {method}",
                headers={"Allow": expected},
            )
            error.counted = True
            raise error
        try:
            if path.startswith("/v1/"):
                self._check_quota(request)
            status, payload, content_type = await handler(request)
        except _HttpError as exc:
            self._count_request(endpoint, exc.status)
            exc.counted = True
            raise
        self._count_request(endpoint, status)
        return status, payload, content_type, {}

    @staticmethod
    def _json(status: int, obj: dict) -> Tuple[int, bytes, str]:
        return (
            status,
            (json.dumps(obj, indent=2) + "\n").encode("utf8"),
            "application/json",
        )

    # -- endpoint handlers -------------------------------------------------

    async def _handle_healthz(self, request: _Request):
        return self._json(
            200,
            {
                "status": "ok",
                "version": __version__,
                "schema_version": SCHEMA_VERSION,
                "uptime_seconds": round(
                    time.monotonic() - self.started_at, 3
                ),
                "watch": self.config.watch,
                "workers": self.config.workers,
                "queue_depth": self.queue_depth,
                "incremental_store": self.incremental_store is not None,
            },
        )

    async def _handle_verify(self, request: _Request):
        try:
            body = json.loads(request.body.decode("utf8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        source = body.get("source")
        manifest_path = body.get("path")
        if (source is None) == (manifest_path is None):
            raise _HttpError(
                400, "provide exactly one of 'source' or 'path'"
            )
        if manifest_path is not None:
            if not isinstance(manifest_path, str):
                raise _HttpError(400, "'path' must be a string")
            try:
                source = Path(manifest_path).read_text(encoding="utf8")
            except (OSError, UnicodeDecodeError) as exc:
                raise _HttpError(
                    400, f"cannot read manifest {manifest_path}: {exc}"
                )
        if not isinstance(source, str):
            raise _HttpError(400, "'source' must be a string")
        name = body.get("name") or manifest_path or "<request>"
        if not isinstance(name, str):
            raise _HttpError(400, "'name' must be a string")
        row = await self._verify_async(name, source)
        return self._json(
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "row": row,
            },
        )

    async def _handle_verdict(self, request: _Request):
        digest = request.path[len("/v1/verdicts/") :]
        if self.cache is None:
            raise _HttpError(404, "the daemon runs with caching disabled")
        if not digest or "/" in digest:
            raise _HttpError(400, "expected /v1/verdicts/<cache-key>")
        result = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.cache.get, digest
        )
        if result is None:
            raise _HttpError(404, f"no verdict under digest {digest}")
        return self._json(
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "row": result.to_dict(),
            },
        )

    async def _handle_events(self, request: _Request):
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise _HttpError(400, "'since' must be an integer")
        try:
            timeout = float(request.query.get("timeout", "0"))
        except ValueError:
            raise _HttpError(400, "'timeout' must be a number")
        timeout = max(0.0, min(timeout, MAX_LONGPOLL_SECONDS))
        deadline = time.monotonic() + timeout
        assert self._event_cond is not None
        async with self._event_cond:
            while (
                not self._stopping
                and not self._events_after(since)
                and time.monotonic() < deadline
            ):
                remaining = deadline - time.monotonic()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._event_cond.wait(), timeout=remaining
                    )
            events = self._events_after(since)
        return self._json(
            200,
            {
                "events": events,
                "next": events[-1]["seq"] if events else max(
                    since, self._next_seq - 1
                ),
                "dropped": self._events_dropped,
                "stopping": self._stopping,
            },
        )

    def _events_after(self, since: int) -> List[dict]:
        return [e for e in self._events if e["seq"] > since]

    async def _handle_metrics(self, request: _Request):
        lines = [
            "# HELP rehearsal_daemon_uptime_seconds Seconds since start.",
            "# TYPE rehearsal_daemon_uptime_seconds gauge",
            f"rehearsal_daemon_uptime_seconds "
            f"{time.monotonic() - self.started_at:.3f}",
            "# HELP rehearsal_daemon_requests_total Requests by endpoint "
            "and status.",
            "# TYPE rehearsal_daemon_requests_total counter",
        ]
        for (endpoint, status), count in sorted(self.requests_total.items()):
            lines.append(
                f'rehearsal_daemon_requests_total{{endpoint="{endpoint}",'
                f'status="{status}"}} {count}'
            )
        lines += [
            "# HELP rehearsal_daemon_cache_lookups_total Verdict-cache "
            "lookups by tier.",
            "# TYPE rehearsal_daemon_cache_lookups_total counter",
        ]
        tiers = (
            self.cache.tier_stats()
            if self.cache is not None
            else {"memory_hits": 0, "disk_hits": 0, "misses": 0}
        )
        for tier in ("memory_hits", "disk_hits", "misses"):
            label = tier.replace("_hits", "").replace("misses", "miss")
            lines.append(
                f'rehearsal_daemon_cache_lookups_total{{tier="{label}"}} '
                f"{tiers[tier]}"
            )
        lines += [
            "# HELP rehearsal_daemon_queue_depth Verify requests queued "
            "or running.",
            "# TYPE rehearsal_daemon_queue_depth gauge",
            f"rehearsal_daemon_queue_depth {self.queue_depth}",
            "# HELP rehearsal_daemon_quota_rejections_total Requests "
            "answered 429.",
            "# TYPE rehearsal_daemon_quota_rejections_total counter",
            f"rehearsal_daemon_quota_rejections_total "
            f"{self.quota_rejections}",
            "# HELP rehearsal_daemon_watch_reverifies_total Watcher "
            "re-verifications.",
            "# TYPE rehearsal_daemon_watch_reverifies_total counter",
            f"rehearsal_daemon_watch_reverifies_total "
            f"{self.watch_reverifies}",
            "# HELP rehearsal_daemon_incremental_store_open Whether the "
            "persistent incremental store is pinned open.",
            "# TYPE rehearsal_daemon_incremental_store_open gauge",
            f"rehearsal_daemon_incremental_store_open "
            f"{int(self.incremental_store is not None)}",
        ]
        lines += self.verify_latency.render("rehearsal_daemon_verify_seconds")
        payload = ("\n".join(lines) + "\n").encode("utf8")
        return 200, payload, "text/plain; version=0.0.4; charset=utf-8"

    # -- verification ------------------------------------------------------

    def _verify_sync(self, name: str, source: str) -> dict:
        report = self.verifier.verify_sources([(name, source)])
        return report.results[0].to_dict()

    async def _verify_async(self, name: str, source: str) -> dict:
        self.queue_depth += 1
        start = time.perf_counter()
        try:
            row = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._verify_sync, name, source
            )
        finally:
            self.queue_depth -= 1
        self.verify_latency.observe(time.perf_counter() - start)
        return row

    # -- filesystem watcher ------------------------------------------------

    def _scan_watch_dir(self) -> Dict[str, Tuple[int, int]]:
        signatures = {}
        watch_dir = Path(self.config.watch)  # type: ignore[arg-type]
        try:
            candidates = sorted(watch_dir.rglob("*.pp"))
        except OSError:
            return signatures
        for path in candidates:
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted between glob and stat
            signatures[str(path)] = (stat.st_mtime_ns, stat.st_size)
        return signatures

    async def _watch_loop(self) -> None:
        """Stat-poll ``--watch``: re-verify any ``*.pp`` whose (mtime,
        size) changed, once it has been stable for the debounce
        interval — rapid successive writes coalesce into one run."""
        snapshot = self._scan_watch_dir()  # pre-existing files are baseline
        pending: Dict[str, float] = {}
        while True:
            await asyncio.sleep(self.config.poll_interval)
            now = time.monotonic()
            current = self._scan_watch_dir()
            for path, signature in current.items():
                if snapshot.get(path) != signature:
                    snapshot[path] = signature
                    pending[path] = now  # (re)start the quiet period
            for path in list(pending):
                if path not in current:
                    pending.pop(path)  # deleted while pending
            for path in [p for p in snapshot if p not in current]:
                snapshot.pop(path)
            due = [
                path
                for path, changed_at in pending.items()
                if now - changed_at >= self.config.debounce
            ]
            for path in sorted(due):
                pending.pop(path)
                await self._reverify_watched(path)

    async def _reverify_watched(self, path: str) -> None:
        try:
            source = Path(path).read_text(encoding="utf8")
        except (OSError, UnicodeDecodeError) as exc:
            self._log(f"watcher: cannot read {path}: {exc}")
            return
        try:
            row = await self._verify_async(path, source)
        except Exception as exc:
            self._log(f"watcher: verification of {path} crashed: {exc}")
            return
        self.watch_reverifies += 1
        self._log(
            f"watcher: re-verified {path}: {row['status']}"
        )
        await self._emit_event(
            {"kind": "manifest-verified", "path": path, "row": row}
        )

    async def _emit_event(self, event: dict) -> None:
        assert self._event_cond is not None
        async with self._event_cond:
            event = dict(event)
            event["seq"] = self._next_seq
            self._next_seq += 1
            self._events.append(event)
            if len(self._events) > MAX_EVENT_BUFFER:
                dropped = len(self._events) - MAX_EVENT_BUFFER
                del self._events[:dropped]
                self._events_dropped += dropped
            self._event_cond.notify_all()


# -- entry points -----------------------------------------------------------


def run_daemon(config: DaemonConfig) -> int:
    """Blocking runner for the CLI: serve until SIGTERM/SIGINT, then
    drain and exit 0 (2 when the service cannot start)."""
    import signal

    daemon = RehearsalDaemon(config)

    async def _main() -> int:
        try:
            await daemon.start()
        except OSError as exc:
            print(f"error: cannot start daemon: {exc}", file=sys.stderr)
            return 2
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, daemon.request_stop)
        await daemon.run_until_stopped()
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        return 0


@contextlib.contextmanager
def daemon_in_thread(config: Optional[DaemonConfig] = None):
    """Run a daemon on a background thread; yield the (started)
    :class:`RehearsalDaemon`.  The tests, the benchmark harness, and
    ``examples/serve_client.py``'s self-hosted mode all use this."""
    daemon = RehearsalDaemon(config)
    started = threading.Event()
    startup_failure: List[BaseException] = []

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as exc:  # surfaced to the caller below
            startup_failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_until_complete(daemon.run_until_stopped())
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="rehearsal-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("daemon failed to start within 30s")
    if startup_failure:
        raise startup_failure[0]
    try:
        yield daemon
    finally:
        daemon.request_stop_threadsafe()
        thread.join(timeout=60.0)
