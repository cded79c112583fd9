"""The service itself: orchestration + a hand-rolled asyncio HTTP API.

:class:`ServeService` ties the layers together — parse a request
(:mod:`repro.serve.jobs`), answer from the store if the key is known
(:mod:`repro.serve.store`), otherwise admit into the sharded pool
(:mod:`repro.serve.workers`) — and owns the metrics registry and the
graceful-drain state machine.

:class:`HttpApi` is a deliberately small HTTP/1.1 server written
directly on ``asyncio.start_server`` (no ``http.server``, no
frameworks): parse a request line + headers + Content-Length body,
route, write a JSON response, honour keep-alive.  Endpoints:

=============================  ========================================
``POST /v1/jobs``              submit one job object or a batch
                               (``{"jobs": [...]}`` or a bare list)
``GET /v1/jobs/<id>``          job status + result; ``?wait=SECONDS``
                               long-polls for completion
``GET /v1/healthz``            liveness + degraded/drain state
``GET /v1/metrics``            the full metrics snapshot: queue depth,
                               per-shard occupancy, cache hit rate,
                               jobs/sec, latency histograms
=============================  ========================================

The result store has no route of its own: a stored payload is always
one this service (or a ``repro sweep`` sharing its cache directory)
computed for the content key it is filed under.

Rejections carry a ``Retry-After`` header (derived from the structured
``retry_after_s`` the payloads already contain) so well-behaved clients
— including :class:`~repro.serve.client.ServeClient` — can back off
precisely instead of guessing.

On SIGTERM (or SIGINT) the server drains gracefully: admission starts
returning 503s immediately, queued and in-flight jobs run to
completion, the store is flushed, and only then does the process exit —
a client that got a 202 will always be able to poll its result from the
shared cache afterwards.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import (DONE, FAILED, REJECTED, RUNNING, Job,
                              JobValidationError, next_job_id,
                              parse_request, request_key)
from repro.serve.store import ResultStore
from repro.serve.workers import NoteFn, ShardedWorkerPool

#: Largest request body the API will read (a generous batch).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Cap on ``?wait=`` long-poll time.
MAX_WAIT_S = 60.0
#: How long after a shard incident (watchdog recycle, broken-pool
#: replacement) ``/v1/healthz`` keeps reporting "degraded".
DEGRADED_WINDOW_S = 60.0


class ServeService:
    """Everything behind the HTTP surface, usable directly in-process
    (the tests drive it both ways)."""

    def __init__(self,
                 shards: int = 2,
                 queue_limit: int = 64,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff: float = 0.5,
                 stuck_after: Optional[float] = None,
                 cache: bool = True,
                 cache_dir=None,
                 cache_max_bytes: Optional[int] = None,
                 on_note: Optional[NoteFn] = None) -> None:
        self.on_note = on_note
        self.metrics = MetricsRegistry()
        self.store = ResultStore(cache_dir=cache_dir, persistent=cache,
                                 max_bytes=cache_max_bytes,
                                 on_warning=on_note)
        self.pool = ShardedWorkerPool(
            self.store, self.metrics, shards=shards, queue_limit=queue_limit,
            timeout=timeout, retries=retries, backoff=backoff,
            stuck_after=stuck_after, on_note=on_note,
            on_complete=self._job_completed)
        self.started_at = time.monotonic()
        self.draining = False
        self._register_gauges()

    def _note(self, msg: str) -> None:
        if self.on_note is not None:
            self.on_note(msg)

    def _register_gauges(self) -> None:
        m = self.metrics
        m.gauge("uptime_s",
                lambda: round(time.monotonic() - self.started_at, 3))
        m.gauge("draining", lambda: self.draining)
        m.gauge("shards", lambda: len(self.pool.shards))
        m.gauge("queue_depth", lambda: self.pool.depth)
        m.gauge("inflight", lambda: self.pool.running)
        m.gauge("jobs_tracked", lambda: self.store.jobs_tracked)
        m.gauge("cache_hit_rate",
                lambda: round(self.store.hit_rate(), 4))
        m.gauge("jobs_per_sec", self._jobs_per_sec)

    def _jobs_per_sec(self) -> float:
        finished = (self.metrics.counter("jobs_executed")
                    + self.metrics.counter("jobs_cache_hit")
                    + self.metrics.counter("jobs_deduped"))
        uptime = time.monotonic() - self.started_at
        return round(finished / uptime, 3) if uptime > 0 else 0.0

    # -- submission ----------------------------------------------------

    def _job_completed(self, job: Job) -> None:
        event = job._done_event
        if event is not None:
            event.set()

    def _terminal(self, job: Job) -> None:
        """Mark a job that never enters the pool (hit / rejection)."""
        job.finished_at = time.monotonic()
        self.store.finished(job)
        self._job_completed(job)

    def submit_one(self, data: object) -> Job:
        """Parse, dedupe, admit, queue one request; always returns a
        registered Job record (possibly already DONE or REJECTED).

        Raises :class:`JobValidationError` for malformed requests —
        nothing is registered for those.
        """
        kind, spec, priority = parse_request(data)
        job = Job(id=next_job_id(), kind=kind, spec=spec,
                  key=request_key(spec), priority=priority,
                  submitted_at=time.monotonic())
        job._done_event = asyncio.Event()
        self.metrics.inc("jobs_submitted")
        self.store.register(job)

        cached = self.store.get(job.key)
        if cached is not None:
            job.state = DONE
            job.cache_hit = True
            job.result = cached
            self.metrics.inc("jobs_cache_hit")
            self.metrics.observe("job_latency_ms", 0)
            self._terminal(job)
            return job

        rejection = self.pool.try_admit(job)
        if rejection is not None:
            job.state = REJECTED
            job.rejection = rejection
            self.metrics.inc("jobs_rejected")
            self._terminal(job)
            return job

        self.pool.submit(job)
        return job

    def submit_batch(self, items: List[object]) -> List[Dict]:
        """Submit a batch; one status document per entry, in order.
        Invalid entries become inline error documents and do not abort
        the rest of the batch."""
        docs: List[Dict] = []
        for item in items:
            try:
                job = self.submit_one(item)
            except JobValidationError as exc:
                self.metrics.inc("jobs_invalid")
                docs.append({"state": "invalid", "error": exc.payload})
                continue
            docs.append(job.to_dict())
        return docs

    async def wait_for(self, job: Job, timeout: float) -> None:
        event = job._done_event
        if event is None or job.state in (DONE, REJECTED, FAILED):
            return
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    # -- documents -----------------------------------------------------

    def healthz(self) -> Dict:
        """Liveness *and* health: ``state`` is ``"ok"`` or
        ``"degraded"`` with the reasons spelled out — drain in
        progress, a recent stuck-shard watchdog recycle, a recent
        broken-pool replacement — so a health check can tell a sick
        service from a dead one.  ``ok`` stays ``True`` whenever the
        process can answer at all."""
        reasons: List[str] = []
        if self.draining:
            reasons.append("drain-in-progress")
        incident = self.pool.last_incident
        if incident is not None and (
                time.monotonic() - incident[0] < DEGRADED_WINDOW_S):
            reasons.append(incident[1])
        return {
            "ok": True,
            "state": "degraded" if reasons else "ok",
            "degraded": reasons,
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "shards": len(self.pool.shards),
            "queue_depth": self.pool.depth,
            "recycles": self.metrics.counter("shard_recycles"),
            "pool_replacements": self.metrics.counter(
                "pool_replacements"),
        }

    def metrics_snapshot(self) -> Dict:
        snap = self.metrics.snapshot()
        snap["shards"] = self.pool.occupancy()
        snap["store"] = {
            "hits": self.store.hits,
            "misses": self.store.misses,
            "puts": self.store.puts,
            "hit_rate": round(self.store.hit_rate(), 4),
        }
        return snap

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Attach loop-bound machinery (call from inside the loop)."""
        self.pool.start_watchdog()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, run the backlog dry, flush the store."""
        self.draining = True
        self.pool.draining = True
        self._note("serve: draining (admission closed)")
        drained = await self.pool.drain(timeout)
        self.store.flush()
        outcome = "complete" if drained else "timed out"
        self._note(f"serve: drain {outcome}; store flushed")
        return drained


# ----------------------------------------------------------------------
# HTTP/1.1 surface
# ----------------------------------------------------------------------

class _BadRequest(Exception):
    """Protocol-level garbage; maps to a 400 and closes the stream."""


class HttpApi:
    """Minimal asyncio HTTP/1.1 JSON server over a :class:`ServeService`:
    wire parsing, response formatting, keep-alive, the routes, and
    signal-driven graceful shutdown."""

    def __init__(self, service: ServeService,
                 host: str = "127.0.0.1", port: int = 8377) -> None:
        self.service = service
        self.metrics = service.metrics
        self.host = host
        self.port = port              # updated to the bound port
        self.server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- wire helpers --------------------------------------------------

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        """One line; ``readline`` raises ValueError for a line past the
        stream's limit (64 KiB), which is the client's fault."""
        try:
            return await reader.readline()
        except ValueError as exc:
            raise _BadRequest(f"line too long: {exc}") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request → (method, path, headers, body) or None at EOF."""
        try:
            line = await self._readline(reader)
        except ConnectionError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1").rstrip("\r\n").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await self._readline(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise _BadRequest("too many headers")
            text = raw.decode("latin-1").rstrip("\r\n")
            name, sep, value = text.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header: {text!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _BadRequest(f"bad Content-Length: {length!r}")
            if n < 0 or n > MAX_BODY_BYTES:
                raise _BadRequest(f"Content-Length {n} out of range")
            body = await reader.readexactly(n)
        elif headers.get("transfer-encoding"):
            raise _BadRequest("chunked request bodies are not supported")
        return method, target, headers, body

    @staticmethod
    def _retry_after_s(status: int, payload: Dict) -> Optional[float]:
        """Seconds a client should wait before retrying, or None.

        429/503 rejections already carry a structured ``retry_after_s``
        (top-level or inside a job document's ``rejection``); surface it
        as a real ``Retry-After`` header with sane defaults."""
        if status not in (429, 503):
            return None
        rejection = payload.get("rejection")
        for source in (payload, rejection if isinstance(rejection, dict)
                       else {}):
            value = source.get("retry_after_s")
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool) and value > 0:
                return float(value)
        return 1.0 if status == 429 else 5.0

    @classmethod
    def _response(cls, status: int, payload: Dict,
                  keep_alive: bool) -> bytes:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   429: "Too Many Requests", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode()
        retry_after = cls._retry_after_s(status, payload)
        extra = ""
        if retry_after is not None:
            # Integer seconds per RFC 9110; never advertise zero.
            extra = f"Retry-After: {max(1, round(retry_after))}\r\n"
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Status')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        return head.encode("latin-1") + body

    # -- connection handler -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self.metrics.inc("http_errors")
                    writer.write(self._response(
                        400, {"error": "bad-request", "status": 400,
                              "message": str(exc)}, keep_alive=False))
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                status, payload = await self._dispatch(method, target,
                                                       body)
                writer.write(self._response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, target: str,
                        body: bytes) -> Tuple[int, Dict]:
        self.metrics.inc("http_requests")
        try:
            return await self._route(method, target, body)
        except Exception as exc:  # a handler bug must not kill the loop
            self.metrics.inc("http_errors")
            return 500, {"error": "internal", "status": 500,
                         "message": f"{type(exc).__name__}: {exc}"}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self.service.start()
        self.server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self.server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-safe: flips the event the serve loop waits on."""
        self._shutdown.set()

    async def run(self, ready=None,
                  drain_timeout: Optional[float] = None,
                  install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`),
        then drain gracefully.  ``ready`` (if given) is called with the
        bound port once the socket is listening."""
        await self.start()
        if ready is not None:
            ready(self.port)
        loop = asyncio.get_running_loop()
        installed = []
        if install_signals:
            for signame in ("SIGTERM", "SIGINT"):
                signum = getattr(signal, signame, None)
                if signum is None:
                    continue
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._shutdown.wait()
            # Close the listening socket *after* flipping draining so
            # in-flight connections still get their 503s / results.
            await self.service.drain(drain_timeout)
            self.server.close()
            await self.server.wait_closed()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Programmatic shutdown for in-process embedding (tests)."""
        await self.service.drain(drain_timeout)
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    # -- routes --------------------------------------------------------

    async def _route(self, method: str, target: str,
                     body: bytes) -> Tuple[int, Dict]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "method-not-allowed",
                             "status": 405, "allow": ["POST"]}
            return await self._post_jobs(body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "method-not-allowed",
                             "status": 405, "allow": ["GET"]}
            return await self._get_job(path[len("/v1/jobs/"):], query)
        if path == "/v1/healthz":
            return 200, self.service.healthz()
        if path == "/v1/metrics":
            return 200, self.service.metrics_snapshot()
        return 404, {"error": "not-found", "status": 404,
                     "path": path}

    async def _post_jobs(self, body: bytes) -> Tuple[int, Dict]:
        try:
            data = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad-json", "status": 400,
                         "message": str(exc)}
        if isinstance(data, dict) and "jobs" in data:
            items = data["jobs"]
            if not isinstance(items, list):
                return 400, {"error": "bad-batch", "status": 400,
                             "message": "'jobs' must be a list"}
        elif isinstance(data, list):
            items = data
        elif isinstance(data, dict):
            # Single job: status code mirrors the job's fate.
            try:
                job = self.service.submit_one(data)
            except JobValidationError as exc:
                self.service.metrics.inc("jobs_invalid")
                return 400, exc.payload
            doc = job.to_dict()
            if job.state == REJECTED:
                return job.rejection.get("status", 429), doc
            return (200 if job.state == DONE else 202), doc
        else:
            return 400, {"error": "bad-request", "status": 400,
                         "message": "expected a job object, a list, or "
                                    "{'jobs': [...]}"}
        docs = self.service.submit_batch(items)
        states = [d.get("state") for d in docs]
        return 200, {
            "jobs": docs,
            "accepted": sum(s in ("queued", "running", "done")
                            for s in states),
            "rejected": states.count("rejected"),
            "invalid": states.count("invalid"),
        }

    async def _get_job(self, job_id: str, query: Dict) -> Tuple[int, Dict]:
        job = self.service.store.job(job_id)
        if job is None:
            return 404, {"error": "unknown-job", "status": 404,
                         "id": job_id}
        wait = query.get("wait")
        if wait:
            try:
                seconds = min(float(wait[0]), MAX_WAIT_S)
            except ValueError:
                return 400, {"error": "bad-wait", "status": 400,
                             "message": f"wait={wait[0]!r} is not a "
                                        f"number"}
            await self.service.wait_for(job, seconds)
        out = job.to_dict()
        if job.state == RUNNING:
            # Checkpointed cells stream partial progress through the
            # store as they run; surface it to pollers so a long job is
            # distinguishable from a stuck one.
            prog = self.service.store.progress(job.key)
            if prog is not None:
                out["progress"] = prog
        return 200, out
