"""The sharded worker pool: where admitted jobs actually run.

Each of the N shards is one worker process (a private
``ProcessPoolExecutor(max_workers=1)``) running at most one job, and
collecting the previous job's garbage before it starts the next.  All
shards take work from one priority heap ordered by ``(priority,
arrival)``: while a shard is idle and the heap is not empty, the shard
that has been idle longest starts the next job, so no job waits next to
an idle worker and priority applies across the whole service.

Single-flight dedup is pool-wide: the first submission of a key becomes
the *primary*, later ones attach as *followers* and complete with the
primary's result, having cost zero queue slots and zero simulations.

Backpressure is enforced at admission: once queued plus running
primaries reach ``queue_limit`` per shard, new primaries get a
structured 429-style payload instead of queueing unboundedly.
Draining rejects everything with a 503-style payload.

Failures reuse the sweep runner's crash-tolerance vocabulary: each
attempt runs under the worker-side SIGALRM deadline
(:func:`~repro.sweep.runner.with_deadline` via ``execute_request``),
failed attempts retry on the same shard with exponential backoff — in
a fresh process if the old one broke — and a cell that keeps failing
completes as a structured error payload, never a hung request.

The stuck-shard watchdog (the service-side sibling of
``repro.resilience``'s in-simulation :class:`~repro.resilience.
invariants.Watchdog`) covers the one failure the deadline cannot: a
worker wedged *outside* SIGALRM's reach (stuck in a syscall, or on a
platform without it).  It periodically checks every shard's running
job; one older than ``stuck_after`` seconds gets its shard's process
terminated and replaced, and fails with a structured diagnostic in the
same shape as the resilience layer's.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import (DONE, FAILED, QUEUED, RUNNING, Job,
                              JobSpec, execute_request)
from repro.serve.store import ResultStore

NoteFn = Callable[[str], None]


def _execute_in_worker(spec: JobSpec, timeout: Optional[float]) -> Dict:
    """A shard's entry point (module-level, so it pickles): collect the
    previous job's garbage, then run ``spec``.

    A finished ``System`` is cyclic garbage that lives until a full
    collection, and a job need not allocate enough to start one, so
    without this a worker carries earlier jobs' simulations into the
    next and its peak memory grows.  The shard's process froze what it
    held at start-up (``gc.freeze``), so the collection scans only what
    jobs left behind."""
    gc.collect()
    return execute_request(spec, timeout)


class _Shard:
    """One shard: a single worker process and the job it runs."""

    __slots__ = ("index", "pool", "job", "started", "idle_since",
                 "executed", "failed", "recycles")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pool: Optional[ProcessPoolExecutor] = None
        self.job: Optional[Job] = None
        self.started = 0.0                 # monotonic, when job began
        self.idle_since = time.monotonic()
        self.executed = 0
        self.failed = 0
        self.recycles = 0

    def executor(self) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=1,
                                            initializer=gc.freeze)
        return self.pool

    def recycle(self) -> None:
        """Terminate this shard's worker processes and start over."""
        pool, self.pool = self.pool, None
        self.recycles += 1
        if pool is None:
            return
        # Private API, best-effort: shutdown() alone would wait forever
        # on the very process we believe is wedged.
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        except Exception:
            pass
        pool.shutdown(wait=False, cancel_futures=True)


def _failure_payload(job: Job, exc: BaseException, attempts: int) -> Dict:
    """Structured error record, sweep-runner shaped."""
    return {
        "job": job.id,
        "kind": job.kind,
        "key": job.key,
        "type": type(exc).__name__,
        "message": str(exc),
        "timeout": type(exc).__name__ == "JobTimeout",
        "attempts": attempts,
    }


class StuckShardError(RuntimeError):
    """A shard's in-flight job exceeded the watchdog budget; carries a
    JSON-safe ``diagnostic`` like the resilience layer's errors."""

    def __init__(self, message: str, diagnostic: Dict) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


class ShardedWorkerPool:
    """N single-process shards fed from one priority heap, with
    admission control and single-flight dedup.

    All methods are event-loop-thread only.  ``on_complete`` is called
    for every job (primaries *and* followers) as it reaches a terminal
    state — the service layer uses it to fire done-events and metrics.
    """

    def __init__(self, store: ResultStore, metrics: MetricsRegistry,
                 shards: int = 2, queue_limit: int = 64,
                 timeout: Optional[float] = None,
                 retries: int = 1, backoff: float = 0.5,
                 stuck_after: Optional[float] = None,
                 on_note: Optional[NoteFn] = None,
                 on_complete: Optional[Callable[[Job], None]] = None
                 ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.store = store
        self.metrics = metrics
        self.shards = [_Shard(i) for i in range(shards)]
        self.queue_limit = queue_limit
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.stuck_after = stuck_after
        self.on_note = on_note
        self.on_complete = on_complete
        self.draining = False
        # (monotonic time, reason) of the most recent shard incident —
        # a watchdog recycle or a broken-pool replacement.  healthz()
        # reports "degraded" while an incident is recent, so a health
        # check can tell a sick service from a dead one.
        self.last_incident: Optional[Tuple[float, str]] = None
        self._arrival = itertools.count()
        # (priority, arrival, Job) — heapq keeps FIFO within a priority.
        self._heap: List[Tuple[int, int, Job]] = []
        self._primaries: Dict[str, Job] = {}     # key -> queued/running
        self._followers: Dict[str, List[Job]] = {}
        self._tasks: "set[asyncio.Task]" = set()
        self._watchdog_task: Optional[asyncio.Task] = None

    def _note(self, msg: str) -> None:
        if self.on_note is not None:
            self.on_note(msg)

    # -- topology ------------------------------------------------------

    @property
    def running(self) -> int:
        return sum(shard.job is not None for shard in self.shards)

    @property
    def depth(self) -> int:
        """Queued plus running primaries, service-wide."""
        return len(self._heap) + self.running

    def occupancy(self) -> List[Dict]:
        """Per-shard occupancy for ``/v1/metrics``."""
        return [{"shard": shard.index,
                 "inflight": int(shard.job is not None),
                 "executed": shard.executed,
                 "failed": shard.failed,
                 "recycles": shard.recycles}
                for shard in self.shards]

    @property
    def idle(self) -> bool:
        return self.depth == 0

    # -- admission + submission ---------------------------------------

    def try_admit(self, job: Job) -> Optional[Dict]:
        """None if ``job`` may enter, else the structured rejection.

        Draining beats everything; duplicates of an in-flight key are
        always admitted (they consume no capacity); otherwise the
        service-wide depth decides.
        """
        if self.draining:
            return {"error": "draining", "status": 503,
                    "message": "service is draining; not admitting jobs"}
        if job.key in self._primaries:
            return None
        depth = self.depth
        limit = self.queue_limit * len(self.shards)
        if depth >= limit:
            return {"error": "queue-full", "status": 429,
                    "message": f"the service is at its queue limit "
                               f"({limit})",
                    "depth": depth,
                    "limit": limit,
                    "retry_after_s": 1.0}
        return None

    def submit(self, job: Job) -> None:
        """Queue an admitted job (or attach it to its running twin)."""
        primary = self._primaries.get(job.key)
        if primary is not None:
            job.deduped = True
            job.shard = primary.shard
            job.state = primary.state
            self._followers.setdefault(job.key, []).append(job)
            self.metrics.inc("jobs_deduped")
            return
        job.state = QUEUED
        self._primaries[job.key] = job
        heapq.heappush(self._heap,
                       (job.priority, next(self._arrival), job))
        self._pump()

    # -- execution -----------------------------------------------------

    def _pump(self) -> None:
        """Start queued jobs while any shard is idle, longest-idle
        shard first."""
        while self._heap:
            idle = [shard for shard in self.shards if shard.job is None]
            if not idle:
                return
            shard = min(idle, key=lambda s: s.idle_since)
            _, _, job = heapq.heappop(self._heap)
            shard.job = job
            shard.started = time.monotonic()
            for twin in [job, *self._followers.get(job.key, ())]:
                twin.shard = shard.index
                twin.state = RUNNING
            task = asyncio.get_running_loop().create_task(
                self._run_job(shard, job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _release(self, shard: _Shard) -> None:
        shard.job = None
        shard.idle_since = time.monotonic()

    async def _run_job(self, shard: _Shard, job: Job) -> None:
        loop = asyncio.get_running_loop()
        queue_wait_ms = int(
            (time.monotonic() - job.submitted_at) * 1000)
        self.metrics.observe("queue_wait_ms", max(0, queue_wait_ms))
        error: Optional[Dict] = None
        payload: Optional[Dict] = None
        attempt = 0
        while attempt <= self.retries:
            attempt += 1
            job.attempts = attempt
            if attempt > 1:
                delay = self.backoff * (2 ** (attempt - 2))
                self._note(f"serve: retrying {job.id} "
                           f"(attempt {attempt}, backoff {delay:.1f}s)")
                await asyncio.sleep(delay)
                if shard.job is not job:
                    return  # the watchdog failed it during the backoff
            try:
                payload = await loop.run_in_executor(
                    shard.executor(), _execute_in_worker, job.spec,
                    self.timeout)
                error = None
                break
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                if shard.job is not job:
                    # The watchdog already failed this job and recycled
                    # the shard; this is the corpse's broken future.
                    return
                error = _failure_payload(job, exc, attempt)
                self._note(f"serve: {job.id} failed "
                           f"({error['type']}: {error['message']})")
                # A broken pool poisons every later submit; recycle it
                # so the retry (or the next job) gets a live process.
                if shard.pool is not None and getattr(
                        shard.pool, "_broken", False):
                    shard.recycle()
                    self.metrics.inc("pool_replacements")
                    self.last_incident = (time.monotonic(),
                                          "broken-pool")
        self._finish(shard, job, payload, error)

    def _finish(self, shard: _Shard, job: Job,
                payload: Optional[Dict], error: Optional[Dict]) -> None:
        if shard.job is not job:
            return  # watchdog got there first
        self._release(shard)
        if payload is not None:
            self.store.put(job.key, payload)
            shard.executed += 1
            self.metrics.inc("jobs_executed")
            if payload.get("kind") == "leak":
                self.metrics.inc("leak_jobs_executed")
                self.metrics.inc("leak_lines_found",
                                 sum(payload["leaked_lines"].values()))
            elif payload.get("kind") == "synth":
                self.metrics.inc("synth_jobs_executed")
                self.metrics.inc("synth_programs_enumerated",
                                 payload.get("enumerated", 0))
                self.metrics.inc("synth_distinguishers_found",
                                 payload.get("distinct", 0))
        else:
            shard.failed += 1
            self.metrics.inc("jobs_failed")
        self._complete_key(job.key, payload, error)
        self._pump()

    def _complete_key(self, key: str, payload: Optional[Dict],
                      error: Optional[Dict]) -> None:
        jobs = [self._primaries.pop(key)] if key in self._primaries else []
        jobs.extend(self._followers.pop(key, ()))
        now = time.monotonic()
        for job in jobs:
            job.result = payload
            job.error = error
            job.state = DONE if payload is not None else FAILED
            job.finished_at = now
            latency_ms = int((now - job.submitted_at) * 1000)
            self.metrics.observe("job_latency_ms", max(0, latency_ms))
            self.store.finished(job)
            if self.on_complete is not None:
                self.on_complete(job)

    # -- the stuck-shard watchdog -------------------------------------

    def start_watchdog(self) -> None:
        if self.stuck_after is None or self._watchdog_task is not None:
            return
        self._watchdog_task = asyncio.get_running_loop().create_task(
            self._watchdog())

    async def _watchdog(self) -> None:
        period = max(0.05, min(self.stuck_after / 4, 5.0))
        while True:
            await asyncio.sleep(period)
            now = time.monotonic()
            for shard in self.shards:
                if shard.job is not None and \
                        now - shard.started > self.stuck_after:
                    self._recycle_shard(shard, now)

    def _recycle_shard(self, shard: _Shard, now: float) -> None:
        job, running_s = shard.job, now - shard.started
        self._note(f"serve: watchdog recycling shard {shard.index} "
                   f"(stuck: {job.id})")
        self.metrics.inc("shard_recycles")
        self.last_incident = (now, "watchdog-recycle")
        diagnostic = {
            "shard": shard.index,
            "stuck_after_s": self.stuck_after,
            "inflight": [{"job": job.id, "kind": job.kind,
                          "key": job.key,
                          "running_s": round(running_s, 3)}],
            "occupancy": self.occupancy()[shard.index],
        }
        shard.recycle()
        self._release(shard)
        shard.failed += 1
        self.metrics.inc("jobs_failed")
        exc = StuckShardError(
            f"{job.id} ran {running_s:.1f}s on shard {shard.index} "
            f"(stuck_after={self.stuck_after:g}s); worker terminated",
            diagnostic)
        error = _failure_payload(job, exc, job.attempts)
        error["diagnostic"] = diagnostic
        self._complete_key(job.key, None, error)
        # The fresh process takes queued work like any idle shard.
        self._pump()

    # -- drain / shutdown ---------------------------------------------

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish in-flight and queued work, shut the
        pools down.  Returns True if everything finished in time."""
        self.draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.idle:
            if deadline is not None and time.monotonic() > deadline:
                break
            await asyncio.sleep(0.02)
        drained = self.idle
        await self.shutdown(cancel=not drained)
        return drained

    async def shutdown(self, cancel: bool = False) -> None:
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            self._watchdog_task = None
        if cancel:
            for task in list(self._tasks):
                task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for shard in self.shards:
            if shard.pool is not None:
                shard.pool.shutdown(wait=not cancel,
                                    cancel_futures=cancel)
                shard.pool = None
