"""The sharded worker pool: where admitted jobs actually run.

Jobs are sharded by idempotency key onto N shards, each a private
:class:`~concurrent.futures.ProcessPoolExecutor` fed from a per-shard
priority queue (a heap ordered by ``(priority, arrival)``).  Sharding by
*content key* — not round-robin — means concurrent duplicates always
land on the same shard, which is what makes single-flight dedup a local
decision: the first submission of a key becomes the *primary*, later
ones attach as *followers* and complete with the primary's result,
having cost zero queue slots and zero simulations.

Backpressure is per shard and enforced at admission: a shard whose
queue depth (heap + in-flight) has reached ``queue_limit`` rejects new
primaries with a structured 429-style payload instead of queueing
unboundedly.  Draining rejects everything with a 503-style payload.

Failures reuse the sweep runner's crash-tolerance vocabulary: each
attempt runs under the worker-side SIGALRM deadline
(:func:`~repro.sweep.runner.with_deadline` via ``execute_request``),
failed attempts retry with exponential backoff — on a fresh future, and
on a fresh *pool* if the old one broke — and a cell that keeps failing
completes as a structured error payload, never a hung request.

A :class:`ShardWatchdog` (the service-side sibling of
``repro.resilience``'s in-simulation :class:`~repro.resilience.
invariants.Watchdog`) covers the one failure the deadline cannot: a
worker wedged *outside* SIGALRM's reach (stuck in a syscall, or on a
platform without it).  It periodically checks every shard's oldest
in-flight job; one older than ``stuck_after`` seconds gets its shard's
processes terminated and replaced, and fails with a structured
diagnostic in the same shape as the resilience layer's.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import (DONE, FAILED, QUEUED, RUNNING, Job,
                              execute_request)
from repro.serve.store import ResultStore

NoteFn = Callable[[str], None]


class _Shard:
    """One shard: a priority heap feeding a private process pool."""

    __slots__ = ("index", "workers", "pool", "heap", "inflight",
                 "executed", "failed", "recycles")

    def __init__(self, index: int, workers: int) -> None:
        self.index = index
        self.workers = workers
        self.pool: Optional[ProcessPoolExecutor] = None
        # (priority, arrival, Job) — heapq keeps FIFO within a priority.
        self.heap: List[Tuple[int, int, Job]] = []
        # job.id -> (job, started_monotonic)
        self.inflight: Dict[str, Tuple[Job, float]] = {}
        self.executed = 0
        self.failed = 0
        self.recycles = 0

    @property
    def depth(self) -> int:
        return len(self.heap) + len(self.inflight)

    def executor(self) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
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
    """N process-pool shards + admission control + single-flight dedup.

    All methods are event-loop-thread only.  ``on_complete`` is called
    for every job (primaries *and* followers) as it reaches a terminal
    state — the service layer uses it to fire done-events and metrics.
    """

    def __init__(self, store: ResultStore, metrics: MetricsRegistry,
                 shards: int = 2, shard_workers: int = 1,
                 queue_limit: int = 64,
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
        self.store = store
        self.metrics = metrics
        self.shards = [_Shard(i, shard_workers) for i in range(shards)]
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
        self._primaries: Dict[str, Job] = {}     # key -> executing job
        self._followers: Dict[str, List[Job]] = {}
        self._tasks: "set[asyncio.Task]" = set()
        self._watchdog_task: Optional[asyncio.Task] = None

    def _note(self, msg: str) -> None:
        if self.on_note is not None:
            self.on_note(msg)

    # -- topology ------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """Stable key → shard mapping (leading 64 bits of the hash)."""
        return int(key[:16], 16) % len(self.shards)

    def queue_depths(self) -> List[int]:
        return [shard.depth for shard in self.shards]

    def occupancy(self) -> List[Dict]:
        """Per-shard occupancy for ``/v1/metrics``."""
        return [{"shard": shard.index,
                 "queued": len(shard.heap),
                 "inflight": len(shard.inflight),
                 "executed": shard.executed,
                 "failed": shard.failed,
                 "recycles": shard.recycles}
                for shard in self.shards]

    @property
    def idle(self) -> bool:
        return all(shard.depth == 0 for shard in self.shards)

    # -- admission + submission ---------------------------------------

    def try_admit(self, job: Job) -> Optional[Dict]:
        """None if ``job`` may enter, else the structured rejection.

        Draining beats everything; duplicates of an in-flight key are
        always admitted (they consume no capacity); otherwise the target
        shard's queue depth decides.
        """
        if self.draining:
            return {"error": "draining", "status": 503,
                    "message": "service is draining; not admitting jobs"}
        if job.key in self._primaries:
            return None
        shard = self.shards[self.shard_of(job.key)]
        if shard.depth >= self.queue_limit:
            return {"error": "queue-full", "status": 429,
                    "message": f"shard {shard.index} is at its queue "
                               f"limit ({self.queue_limit})",
                    "shard": shard.index,
                    "depth": shard.depth,
                    "limit": self.queue_limit,
                    "retry_after_s": 1.0}
        return None

    def submit(self, job: Job) -> None:
        """Queue an admitted job (or attach it to its running twin)."""
        primary = self._primaries.get(job.key)
        if primary is not None:
            job.deduped = True
            job.shard = primary.shard
            job.state = primary.state if primary.state == RUNNING \
                else QUEUED
            self._followers.setdefault(job.key, []).append(job)
            self.metrics.inc("jobs_deduped")
            return
        shard = self.shards[self.shard_of(job.key)]
        job.shard = shard.index
        job.state = QUEUED
        self._primaries[job.key] = job
        heapq.heappush(shard.heap,
                       (job.priority, next(self._arrival), job))
        self._pump(shard)

    # -- execution -----------------------------------------------------

    def _pump(self, shard: _Shard) -> None:
        while shard.heap and len(shard.inflight) < shard.workers:
            _, _, job = heapq.heappop(shard.heap)
            job.state = RUNNING
            for follower in self._followers.get(job.key, ()):
                follower.state = RUNNING
            shard.inflight[job.id] = (job, time.monotonic())
            task = asyncio.get_running_loop().create_task(
                self._run_job(shard, job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

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
            try:
                payload = await loop.run_in_executor(
                    shard.executor(), execute_request, job.spec,
                    self.timeout, self.store.cache_dir())
                error = None
                break
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                if job.id not in shard.inflight:
                    # The watchdog already failed this job and recycled
                    # the shard; this is the corpse's broken future.
                    return
                error = _failure_payload(job, exc, attempt)
                self._note(f"serve: {job.id} failed "
                           f"({error['type']}: {error['message']})")
                # A broken pool poisons every later submit; recycle it
                # so the retry (or the next job) gets live processes.
                if shard.pool is not None and getattr(
                        shard.pool, "_broken", False):
                    shard.recycle()
                    self.metrics.inc("pool_replacements")
                    self.last_incident = (time.monotonic(),
                                          "broken-pool")
        self._finish(shard, job, payload, error)

    def _finish(self, shard: _Shard, job: Job,
                payload: Optional[Dict], error: Optional[Dict]) -> None:
        if job.id not in shard.inflight:
            return  # watchdog got there first
        del shard.inflight[job.id]
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
        self._pump(shard)

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
                stuck = [(job, started)
                         for job, started in shard.inflight.values()
                         if now - started > self.stuck_after]
                if not stuck:
                    continue
                self._recycle_shard(shard, stuck, now)

    def _recycle_shard(self, shard: _Shard,
                       stuck: List[Tuple[Job, float]], now: float) -> None:
        names = [job.id for job, _ in stuck]
        self._note(f"serve: watchdog recycling shard {shard.index} "
                   f"(stuck: {', '.join(names)})")
        self.metrics.inc("shard_recycles")
        self.last_incident = (now, "watchdog-recycle")
        diagnostic = {
            "shard": shard.index,
            "stuck_after_s": self.stuck_after,
            "inflight": [{"job": job.id, "kind": job.kind,
                          "key": job.key,
                          "running_s": round(now - started, 3)}
                         for job, started in stuck],
            "occupancy": self.occupancy()[shard.index],
        }
        shard.recycle()
        for job, started in stuck:
            if job.id not in shard.inflight:
                continue
            del shard.inflight[job.id]
            shard.failed += 1
            self.metrics.inc("jobs_failed")
            exc = StuckShardError(
                f"{job.id} ran {now - started:.1f}s on shard "
                f"{shard.index} (stuck_after={self.stuck_after:g}s); "
                f"worker terminated", diagnostic)
            error = _failure_payload(job, exc, job.attempts)
            error["diagnostic"] = diagnostic
            self._complete_key(job.key, None, error)
        # Anything that was merely queued behind the corpse continues
        # on the fresh pool.
        self._pump(shard)

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
