"""The persistent result store: job records + a shared memoization tier.

Layered on :class:`~repro.sweep.cache.ResultCache`, which already gives
us content-addressed, atomically-written, corruption-tolerant JSON files
keyed by the same hashes the sweep runner uses.  The store adds:

* an **in-memory tier** (key → payload) so repeat hits inside one
  service process never touch the filesystem;
* the **job registry** (id → :class:`~repro.serve.jobs.Job`) with a
  bounded history of finished jobs, so ``GET /v1/jobs/<id>`` stays O(1)
  and a long-lived service does not leak one record per request ever
  served;
* hit/miss accounting for the ``/v1/metrics`` cache-hit rate.

Because the disk tier *is* the sweep cache, the memoization is shared
three ways: across service clients, across service restarts, and with
plain ``repro sweep`` runs against the same cache directory.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Optional, Union

from repro.serve.jobs import DONE, FAILED, REJECTED, Job
from repro.sweep.cache import ResultCache

#: Finished-job records kept for polling before the oldest are dropped.
DEFAULT_HISTORY = 4096


class ResultStore:
    """Job records + two-tier (memory, disk) result memoization."""

    def __init__(self,
                 cache_dir: Union[str, os.PathLike, None] = None,
                 persistent: bool = True,
                 max_bytes: Optional[int] = None,
                 history: int = DEFAULT_HISTORY,
                 on_warning=None) -> None:
        self.disk = (ResultCache(cache_dir, on_warning=on_warning,
                                 max_bytes=max_bytes)
                     if persistent else None)
        self.history = history
        self._memory: Dict[str, Dict] = {}
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._live = 0                 # jobs not yet in a terminal state
        self.hits = 0                  # get() calls answered (any tier)
        self.misses = 0
        self.puts = 0

    # -- result tier ---------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload for ``key`` or None, memory tier first."""
        payload = self._memory.get(key)
        if payload is None and self.disk is not None:
            payload = self.disk.get(key)
            if payload is not None:
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Store a finished result in both tiers."""
        self.puts += 1
        self._memory[key] = payload
        if self.disk is not None:
            self.disk.put(key, payload)

    def flush(self) -> None:
        """Drain-time barrier: make the disk tier durable.

        ``ResultCache.put`` already writes through on every store, so
        flushing is a directory fsync — enough to survive the process
        being killed right after a graceful drain acknowledges."""
        if self.disk is None:
            return
        try:
            fd = os.open(self.disk.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- job registry --------------------------------------------------

    def register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._live += 1
        self._evict_history()

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def finished(self, job: Job) -> None:
        """Note a terminal state; may evict the oldest finished jobs."""
        self._live -= 1
        self._evict_history()

    def _evict_history(self) -> None:
        # Never evict live jobs: a queued job must stay pollable no
        # matter how deep the backlog.  Records are in insertion order,
        # so scanning from the front drops the oldest finished first.
        excess = len(self._jobs) - self._live - self.history
        if excess <= 0:
            return
        for job_id in [jid for jid, job in self._jobs.items()
                       if job.state in (DONE, FAILED, REJECTED)][:excess]:
            del self._jobs[job_id]

    # -- accounting ----------------------------------------------------

    @property
    def jobs_tracked(self) -> int:
        return len(self._jobs)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
