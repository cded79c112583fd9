"""``repro.serve`` — the async sharded simulation service.

Turns the one-shot CLI toolkit into a long-lived batch service: clients
POST litmus/bench jobs to an asyncio HTTP/1.1 JSON API, a sharded
process pool executes them under the sweep runner's crash-tolerance
machinery, and a persistent result store (layered on the sweep's
content-addressed :class:`~repro.sweep.cache.ResultCache`) memoizes
every result across clients, restarts, and plain ``repro sweep`` runs.

The layers, bottom up:

* :mod:`~repro.serve.jobs` — the job model: request parsing, idempotency
  keys, worker-side execution;
* :mod:`~repro.serve.store` — job records + two-tier result store;
* :mod:`~repro.serve.workers` — single-process shards fed from one
  priority queue, admission control, single-flight dedup, stuck-shard
  watchdog;
* :mod:`~repro.serve.api` — :class:`ServeService` orchestration and the
  hand-rolled HTTP surface, with graceful SIGTERM drain;
* :mod:`~repro.serve.client` — blocking client for CLI/scripts.

Results are deterministic: a stats payload served by the service is
byte-identical to a direct :func:`~repro.sweep.runner.run_sweep` of the
same cell.  See ``docs/SERVICE.md``.
"""

from repro.serve.api import HttpApi, ServeService
from repro.serve.client import DEFAULT_URL, ServeClient, ServeError
from repro.serve.jobs import (JOB_KINDS, Job, JobValidationError,
                              LeakSpec, LitmusSpec, execute_request,
                              parse_request, request_key)
from repro.serve.store import ResultStore
from repro.serve.workers import ShardedWorkerPool, StuckShardError

__all__ = [
    "DEFAULT_URL",
    "HttpApi",
    "JOB_KINDS",
    "Job",
    "JobValidationError",
    "LeakSpec",
    "LitmusSpec",
    "ResultStore",
    "ServeClient",
    "ServeError",
    "ServeService",
    "ShardedWorkerPool",
    "StuckShardError",
    "execute_request",
    "parse_request",
    "request_key",
]
