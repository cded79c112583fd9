"""Integration tests for ``repro.serve``: the full service lifecycle.

Most tests boot a real :class:`HttpApi` server (loopback, port 0) on a
background thread and drive it over HTTP with :class:`ServeClient` —
the same path production clients use; the shared-queue tests drive a
:class:`ServeService` directly.  The battery covers the acceptance
criteria: a mixed batch served byte-identically to direct execution,
warm resubmits answered from the store, admission-control rejections,
single-flight dedup of concurrent duplicates, any idle shard taking
the next job, the stuck-shard watchdog, graceful SIGTERM drain of a
real subprocess, and the HTTP surface itself (long-poll, metrics,
error statuses, over-long lines).
"""

import asyncio
import gc
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro.core.policies import POLICY_ORDER
from repro.serve.api import HttpApi, ServeService
from repro.serve.client import ServeClient
from repro.serve.jobs import (DONE, FAILED, RUNNING, LitmusSpec,
                              execute_litmus, parse_request, request_key)
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepJob, execute_job, run_sweep

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Harness: a live server on a background thread
# ----------------------------------------------------------------------

class ServerThread:
    """Run ``HttpApi`` on its own event loop in a daemon thread."""

    def __init__(self, **service_kwargs):
        self.service_kwargs = service_kwargs
        self.service = None
        self.api = None
        self.port = None
        self.notes = []
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.service = ServeService(on_note=self.notes.append,
                                    **self.service_kwargs)
        self.api = HttpApi(self.service, port=0)
        self._loop = asyncio.get_running_loop()
        await self.api.start()
        self.port = self.api.port
        self._ready.set()
        await self.api._shutdown.wait()
        await self.api.stop(drain_timeout=60)

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("server did not come up")
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self.api.request_shutdown)
        self._thread.join(timeout=60)

    def client(self, timeout=30.0):
        return ServeClient(f"http://127.0.0.1:{self.port}",
                           timeout=timeout)


def _bench(name, policy, length=600, **kw):
    return {"kind": "bench", "name": name, "policy": policy,
            "cores": 2, "length": length, **kw}


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# The acceptance batch: ≥32 mixed jobs, byte-identical, then warm
# ----------------------------------------------------------------------

LITMUS_NAMES = ["2+2w", "coRR", "iriw", "lb", "mp", "n5", "n6", "rwc",
                "sb", "sb+mfences", "self-read", "wrc"]


def test_mixed_batch_byte_identity_and_warm_resubmit(tmp_path):
    bench_cells = [(name, policy)
                   for name in ("radix", "fft", "barnes", "cholesky")
                   for policy in POLICY_ORDER]
    requests = [_bench(name, policy) for name, policy in bench_cells]
    requests += [{"kind": "litmus", "name": name}
                 for name in LITMUS_NAMES]
    assert len(requests) >= 32

    with ServerThread(shards=4, cache_dir=tmp_path) as server:
        client = server.client()

        t0 = time.monotonic()
        batch = client.submit_batch(requests)
        assert batch["accepted"] == len(requests)
        assert batch["rejected"] == 0 and batch["invalid"] == 0
        ids = [doc["id"] for doc in batch["jobs"]]
        docs = client.wait_all(ids, deadline=240)
        cold_elapsed = time.monotonic() - t0

        served = [docs[i] for i in ids]
        assert all(doc["state"] == "done" for doc in served)

        # Byte identity: every served payload equals direct execution.
        for doc, (name, policy) in zip(served, bench_cells):
            direct = execute_job(
                SweepJob(name=name, policy=policy, cores=2, length=600))
            assert _canon(doc["result"]) == _canon(direct), \
                f"served {name}/{policy} diverges from execute_job"
        for doc, name in zip(served[len(bench_cells):], LITMUS_NAMES):
            direct = execute_litmus(LitmusSpec(name))
            assert _canon(doc["result"]) == _canon(direct)

        # Warm resubmit: all hits, no new simulations, much faster.
        executed_before = server.service.metrics.counter("jobs_executed")
        t1 = time.monotonic()
        rerun = client.submit_batch(requests)
        warm_elapsed = time.monotonic() - t1
        assert all(doc["state"] == "done" and doc["cache_hit"]
                   for doc in rerun["jobs"])
        assert server.service.metrics.counter("jobs_executed") == \
            executed_before
        assert warm_elapsed < cold_elapsed / 5, \
            f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s"

    # The store IS the sweep cache: a direct run_sweep against the same
    # directory answers every bench cell without simulating.
    outcome = run_sweep(
        [SweepJob(name=n, policy=p, cores=2, length=600)
         for n, p in bench_cells],
        workers=1, cache=True, cache_dir=tmp_path)
    assert outcome.cached == len(bench_cells)
    assert outcome.simulated == 0


def test_concurrent_duplicates_simulate_once(tmp_path):
    cell = _bench("radix", "x86", length=700, seed=9)
    with ServerThread(shards=4, cache_dir=tmp_path) as server:
        client = server.client()
        batch = client.submit_batch([cell] * 6)
        assert batch["accepted"] == 6
        docs = client.wait_all([d["id"] for d in batch["jobs"]])
        payloads = {_canon(d["result"]) for d in docs.values()}
        assert len(payloads) == 1
        assert all(d["state"] == "done" for d in docs.values())
        metrics = client.metrics()
        assert metrics["counters"]["jobs_executed"] == 1
        assert metrics["counters"]["jobs_deduped"] == 5
        # Followers share the primary's shard and are flagged.
        flags = sorted(d["deduped"] for d in batch["jobs"])
        assert flags == [False] + [True] * 5
        assert len({d["shard"] for d in batch["jobs"]}) == 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

def test_admission_rejects_beyond_queue_limit(tmp_path):
    slow = [_bench("radix", policy, length=8000)
            for policy in POLICY_ORDER] + [_bench("fft", "x86",
                                                  length=8000)]
    with ServerThread(shards=1, queue_limit=3, cache_dir=tmp_path) as server:
        client = server.client()
        batch = client.submit_batch(slow)     # 6 distinct jobs, cap 3
        states = [d["state"] for d in batch["jobs"]]
        assert batch["accepted"] == 3 and batch["rejected"] == 3
        assert states[:3] == ["running", "queued", "queued"]
        assert states[3:] == ["rejected"] * 3
        rejection = batch["jobs"][3]["rejection"]
        assert rejection["error"] == "queue-full"
        assert rejection["status"] == 429
        assert rejection["depth"] == rejection["limit"] == 3
        assert rejection["retry_after_s"] > 0

        # A single-job POST while the queue is still full → HTTP 429.
        status, doc = client.submit(_bench("barnes", "x86", length=8000))
        assert status == 429
        assert doc["state"] == "rejected"

        # The admitted jobs still run to completion.
        admitted = [d["id"] for d in batch["jobs"][:3]]
        done = client.wait_all(admitted, deadline=120)
        assert all(d["state"] == "done" for d in done.values())
        assert client.metrics()["counters"]["jobs_rejected"] == 4


def test_draining_rejects_everything_with_503(tmp_path):
    with ServerThread(shards=1, cache_dir=tmp_path) as server:
        client = server.client()
        server.service.draining = True
        server.service.pool.draining = True
        status, doc = client.submit(_bench("radix", "x86"))
        assert status == 503
        assert doc["state"] == "rejected"
        assert doc["rejection"]["error"] == "draining"
        health = client.healthz()
        assert health["draining"] is True


# ----------------------------------------------------------------------
# One queue: any idle shard takes the next job
# ----------------------------------------------------------------------

def _same_parity_pair():
    """Two distinct bench requests whose keys agree in
    ``int(key[:16], 16) % 2`` — the shard a key-sharded pool would
    have pinned both of them to."""
    by_parity = {}
    for seed in range(64):
        request = _bench("radix", "x86", length=300, seed=seed)
        key = request_key(parse_request(request)[1])
        parity = int(key[:16], 16) % 2
        if parity in by_parity:
            return by_parity[parity], request
        by_parity[parity] = request
    raise AssertionError("no same-parity pair in 64 seeds")


def test_same_parity_keys_run_on_both_shards():
    async def main():
        service = ServeService(shards=2, cache=False)
        jobs = [service.submit_one(r) for r in _same_parity_pair()]
        placed = [(job.state, job.shard) for job in jobs]
        assert await service.drain(60)
        return placed, [job.state for job in jobs]

    placed, final = asyncio.run(main())
    assert sorted(placed) == [(RUNNING, 0), (RUNNING, 1)]
    assert final == [DONE, DONE]


def test_sequential_jobs_take_the_longest_idle_shard():
    async def main():
        service = ServeService(shards=2, cache=False)
        shards = []
        for name in ("sb", "mp", "lb"):
            job = service.submit_one({"kind": "litmus", "name": name,
                                      "models": ["SC"]})
            await service.wait_for(job, 60)
            assert job.state == DONE
            shards.append(job.shard)
        await service.drain(60)
        return shards

    assert asyncio.run(main()) == [0, 1, 0]


def test_shard_frees_the_previous_jobs_garbage(monkeypatch):
    """A shard's entry point collects before it runs a job, so cyclic
    garbage a finished job left (a ``System``) does not outlive it."""
    from repro.serve import workers

    class Cyclic:
        pass

    seen = []
    monkeypatch.setattr(workers, "execute_request",
                        lambda spec, timeout: seen.append(
                            (spec, timeout, left() is None)) or {})
    enabled = gc.isenabled()
    gc.disable()   # only the entry point's collection may free it
    try:
        garbage = Cyclic()
        garbage.self = garbage
        left = weakref.ref(garbage)
        del garbage
        assert left() is not None
        assert workers._execute_in_worker("spec", 5.0) == {}
    finally:
        if enabled:
            gc.enable()
    assert seen == [("spec", 5.0, True)]


def test_watchdog_recycles_only_the_stuck_shard():
    heavy = _bench("radix", "x86", length=500_000)
    heavy["cores"] = 8

    async def main():
        service = ServeService(shards=2, cache=False, retries=0,
                               stuck_after=1.5)
        service.start()
        stuck = service.submit_one(heavy)
        quick = service.submit_one({"kind": "litmus", "name": "sb",
                                    "models": ["SC"]})
        await service.wait_for(quick, 30)
        await service.wait_for(stuck, 30)
        await service.drain(60)
        return stuck, quick, service.metrics_snapshot()["shards"]

    stuck, quick, shards = asyncio.run(main())
    assert (stuck.state, stuck.shard) == (FAILED, 0)
    assert stuck.error["type"] == "StuckShardError"
    assert stuck.error["diagnostic"]["shard"] == 0
    assert (quick.state, quick.shard) == (DONE, 1)
    assert [row["recycles"] for row in shards] == [1, 0]


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------

def test_watchdog_recycles_a_stuck_shard(tmp_path):
    heavy = _bench("radix", "x86", length=500_000)
    heavy["cores"] = 8
    with ServerThread(shards=1, retries=0,
                      stuck_after=0.5, cache_dir=tmp_path) as server:
        client = server.client()
        status, doc = client.submit(heavy)
        assert status == 202
        _, failed = client.job(doc["id"], wait=30)
        assert failed["state"] == "failed"
        error = failed["error"]
        assert error["type"] == "StuckShardError"
        assert error["diagnostic"]["shard"] == 0
        assert error["diagnostic"]["inflight"][0]["job"] == doc["id"]

        # The recycled shard is healthy: the next job succeeds.
        status, quick = client.submit(_bench("radix", "x86"))
        _, done = client.job(quick["id"], wait=30)
        assert done["state"] == "done"
        metrics = client.metrics()
        assert metrics["counters"]["shard_recycles"] >= 1
        assert metrics["counters"]["jobs_failed"] == 1


# ----------------------------------------------------------------------
# Graceful SIGTERM drain (real subprocess through the CLI)
# ----------------------------------------------------------------------

def test_sigterm_drains_and_persists_results(tmp_path):
    # The server must import this checkout's sources, whatever the
    # working directory, so its code_version() matches the key below.
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--shards", "1", "--cache-dir", str(tmp_path)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        port = int(line.rsplit(":", 1)[1])
        client = ServeClient(f"http://127.0.0.1:{port}")
        client.wait_ready()

        job = SweepJob(name="radix", policy="x86", cores=2, length=5000)
        status, doc = client.submit(
            _bench("radix", "x86", length=5000))
        assert status == 202                  # admitted, not yet done

        proc.send_signal(signal.SIGTERM)      # drain, don't drop
        assert proc.wait(timeout=90) == 0
        tail = proc.stdout.read()
        assert "drained and stopped" in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The in-flight job's result survived the shutdown, under the very
    # key a future service (or run_sweep) would look up.
    persisted = ResultCache(tmp_path).get(request_key(job))
    assert persisted is not None
    assert _canon(persisted) == _canon(execute_job(job))


# ----------------------------------------------------------------------
# HTTP surface details
# ----------------------------------------------------------------------

def _raw_exchange(port, request):
    """Send raw request bytes; return all the server answers before it
    closes the connection."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        return reply


def test_http_surface_statuses_and_metrics(tmp_path):
    with ServerThread(shards=1, cache_dir=tmp_path) as server:
        client = server.client()

        health = client.healthz()
        assert health["ok"] is True
        assert health["draining"] is False
        assert health["shards"] == 1

        # Long-poll: one GET with ?wait= returns the finished document.
        status, doc = client.submit(_bench("radix", "x86", length=900))
        assert status == 202
        status, done = client.job(doc["id"], wait=30)
        assert status == 200 and done["state"] == "done"

        # A resubmit of a known key answers 200 immediately.
        status, hit = client.submit(_bench("radix", "x86", length=900))
        assert status == 200 and hit["cache_hit"] is True

        metrics = client.metrics()
        for counter in ("jobs_submitted", "jobs_executed",
                        "jobs_cache_hit", "http_requests"):
            assert counter in metrics["counters"]
        for gauge in ("uptime_s", "queue_depth", "inflight",
                      "cache_hit_rate", "jobs_per_sec", "draining"):
            assert gauge in metrics["gauges"]
        assert metrics["histograms"]["job_latency_ms"]["count"] >= 2
        assert "p99" in metrics["histograms"]["job_latency_ms"]
        assert metrics["shards"][0]["executed"] == 1
        assert metrics["store"]["puts"] == 1
        json.dumps(metrics)  # the snapshot must be JSON-clean

        # Error statuses.
        status, payload = client._request("GET", "/v1/nope")
        assert status == 404
        status, payload = client.job("job-999999")
        assert status == 404 and payload["error"] == "unknown-job"
        status, payload = client._request("GET", "/v1/jobs")
        assert status == 405
        # The store has no write route: a payload PUT under a job's key
        # is refused, and that job is still computed, not answered
        # with the forged payload.
        forged = {"kind": "litmus", "name": "sb", "outcomes": {}}
        key = request_key(LitmusSpec("sb"))
        route = "/".join(("", "v1", "store", key))
        status, _ = client._request("PUT", route, forged)
        assert status == 404
        status, doc = client.submit({"kind": "litmus", "name": "sb"})
        assert not doc.get("cache_hit")
        status, done = client.job(doc["id"], wait=30)
        assert status == 200 and done["state"] == "done"
        assert _canon(done["result"]) == _canon(
            execute_litmus(LitmusSpec("sb")))
        status, payload = client.submit(
            {"kind": "bench", "name": "radix", "policy": "not-real"})
        assert status == 400 and payload["error"] == "invalid-job"
        # A JSON scalar is not a job request...
        status, payload = client._request("POST", "/v1/jobs", "not json")
        assert status == 400 and payload["error"] == "bad-request"
        # ...and broken JSON bytes are a bad-json 400.
        import urllib.error
        import urllib.request
        req = urllib.request.Request(
            f"{client.url}/v1/jobs", data=b"{broken", method="POST")
        try:
            urllib.request.urlopen(req, timeout=10)
            raised = None
        except urllib.error.HTTPError as exc:
            raised = (exc.code, json.loads(exc.read().decode()))
        assert raised is not None
        assert raised[0] == 400 and raised[1]["error"] == "bad-json"
        # A request line or header line past the stream's 64 KiB line
        # limit is a counted 400, not a dropped connection.
        errors = client.metrics()["counters"].get("http_errors", 0)
        for request in (
                b"GET /v1/" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
                b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"y" * 70_000
                + b"\r\n\r\n"):
            head, _, body = _raw_exchange(server.port,
                                          request).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), head
            assert json.loads(body)["error"] == "bad-request"
        assert client.metrics()["counters"]["http_errors"] == errors + 2
