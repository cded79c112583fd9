"""``serve-loop``: ``repro serve`` as a subprocess (default 2 shards x 1
worker, fresh store) driven by a closed loop of two connections.

Each connection POSTs one job, long-polls ``?wait=`` until it ends, then
sends its next job.  The jobs are a fixed catalogue in a seeded order:

* new small bench cells (the 16 sample benchmarks x 5 policies x trace
  seeds 0-2, 2 cores x 800 instructions) that simulate and write the
  store;
* exact repeats of a cell the same connection finished earlier, which
  the store answers;
* litmus enumerations (18 battery tests, each under all registered
  models, under SC/370/x86 and under x86/PC/WMM);
* synth chunks (every second of 264 chunks of the 2x3x2 space).

Sorted by latency, repeats and litmus jobs fill the lowest 30%, cells
the next 45% and synth chunks the top 25%, so the median falls in the
middle of the cells and the 90th percentile inside the synth chunks.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import common
import metrics
import speed
import tracing

CELL_CORES = 2
CELL_LENGTH = 800
CELL_TRACE_SEEDS = (0, 1, 2)
SYNTH_BOUNDS = {"threads": 2, "max_ops": 3, "addresses": 2}
SYNTH_CHUNKS = 264
LITMUS_TESTS = ("sb", "mp", "lb", "iriw", "wrc", "rwc", "2+2w", "n5",
                "n6", "fig5-sb-fwd", "coRR", "sb+mfences", "mp+lwfences",
                "sb+lwfences", "mp+acqrel", "cas-race", "sb+rmw-both",
                "sb+rmw-one")
#: None = every registered model (the request omits ``models``).
LITMUS_MODELS = (None, ["SC", "370", "x86"], ["x86", "PC", "WMM"])
#: Jobs per class at full size.
FULL_COUNTS = {"cells": 240, "synth": 132, "litmus": 54, "repeats": 108}
CONNECTIONS = 2
SETUP_LAUNCHES = 4                 # before, and again after, the loop
#: Served payloads re-executed in-process, per class, by the untraced run.
PAYLOAD_SAMPLE = {"bench": 4, "litmus": 2, "synth": 2}
#: Jobs run plain and traced to measure the tracing overhead.
OVERHEAD_SAMPLE = 24
TERMINAL = ("done", "failed", "rejected")


# ----------------------------------------------------------------------
# the job sequence
# ----------------------------------------------------------------------

def catalogue(rng: random.Random, scale: float) -> Dict[str, List[Dict]]:
    cells = [{"kind": "bench", "name": name, "policy": policy,
              "cores": CELL_CORES, "length": CELL_LENGTH, "seed": seed}
             for seed in CELL_TRACE_SEEDS for name in common.SAMPLE
             for policy in common.POLICIES]
    synth = [{"kind": "synth", "bounds": dict(SYNTH_BOUNDS),
              "chunk": chunk, "chunks": SYNTH_CHUNKS}
             for chunk in range(0, SYNTH_CHUNKS, 2)]
    litmus = []
    for name in LITMUS_TESTS:
        for models in LITMUS_MODELS:
            job = {"kind": "litmus", "name": name}
            if models is not None:
                job["models"] = list(models)
            litmus.append(job)
    out = {}
    for cls, jobs in (("cells", cells), ("synth", synth),
                      ("litmus", litmus)):
        rng.shuffle(jobs)
        out[cls] = jobs[:max(1, round(FULL_COUNTS[cls] * scale))]
    return out


def sequences(seed: int, scale: float) -> List[List[tuple]]:
    """One ``[(kind, job), ...]`` list per connection; ``kind`` is "new"
    or "repeat".  New jobs are disjoint between connections, and every
    repeat names a cell its own connection submitted earlier."""
    rng = random.Random(seed)
    jobs = catalogue(rng, scale)
    repeats = max(1, round(FULL_COUNTS["repeats"] * scale))
    out = []
    for conn in range(CONNECTIONS):
        new = (jobs["cells"][conn::CONNECTIONS]
               + jobs["synth"][conn::CONNECTIONS]
               + jobs["litmus"][conn::CONNECTIONS])
        rng.shuffle(new)
        first = next(i for i, job in enumerate(new) if job["kind"] == "bench")
        new.insert(0, new.pop(first))
        n_rep = len(range(conn, repeats, CONNECTIONS))
        total = len(new) + n_rep
        slots = set(rng.sample(range(1, total), n_rep))
        fresh = iter(new)
        done_cells: List[Dict] = []
        seq = []
        for pos in range(total):
            if pos in slots:
                seq.append(("repeat", rng.choice(done_cells)))
                continue
            job = next(fresh)
            seq.append(("new", job))
            if job["kind"] == "bench":
                done_cells.append(job)
        out.append(seq)
    return out


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------

def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[Dict] = None) -> tuple:
    data = None if body is None else json.dumps(body).encode()
    headers = {} if data is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read().decode() or "null")


class Server:
    """One ``repro serve`` process with its own store directory."""

    def __init__(self, work: str, store: str) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--cache-dir", store],
            cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            self.ready_s = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    def _wait_ready(self) -> float:
        """Seconds from launch until ``/v1/healthz`` answers and every
        shard has run a job (worker pools start on first use)."""
        conn = self.connect()
        try:
            status, health = _request(conn, "GET", "/v1/healthz")
            if status != 200 or not health.get("ok"):
                raise RuntimeError(f"healthz: {status} {health}")
            shards = set()
            for name in LITMUS_TESTS:
                _, doc = _request(conn, "POST", "/v1/jobs",
                                  {"kind": "litmus", "name": name,
                                   "models": ["SC"]})
                while doc.get("state") not in TERMINAL:
                    _, doc = _request(conn, "GET",
                                      f"/v1/jobs/{doc['id']}?wait=60")
                if doc["state"] != "done":
                    raise RuntimeError(f"warm-up job failed: {doc}")
                shards.add(doc["shard"])
                if len(shards) == health["shards"]:
                    return time.perf_counter() - self.t0
            raise RuntimeError("warm-up jobs did not reach every shard")
        finally:
            conn.close()

    def metrics(self) -> Dict:
        conn = self.connect()
        try:
            return _request(conn, "GET", "/v1/metrics")[1]
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def launch_times(work: str, launches: int, tag: str) -> List[float]:
    """Launch-to-ready seconds of ``launches`` servers, each stopped at
    once.  ``setup_s`` is the median over a batch before the loop and a
    batch after it, so that it spans the run; both run on one CPU, so
    that the speed probe samples the CPU they use."""
    times = []
    for launch in range(launches):
        server = Server(work, os.path.join(work, f"store-{tag}{launch}"))
        server.stop()
        times.append(server.ready_s)
    return times


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class JobRecord:
    conn: int
    kind: str               # "new" or "repeat"
    request: Dict
    doc: Dict = field(default_factory=dict)
    t_start: float = 0.0
    t_posted: float = 0.0
    t_end: float = 0.0
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.t_end - self.t_start) * 1000.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.doc.get("state") == "done"


def _span(recorder, name: str, ident: int, **args):
    if recorder is None:
        return contextlib.nullcontext({"args": {}})
    return recorder.span(name, cell=ident, **args)


def _drive(server: Server, conn_id: int, seq, out: List[JobRecord],
           recorder) -> None:
    conn = server.connect()
    try:
        for kind, job in seq:
            rec = JobRecord(conn_id, kind, job)
            ident = len(out) * CONNECTIONS + conn_id
            with _span(recorder, "serve.job", ident, kind=kind,
                       job=job["kind"]) as span:
                rec.t_start = time.perf_counter()
                try:
                    with _span(recorder, "serve.post", ident):
                        _, rec.doc = _request(conn, "POST", "/v1/jobs", job)
                    rec.t_posted = time.perf_counter()
                    while rec.doc.get("state") in ("queued", "running"):
                        with _span(recorder, "serve.wait", ident):
                            _, rec.doc = _request(
                                conn, "GET",
                                f"/v1/jobs/{rec.doc['id']}?wait=60")
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    rec.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = server.connect()
                rec.t_end = time.perf_counter()
                span["args"].update(state=rec.doc.get("state"),
                                    cache_hit=rec.doc.get("cache_hit"))
            out.append(rec)
    finally:
        conn.close()


def closed_loop(server: Server, seqs, recorder=None) -> tuple:
    """Run every connection's sequence; returns (records, wall seconds
    from the first POST to the last job's end)."""
    outs: List[List[JobRecord]] = [[] for _ in seqs]
    threads = [threading.Thread(target=_drive,
                                args=(server, i, seq, outs[i], recorder))
               for i, seq in enumerate(seqs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    now = time.perf_counter()
    for conn_id, (seq, out) in enumerate(zip(seqs, outs)):
        # A connection that died left the rest of its sequence unsent.
        out.extend(JobRecord(conn_id, kind, job, t_start=now, t_end=now,
                             error="not sent")
                   for kind, job in seq[len(out):])
    records = [rec for out in outs for rec in out]
    wall = (max(r.t_end for r in records)
            - min(r.t_start for r in records))
    return records, wall


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _reexecute(doc: Dict) -> Dict:
    from repro.serve.jobs import execute_request, parse_request

    _kind, spec, _priority = parse_request(doc["spec"])
    return execute_request(spec)


def check_records(records: List[JobRecord], note) -> int:
    """Failed, rejected or missing jobs, and repeats the store did not
    answer."""
    failed = 0
    for rec in records:
        if not rec.ok:
            failed += 1
            note(f"serve-loop: {rec.request} ended "
                 f"{rec.error or rec.doc.get('state')}")
        elif rec.kind == "repeat" and not rec.doc.get("cache_hit"):
            failed += 1
            note(f"serve-loop: repeat of {rec.request} was not a store hit")
    return failed


def _stats(records: List[JobRecord]):
    from repro.sim.stats import SystemStats

    return [(rec.request, SystemStats.from_dict(rec.doc["result"]))
            for rec in records if rec.ok and rec.kind == "new"
            and rec.request["kind"] == "bench"]


def _accuracy(cells) -> tuple:
    cycles, key_totals = {}, {}
    for req, st in cells:
        cycles[(req["name"], req["policy"], req["seed"])] = \
            st.execution_cycles
        if req["policy"] == common.KEY_POLICY:
            key_totals[(req["name"], req["seed"])] = st.total
    stall, _ = common.stall_cycles_err(key_totals)
    return common.fig10_err(cycles), stall


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

def run(ctx) -> dict:
    seqs = sequences(ctx.seed, ctx.scale)
    if ctx.trace:
        return _traced(ctx, seqs)
    rng = random.Random(ctx.seed + 1)
    probe = ctx.probe
    launch_times(ctx.work, 1, "untimed")    # bytecode cache up to date
    with speed.pinned(), probe.window("setup"):
        setup = launch_times(ctx.work, SETUP_LAUNCHES, "before")
    server = Server(ctx.work, os.path.join(ctx.work, "store"))
    try:
        with probe.window("work"):
            records, wall = closed_loop(server, seqs)
    finally:
        server.stop()
    # Before the in-process checks, which would add their own peak.
    peak_rss = common.peak_rss_mb()
    with speed.pinned(), probe.window("setup"):
        setup += launch_times(ctx.work, SETUP_LAUNCHES, "after")
    probe.stop()

    attempted = len(records)
    failed = check_records(records, ctx.note)
    new_ok = [r for r in records if r.ok and r.kind == "new"]
    for cls, count in PAYLOAD_SAMPLE.items():
        pool = [r for r in new_ok if r.request["kind"] == cls]
        for rec in rng.sample(pool, min(count, len(pool))):
            attempted += 1
            failed += _mismatch(rec, _reexecute(rec.doc), ctx.note)

    cells = _stats(records)
    instr = sum(st.total.retired_instructions for _, st in cells)
    summary = _summary(records, cells)
    summary["loop_server_ready_s"] = round(server.ready_s, 4)
    values = common.end_to_end(probe, setup, wall,
                               [r.latency_ms for r in records], instr,
                               peak_rss, summary)
    return ctx.result(values, attempted, failed, summary)


def _mismatch(rec: JobRecord, payload: Dict, note) -> int:
    if common.canonical(payload) == common.canonical(rec.doc["result"]):
        return 0
    note(f"serve-loop: served {rec.request} differs from in-process "
         f"execute_request")
    return 1


def _summary(records: List[JobRecord], cells) -> Dict:
    fig10, stall = _accuracy(cells)
    by_class: Dict[str, int] = {}
    for rec in records:
        cls = "repeat" if rec.kind == "repeat" else rec.request["kind"]
        by_class[cls] = by_class.get(cls, 0) + 1
    return {
        "jobs": len(records), "by_class": by_class,
        "stats_digest": common.digest(
            sorted((common.canonical(req), st.to_dict())
                   for req, st in cells)),
        "fig10_err": round(fig10, 6), "stall_cycles_err": round(stall, 6),
    }


def _traced(ctx, seqs) -> dict:
    """The sequence against a fresh server with a span per HTTP call,
    then every distinct new job re-executed in-process under the hooks
    and the sampler.  The tracing overhead is measured on a seeded
    sample of those jobs, run plain and then traced."""
    rng = random.Random(ctx.seed + 1)
    recorder = tracing.Recorder()
    server = Server(ctx.work, os.path.join(ctx.work, "store"))
    try:
        before = server.metrics()
        records, _wall = closed_loop(server, seqs, recorder)
        after = server.metrics()
    finally:
        server.stop()
    attempted = len(records)
    failed = check_records(records, ctx.note)
    new_ok = [r for r in records if r.ok and r.kind == "new"]

    overhead_jobs = rng.sample(new_ok, min(OVERHEAD_SAMPLE, len(new_ok)))
    with speed.pinned():
        with ctx.probe.window("plain"):
            t0 = time.perf_counter()
            for rec in overhead_jobs:
                _reexecute(rec.doc)
            plain_s = time.perf_counter() - t0
        with ctx.probe.window("traced"), \
                tracing.traced(tracing.Recorder(), ctx.sampler()):
            t0 = time.perf_counter()
            for rec in overhead_jobs:
                _reexecute(rec.doc)
            traced_s = time.perf_counter() - t0

    sampler = ctx.sampler()
    with tracing.traced(recorder, sampler) as hooks:
        for ident, rec in enumerate(new_ok):
            recorder.cell = ident
            attempted += 1
            with recorder.span("bench.execute_request",
                               job=rec.request["kind"]):
                payload = _reexecute(rec.doc)
            failed += _mismatch(rec, payload, ctx.note)

    cells = _stats(records)
    fig10, stall = _accuracy(cells)
    hist = after.get("histograms", {}).get("queue_wait_ms", {})
    counters, old = after["counters"], before["counters"]

    def median_ms(values):
        return common.median(values) if values else 0.0

    extra = {
        "serve.submit_ms": median_ms(
            [(r.t_posted - r.t_start) * 1000.0 for r in new_ok]),
        "serve.queue_wait_p50_ms": hist.get("p50", 0),
        "serve.queue_wait_p90_ms": hist.get("p90", 0),
        "serve.hit_ms": median_ms(
            [r.latency_ms for r in records if r.ok and r.kind == "repeat"]),
        "serve.cold_ms": median_ms(
            [r.latency_ms for r in new_ok if r.request["kind"] == "bench"]),
        "serve.store_hit_rate": after.get("store", {}).get("hit_rate", 0),
        "serve.rejected": (counters.get("jobs_rejected", 0)
                           - old.get("jobs_rejected", 0)),
        "serve.jobs_executed": (counters.get("jobs_executed", 0)
                                - old.get("jobs_executed", 0)),
        "fig10_err": fig10, "stall_cycles_err": stall,
        "trace.overhead": common.trace_overhead(ctx.probe, plain_s,
                                                traced_s),
    }
    values = metrics.layer_metrics(
        recorder, sampler, metrics.sim_counts(st for _, st in cells), extra)
    summary = _summary(records, cells)
    summary["missing_hooks"] = hooks.missing
    ctx.write_trace(recorder, sampler, summary)
    return ctx.result(values, attempted, failed, summary)
