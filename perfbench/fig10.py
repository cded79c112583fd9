"""``fig10-cold``: the 80 cells of the Fig. 10 sample suite (16
benchmarks x 5 policies at the suite's default lengths), run through
``run_sweep`` into an empty cache with default worker sizing.

The cells are the same on every seed, so the accuracy figures and the
stats digest repeat exactly; the seed picks the cells that are
re-simulated in-process to check the sweep's output.
"""

from __future__ import annotations

import random
import threading
import time

import common
import metrics
import speed
import tracing

SETUP_CODE = ("from repro.sweep import SweepJob, run_sweep\n"
              "from repro.sweep.cache import code_version\n"
              "code_version()\n")
SETUP_LAUNCHES = 6                 # before, and again after, the work
IDENTITY_SAMPLE = 2


def make_jobs(scale: float):
    from repro.sweep import SweepJob
    from repro.workloads.runner import resolved_length

    jobs = []
    for name in common.SAMPLE:
        length = None
        if scale < 1.0:
            length = max(100, int(resolved_length(name) * scale))
        jobs.extend(SweepJob(name=name, policy=policy, length=length)
                    for policy in common.POLICIES)
    return jobs


class _CompletionWatch:
    """Notes when each cell's result lands in the sweep cache: the time
    from submitting the batch to that cell's result."""

    def __init__(self, cache_dir: str, keys, t0: float) -> None:
        from repro.sweep.cache import ResultCache

        self.paths = [ResultCache(cache_dir).path_for(k) for k in keys]
        self.t0 = t0
        self.done_at = [None] * len(keys)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pending = list(range(len(self.paths)))
        while pending and not self._stop.wait(0.02):
            now = time.perf_counter() - self.t0
            still = []
            for idx in pending:
                if self.paths[idx].exists():
                    self.done_at[idx] = now
                else:
                    still.append(idx)
            pending = still

    def __enter__(self) -> "_CompletionWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        end = time.perf_counter() - self.t0
        self.done_at = [end if t is None else t for t in self.done_at]


def _in_process_stats(job):
    from repro.sim.system import simulate
    from repro.workloads.profiles import get_profile
    from repro.workloads.runner import resolved_length
    from repro.workloads.synthetic import generate_warmup, generate_workload

    profile = get_profile(job.name)
    n = resolved_length(job.name, job.length)
    traces = generate_workload(profile, job.cores, n, job.seed)
    warm = generate_warmup(profile, job.cores, n, job.seed)
    return simulate(traces, job.policy, warm_caches=warm)


def _accuracy(jobs, results):
    cycles = {}
    key_totals = {}
    for job, result in zip(jobs, results):
        if result is None:
            continue
        cycles[(job.name, job.policy, job.seed)] = \
            result.stats.execution_cycles
        if job.policy == common.KEY_POLICY:
            key_totals[(job.name, job.seed)] = result.stats.total
    err, _ = common.stall_cycles_err(key_totals)
    return common.fig10_err(cycles), err


def _serial_sweep(jobs, cache_dir):
    """``run_sweep`` in-process, so no work hides in a pool worker."""
    from repro.sweep import run_sweep

    t0 = time.perf_counter()
    outcome = run_sweep(jobs, workers=1, cache_dir=cache_dir)
    return outcome, time.perf_counter() - t0


def run(ctx) -> dict:
    from repro.sweep import run_sweep
    from repro.sweep.runner import job_key

    rng = random.Random(ctx.seed)
    jobs = make_jobs(ctx.scale)
    probe = ctx.probe
    if not ctx.trace:
        # Untimed: brings the bytecode cache up to date.
        common.time_launch(SETUP_CODE, ctx.work)
        with speed.pinned(), probe.window("setup"):
            setup = common.launch_times(SETUP_CODE, ctx.work, SETUP_LAUNCHES)

    keys = [job_key(job) for job in jobs]
    with common.scratch_dir(ctx.work, "fig10-cache-") as cache:
        with probe.window("work"):
            t0 = time.perf_counter()
            with _CompletionWatch(cache, keys, t0) as watch:
                outcome = run_sweep(jobs, cache_dir=cache)
            wall = time.perf_counter() - t0
    # Before the checks, whose seeded cells would add their own peak.
    peak_rss = common.peak_rss_mb()

    failed = sum(1 for r in outcome.results if r is None)
    attempted = len(jobs)
    ok = [i for i, r in enumerate(outcome.results) if r is not None]
    for idx in rng.sample(ok, min(IDENTITY_SAMPLE, len(ok))):
        attempted += 1
        direct = _in_process_stats(jobs[idx]).to_dict()
        if (common.canonical(direct)
                != common.canonical(outcome.results[idx].stats.to_dict())):
            failed += 1
            ctx.note(f"fig10-cold: {jobs[idx].name}/{jobs[idx].policy} "
                     f"differs from in-process simulate")

    stats = [r.stats for r in outcome.results if r is not None]
    payloads = [(job.name, job.policy, r.stats.to_dict())
                for job, r in zip(jobs, outcome.results) if r is not None]
    fig10, stall = _accuracy(jobs, outcome.results)
    instr = sum(st.total.retired_instructions for st in stats)
    latencies = [t * 1000.0 for t in watch.done_at]
    summary = {
        "cells": len(jobs), "sweep_mode": outcome.mode,
        "workers": outcome.workers,
        "stats_digest": common.digest(sorted(payloads)),
        "fig10_err": round(fig10, 6), "stall_cycles_err": round(stall, 6),
    }

    if not ctx.trace:
        with speed.pinned(), probe.window("setup"):
            setup += common.launch_times(SETUP_CODE, ctx.work,
                                         SETUP_LAUNCHES)
        probe.stop()
        values = common.end_to_end(probe, setup, wall, latencies, instr,
                                   peak_rss, summary)
        return ctx.result(values, attempted, failed, summary)

    # Traced run: tracing overhead on one seeded benchmark's five cells,
    # then the whole suite serially in-process under the hooks.
    name = rng.choice(common.SAMPLE)
    group = [job for job in jobs if job.name == name]
    with speed.pinned():
        with common.scratch_dir(ctx.work, "fig10-plain-") as cache, \
                probe.window("plain"):
            _, plain_s = _serial_sweep(group, cache)
        with common.scratch_dir(ctx.work, "fig10-probe-") as cache, \
                probe.window("traced"), \
                tracing.traced(tracing.Recorder(), ctx.sampler()):
            _, probe_s = _serial_sweep(group, cache)

    recorder = tracing.Recorder()
    sampler = ctx.sampler()
    cells = iter(range(len(jobs)))

    def next_cell():
        recorder.cell = next(cells, None)

    with common.scratch_dir(ctx.work, "fig10-traced-") as cache, \
            speed.pinned(), probe.window("serial"):
        with tracing.traced(recorder, sampler, on_generate=next_cell) as h:
            with recorder.span("bench.run_sweep", cells=len(jobs)):
                traced_outcome, serial_s = _serial_sweep(jobs, cache)
    attempted += len(jobs)
    for job, a, b in zip(jobs, outcome.results, traced_outcome.results):
        if a is None or b is None or (common.canonical(a.stats.to_dict())
                                      != common.canonical(b.stats.to_dict())):
            failed += 1
            ctx.note(f"fig10-cold: traced {job.name}/{job.policy} differs")

    overhead = common.trace_overhead(probe, plain_s, probe_s)
    # Both sweeps at the reference speed: the serial one ran on one CPU,
    # the pooled one on all of them.
    pool_util = ((serial_s / probe.slowness("serial"))
                 / (outcome.workers * wall / probe.slowness("work")))
    extra = {
        "sweep.cells": len(jobs), "sweep.pool_util": pool_util,
        "fig10_err": fig10, "stall_cycles_err": stall,
        "trace.overhead": overhead,
    }
    values = metrics.layer_metrics(recorder, sampler,
                                   metrics.sim_counts(stats), extra)
    summary.update({"untraced_wall_s": round(wall, 3),
                    "traced_serial_s": round(serial_s, 3),
                    "missing_hooks": h.missing})
    ctx.write_trace(recorder, sampler, summary)
    return ctx.result(values, attempted, failed, summary)
