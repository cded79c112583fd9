"""``cell-long``: one 8-core ``barnes`` cell under 370-SLFSoS-key, well
above the default length, run in-process with no sweep and no cache:
``generate_workload`` -> ``generate_warmup`` ->
``System(..., warm_caches=warm)`` -> ``run()``.  A run measures four
such cells, on trace seeds drawn from the workload seed.
"""

from __future__ import annotations

import contextlib
import time

import common
import metrics
import speed
import tracing

NAME = "barnes"
CORES = 8
LENGTH = 24_000          # instructions per core (the default is 3,000)
CELLS = 4
SETUP_CODE = ("from repro.workloads import synthetic\n"
              "from repro.workloads.profiles import get_profile\n"
              "from repro.sim.system import System\n"
              "from repro.sweep.cache import code_version\n"
              "code_version()\n")
SETUP_LAUNCHES = 6                 # before, and again after, the work


def run_cell(trace_seed: int, length: int, recorder=None):
    """One cell; returns (stats, instructions generated, host seconds)."""
    from repro.sim import system as system_mod
    from repro.workloads import synthetic
    from repro.workloads.profiles import get_profile

    def span(name):
        if recorder is None:
            return contextlib.nullcontext()
        return recorder.span(name)

    t0 = time.perf_counter()
    with span("bench.cell"):
        profile = get_profile(NAME)
        with span("bench.generate"):
            traces = synthetic.generate_workload(profile, CORES, length,
                                                 trace_seed)
        with span("bench.warmgen"):
            warm = synthetic.generate_warmup(profile, CORES, length,
                                             trace_seed)
        with span("bench.build"):
            system = system_mod.System(traces, common.KEY_POLICY,
                                       warm_caches=warm)
        with span("bench.run"):
            stats = system.run()
    return stats, sum(len(t) for t in traces), time.perf_counter() - t0


def run(ctx) -> dict:
    length = max(200, int(LENGTH * ctx.scale))
    seeds = [ctx.seed * 1000 + i for i in range(CELLS)]
    if ctx.trace:
        return _traced(ctx, seeds[0], length)
    probe = ctx.probe
    attempted = failed = 0
    stats, times = [], []
    # On one CPU, so that the speed probe samples the CPU the work uses.
    with speed.pinned():
        # The untimed launch brings the bytecode cache up to date.
        common.time_launch(SETUP_CODE, ctx.work)
        with probe.window("setup"):
            setup = common.launch_times(SETUP_CODE, ctx.work, SETUP_LAUNCHES)
        for trace_seed in seeds:
            attempted += 1
            with probe.window("work"), probe.window(f"cell{trace_seed}"):
                st, generated, seconds = run_cell(trace_seed, length)
            stats.append(st)
            times.append(seconds)
            if st.total.retired_instructions != generated:
                failed += 1
                ctx.note(f"cell-long: seed {trace_seed} retired "
                         f"{st.total.retired_instructions} of {generated} "
                         f"instructions")
        with probe.window("setup"):
            setup += common.launch_times(SETUP_CODE, ctx.work,
                                         SETUP_LAUNCHES)
    probe.stop()
    stall, _ = common.stall_cycles_err(
        {(NAME, seed): st.total for seed, st in zip(seeds, stats)})
    instr = sum(st.total.retired_instructions for st in stats)
    summary = {
        "cells": CELLS, "length_per_core": length,
        "cell_s": [round(t, 3) for t in times],
        "stats_digest": common.digest(st.to_dict() for st in stats),
        "stall_cycles_err": round(stall, 6),
    }
    values = common.end_to_end(probe, setup, sum(times),
                               [t * 1000.0 for t in times], instr,
                               common.peak_rss_mb(), summary,
                               [f"cell{seed}" for seed in seeds])
    return ctx.result(values, attempted, failed, summary)


def _traced(ctx, trace_seed: int, length: int) -> dict:
    """The first cell untraced, then again under the hooks and the
    sampler: the layer breakdown, and the tracing overhead on the same
    work at nearly the same time."""
    probe = ctx.probe
    recorder = tracing.Recorder()
    sampler = ctx.sampler()
    recorder.cell = 0
    with speed.pinned():
        with probe.window("plain"):
            plain, _, plain_s = run_cell(trace_seed, length)
        with probe.window("traced"), tracing.traced(recorder,
                                                    sampler) as hooks:
            traced_stats, _, traced_s = run_cell(trace_seed, length,
                                                 recorder)
    failed = 0
    if (common.canonical(traced_stats.to_dict())
            != common.canonical(plain.to_dict())):
        failed = 1
        ctx.note("cell-long: traced cell differs from the untraced one")
    stall, compared = common.stall_cycles_err(
        {(NAME, trace_seed): traced_stats.total})
    extra = {"stall_cycles_err": stall,
             "trace.overhead": common.trace_overhead(probe, plain_s,
                                                     traced_s)}
    values = metrics.layer_metrics(recorder, sampler,
                                   metrics.sim_counts([traced_stats]), extra)
    summary = {"length_per_core": length, "untraced_cell_s": round(plain_s, 3),
               "traced_cell_s": round(traced_s, 3),
               "stats_digest": common.digest([traced_stats.to_dict()]),
               "stall_cycles_err": round(stall, 6),
               "stall_cells_compared": compared,
               "missing_hooks": hooks.missing}
    ctx.write_trace(recorder, sampler, summary)
    return ctx.result(values, 2, failed, summary)
