"""Kernel and sweep-runner throughput, recorded into ``BENCH_kernel.json``.

Two rows:

* **kernel** — events/sec and retired instructions/sec of the
  discrete-event kernel on one Fig. 10 cell (best of ``ROUNDS`` runs),
  with the cell's ``stats_digest``: the first 16 hex characters of
  SHA-256 over its canonical stats JSON, the same digest
  ``tests/integration/test_stats_pin.py`` pins.  Read a speedup in
  instructions/sec against an earlier run on the same host: a change
  that moves work in or out of engine events changes events per
  instruction, so events/sec does not compare across it.  The pin test
  is the identity check.
* **sweep** — serial vs a fixed 4-worker pool vs default sizing
  (``workers=None``) wall clock for 8 uncached jobs.  All three must
  give identical stats, and the default must never lose to serial.

``REPRO_BENCH_SCALE`` shrinks the workloads and ``REPRO_BENCH_ROUNDS``
the kernel timing rounds for CI smoke.  Run standalone to record the
rows (exits nonzero if a sweep gate fails):

    PYTHONPATH=src python benchmarks/bench_kernel_speed.py

or under pytest for the assertion-only version:

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_speed.py
"""

import json
import os
import pathlib
import time

from repro.sim.system import System
from repro.sweep import SweepJob, run_sweep
from repro.sweep.cache import content_key
from repro.workloads.runner import cell_traces

#: The Fig. 10 cell used for the kernel measurement.  CI smoke runs at
#: reduced scale via ``REPRO_BENCH_SCALE`` (8 cores × 750 at 0.25, the
#: cell the stats pin test covers).
BENCHMARK = "barnes"
POLICY = "370-SLFSoS-key"
CORES = 8
_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
LENGTH = max(200, int(3000 * _SCALE))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))

RESULT_FILE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_kernel.json"


def measure(rounds=ROUNDS):
    """Run the kernel cell ``rounds`` times; return the kernel row."""
    traces, warm = cell_traces(BENCHMARK, CORES, LENGTH, 0)
    best = float("inf")
    for _ in range(rounds):
        system = System(traces, POLICY, warm_caches=warm)
        t0 = time.perf_counter()
        stats = system.run()
        best = min(best, time.perf_counter() - t0)
    events = system.engine.events_dispatched
    instructions = stats.total.retired_instructions
    return {
        "benchmark": BENCHMARK,
        "policy": POLICY,
        "cores": CORES,
        "length": LENGTH,
        "events": events,
        "instructions": instructions,
        "seconds": round(best, 4),
        "events_per_sec": round(events / best),
        "instructions_per_sec": round(instructions / best),
        "stats_digest": content_key(stats.to_dict())[:16],
    }


#: 8-job grid for the sweep-runner throughput measurement.
SWEEP_JOBS = [SweepJob(name=name, policy=policy, cores=4,
                       length=max(200, int(1000 * _SCALE)))
              for name in ("fft", "radix", "barnes", "raytrace")
              for policy in ("x86", "370-SLFSoS-key")]
SWEEP_WORKERS = 4
#: Serial and default sweeps run in this many alternating pairs and
#: are compared best against best, as the kernel row takes the best of
#: its rounds.  One pair cannot tell a slow spell of the host (the
#: default pool then takes twice its usual time) from a regression: at
#: CI scale on a 2-CPU host, one pair failed the gate in 3 runs of 5 and
#: the best of 7 passed 10 of 10.
SWEEP_PAIRS = 7


def measure_sweep():
    """Serial vs 4-worker vs default-sized wall clock for 8 uncached
    jobs.

    The fixed-pool speedup only materializes with free cores; the
    recorded ``cpu_count`` lets trajectory tracking interpret the
    number.  The default row (``workers=None``: one worker per CPU,
    in-process on a 1-CPU host) is the no-regression guarantee, so its
    best time must track serial's within timer noise everywhere.
    """
    serial, default = [], []
    for _ in range(SWEEP_PAIRS):
        serial.append(run_sweep(SWEEP_JOBS, workers=1, cache=False))
        default.append(run_sweep(SWEEP_JOBS, cache=False))
    parallel = run_sweep(SWEEP_JOBS, workers=SWEEP_WORKERS, cache=False)
    stats = [[r.stats.to_dict() for r in outcome.results]
             for outcome in serial + default + [parallel]]
    serial_s = min(outcome.elapsed for outcome in serial)
    default_s = min(outcome.elapsed for outcome in default)
    ratio = serial_s / default_s
    return {
        "jobs": len(SWEEP_JOBS),
        "workers": SWEEP_WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "identical_stats": all(run == stats[0] for run in stats),
        "pairs": SWEEP_PAIRS,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel.elapsed, 4),
        "parallel_speedup": round(serial_s / parallel.elapsed, 3),
        # workers=None must never lose to serial (beyond timer noise)
        # on any host.
        "default_mode": default[0].mode,
        "default_workers": default[0].workers,
        "default_seconds": round(default_s, 4),
        "default_vs_serial": round(ratio, 3),
        "not_slower": ratio >= 0.95,
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------

def test_sweep_parallel_throughput():
    result = measure_sweep()
    assert result["identical_stats"], \
        "parallel sweep changed simulation results"
    if result["cpu_count"] >= SWEEP_WORKERS:
        assert result["parallel_speedup"] >= 2.0, result
    assert result["not_slower"], result


# ----------------------------------------------------------------------
# CI smoke: record events/sec for trajectory tracking
# ----------------------------------------------------------------------

def main():
    kernel = measure()
    sweep = measure_sweep()
    report = {"kernel": kernel, "sweep": sweep}
    RESULT_FILE.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not sweep["identical_stats"]:
        raise SystemExit("parallel sweep changed simulation results")
    if not sweep["not_slower"]:
        raise SystemExit("default-sized sweep lost to serial")
    print(f"kernel: {kernel['instructions_per_sec']} instructions/sec "
          f"({kernel['events_per_sec']} events/sec), stats digest "
          f"{kernel['stats_digest']}; sweep: "
          f"{sweep['parallel_speedup']}x with {sweep['workers']} workers "
          f"on {sweep['cpu_count']} CPU(s), default "
          f"({sweep['default_mode']}, {sweep['default_workers']} "
          f"worker(s)) {sweep['default_vs_serial']}x vs serial, best of "
          f"{sweep['pairs']} pairs")


if __name__ == "__main__":
    main()
