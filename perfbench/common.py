"""Shared pieces of the benchmark: inputs, statistics, set-up timing,
memory and the host stamp.

Nothing here imports ``repro`` at module level, so ``run.py`` can pin
the environment before the program is first imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: The Fig. 10 sample suite: 8 parallel and 8 sequential benchmarks.
#: The benchmark keeps its own copy so that edits to the test-suite
#: helpers cannot change what is measured.
SAMPLE_PARALLEL = ("barnes", "blackscholes", "dedup", "fft", "radix",
                   "raytrace", "water_spatial", "x264")
SAMPLE_SEQUENTIAL = ("500.perlbench_2", "502.gcc_1", "503.bwaves_1",
                     "505.mcf", "511.povray", "519.lbm", "527.cam4",
                     "557.xz_1")
SAMPLE = SAMPLE_PARALLEL + SAMPLE_SEQUENTIAL

#: The paper's five configurations, x86 (the baseline) first.
POLICIES = ("x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS",
            "370-SLFSoS-key")
KEY_POLICY = "370-SLFSoS-key"

#: Environment variables the program reads that would change what a run
#: measures; workload processes run with all of them unset.
UNSET_VARS = ("REPRO_SCALE", "REPRO_WORKERS", "REPRO_POOL_SPAWN_COST",
              "REPRO_SWEEP_CACHE", "REPRO_SWEEP_CACHE_MAX", "REPRO_SUITE")

#: ``--seconds`` at which every workload runs at its full size; smaller
#: values shrink the work in proportion (the smoke test uses 1).
FULL_SECONDS = 30


def pin_environment(src: str, pycache: str) -> None:
    """Unset the program's tuning variables, turn strict mode off (the
    test suite turns it on, which adds an invariant sweep after every
    run) and point child processes at this checkout's sources.

    Bytecode is written, under ``pycache``, whatever the caller's
    environment says: with ``PYTHONDONTWRITEBYTECODE`` set every launch
    would compile the program from source, and ``setup_s`` would
    measure the compiler."""
    for var in UNSET_VARS + ("PYTHONDONTWRITEBYTECODE",):
        os.environ.pop(var, None)
    os.environ["REPRO_STRICT"] = "0"
    os.environ["PYTHONPATH"] = src
    os.environ["PYTHONPYCACHEPREFIX"] = pycache
    sys.dont_write_bytecode = False
    sys.pycache_prefix = pycache


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], pct: int) -> float:
    """Linear-interpolated percentile (``pct`` in 1..99)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return float(data[0])
    return statistics.quantiles(data, n=100, method="inclusive")[pct - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payloads: Iterable) -> str:
    """SHA-256 over canonically encoded payloads, in the given order."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical(payload).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# accuracy against the paper
# ----------------------------------------------------------------------

def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig10_err(cycles: Dict[tuple, int]) -> float:
    """Mean |simulated - paper| over the (suite, non-x86 policy) suite
    geomeans of execution time normalised to x86.

    ``cycles`` maps ``(benchmark, policy, trace_seed)`` to execution
    cycles.  Only groups that have all five policies count; returns 0.0
    when the workload simulates no such group.
    """
    from repro.workloads.profiles import get_profile
    from repro.workloads.tableiv import FIGURE10_GEOMEAN

    ratios: Dict[tuple, List[float]] = {}
    groups = {(name, seed) for name, _policy, seed in cycles}
    for name, seed in sorted(groups):
        if not all((name, p, seed) in cycles for p in POLICIES):
            continue
        suite = get_profile(name).suite
        base = cycles[(name, "x86", seed)]
        for policy in POLICIES[1:]:
            ratios.setdefault((suite, policy), []).append(
                cycles[(name, policy, seed)] / base)
    errors = [abs(geomean(vals) - FIGURE10_GEOMEAN[suite][policy])
              for (suite, policy), vals in sorted(ratios.items())]
    return sum(errors) / len(errors) if errors else 0.0


def stall_cycles_err(key_totals: Dict[tuple, "object"]) -> tuple:
    """Mean |ln(simulated / Table IV)| of cycles per gate stall under
    370-SLFSoS-key, over cells whose paper value and simulated value are
    both nonzero.  ``key_totals`` maps ``(benchmark, trace_seed)`` to the
    cell's summed ``CoreStats``.  Returns ``(error, cells_compared)``."""
    from repro.workloads.tableiv import all_rows

    rows = all_rows()
    terms = []
    for (name, _seed), total in sorted(key_totals.items()):
        paper = rows[name].avg_stall_cycles
        sim = total.avg_gate_stall_cycles
        if paper > 0 and sim > 0:
            terms.append(abs(math.log(sim / paper)))
    return (sum(terms) / len(terms) if terms else 0.0), len(terms)


# ----------------------------------------------------------------------
# processes, memory, scratch space
# ----------------------------------------------------------------------

def time_launch(code: str, cwd: str) -> float:
    """Seconds from starting a fresh interpreter running ``code`` to its
    exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def launch_times(code: str, cwd: str, launches: int) -> List[float]:
    """Launch-to-exit seconds of ``launches`` interpreters running
    ``code``.  ``setup_s`` is the median of two such batches, one before
    and one after the measured work, so that it spans the run."""
    return [time_launch(code, cwd) for _ in range(launches)]


def end_to_end(probe, setup: Sequence[float], wall: float,
               latencies_ms: Sequence[float], instr: int, peak_rss: float,
               summary: Dict,
               latency_windows: Optional[Sequence[str]] = None
               ) -> Dict[str, float]:
    """The end-to-end metrics at the reference host speed: each time is
    divided by the speed probe's slowness over the windows it was measured
    in ("setup" for ``setup_s``, "work" for the rest; see ``speed.py``).
    ``latency_windows`` names a window of its own for each latency, for
    latencies long enough to hold many probe samples.  The raw times and
    the slowness go into ``summary``."""
    slow_setup = probe.slowness("setup")
    slow_work = probe.slowness("work")
    wall_ref = wall / slow_work
    if latency_windows is None:
        latencies_ref = [t / slow_work for t in latencies_ms]
    else:
        latencies_ref = [t / probe.slowness(name)
                         for t, name in zip(latencies_ms, latency_windows)]
    summary["host_speed"] = {
        "setup_slowness": round(slow_setup, 4),
        "work_slowness": round(slow_work, 4),
        "probe_samples": len(probe.samples),
        "raw_setup_s": round(median(setup), 4),
        "raw_wall_s": round(wall, 3),
        "raw_job_p50_ms": round(percentile(latencies_ms, 50), 2),
        "raw_job_p90_ms": round(percentile(latencies_ms, 90), 2),
    }
    return {
        "setup_s": median(setup) / slow_setup,
        "wall_s": wall_ref,
        "sim_kips": instr / wall_ref / 1000.0,
        "job_p50_ms": percentile(latencies_ref, 50),
        "job_p90_ms": percentile(latencies_ref, 90),
        "peak_rss_mb": peak_rss,
    }


def trace_overhead(probe, plain_s: float, traced_s: float) -> float:
    """Traced over untraced time of the same work, each at the reference
    speed of its probe window ("plain", "traced"), minus 1."""
    probe.stop()
    return ((traced_s / probe.slowness("traced"))
            / (plain_s / probe.slowness("plain")) - 1.0)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@contextlib.contextmanager
def scratch_dir(root: str, prefix: str):
    """A fresh directory under ``root`` (inside the checkout), removed on
    exit."""
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# host stamp
# ----------------------------------------------------------------------

def _git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_stamp(root: str) -> Dict:
    from repro.sweep.cache import code_version

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "code_version": code_version()[:16],
    }


def loadavg() -> float:
    return round(os.getloadavg()[0], 2)
