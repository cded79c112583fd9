"""Host-speed probe.

The benchmark's host is a share of a larger machine, and each of its
CPUs changes speed by itself: a fixed pure-Python loop takes anywhere
from 1x to 2x its fastest time, in spells of seconds to minutes, one CPU
independently of the other.  The guest sees no steal time (CPU time
stretches with wall time), so ten runs of the same code spread by up to
a third, and a run that lands in a slow spell reads as a regression.

``Probe`` runs this file as a child process for the length of a run.
Every ``PERIOD_S / n`` seconds, where n is the number of CPUs the
benchmark process may use, the child moves itself to the next of those
CPUs and times a fixed pure-Python loop there by its own CPU time: so
waiting for the CPU does not count, only how fast the CPU runs once it
has it.  Each CPU is sampled once per ``PERIOD_S``, at about 3% of its
time.  A workload that runs on one CPU pins itself (``pinned``), so the
probe samples exactly the CPU its work runs on.

The workloads mark the windows they measure.  The slowness of a set of
windows is the mean loop time of the samples taken inside them, on the
CPUs the benchmark process could use then, over ``REFERENCE_S``; each
time metric is the measured time divided by the slowness of its
windows.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Tuple

PERIOD_S = 0.05
WARM_LOOPS = 1000
LOOPS = 8000
#: Probe-loop CPU seconds on an idle CPU in a fast spell of the 2-vCPU
#: host the bounds were set on (Intel Xeon, 2.1 GHz, Python 3.11).
REFERENCE_S = 0.001


def probe_loop(n: int) -> int:
    """Fixed interpreter work: a dict, arithmetic and a branch mix, like
    the simulator's inner loops."""
    table = {}
    acc = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        if acc & 1:
            acc ^= (i * 31) >> 3
        else:
            acc += i
    return acc


def sample() -> float:
    """CPU seconds of ``LOOPS`` iterations, after a short untimed run
    that brings the loop back into the CPU's caches."""
    probe_loop(WARM_LOOPS)
    t0 = time.thread_time()
    probe_loop(LOOPS)
    return time.thread_time() - t0


def _child(parent: int) -> None:
    """Sample the parent's CPUs in turn until the parent writes a line
    or closes our stdin, then print ``[[monotonic start, cpu, loop
    seconds], ...]`` as one JSON line."""
    samples: List[Tuple[float, int, float]] = []
    turn = 0
    cpus = sorted(os.sched_getaffinity(parent))
    while not select.select([sys.stdin], [], [], PERIOD_S / len(cpus))[0]:
        try:
            cpus = sorted(os.sched_getaffinity(parent))
        except OSError:           # the parent is gone
            break
        cpu = cpus[turn % len(cpus)]
        turn += 1
        os.sched_setaffinity(0, {cpu})
        samples.append((time.monotonic(), cpu, sample()))
    sys.stdout.write(json.dumps(samples) + "\n")
    sys.stdout.flush()


@contextlib.contextmanager
def pinned():
    """Run the block, and the processes it starts, on one CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Probe:
    """Context manager: the probe child runs until ``stop()`` or the end
    of the block.  ``window(name)`` marks a measured stretch;
    ``slowness(name)`` is read after ``stop()``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, int, float]] = []
        self.windows: Dict[str, List[Tuple[float, float, frozenset]]] = {}
        self.proc = None

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.samples = [tuple(s) for s in json.loads(out)]

    @contextlib.contextmanager
    def window(self, name: str):
        cpus = frozenset(os.sched_getaffinity(0))
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.windows.setdefault(name, []).append(
                (t0, time.monotonic(), cpus))

    def slowness(self, name: str) -> float:
        """Mean probe-loop time over ``REFERENCE_S`` for the samples
        taken inside the ``name`` windows on those windows' CPUs; all
        samples of the run if the windows were too short to hold one."""
        spans = self.windows.get(name, [])
        inside = [s for t, cpu, s in self.samples
                  if any(a <= t <= b and cpu in cpus
                         for a, b, cpus in spans)]
        chosen = inside or [s for _, _, s in self.samples]
        if not chosen:
            raise RuntimeError("the speed probe took no samples")
        return sum(chosen) / len(chosen) / REFERENCE_S


if __name__ == "__main__":
    if sys.argv[1:2] != ["--child"] or len(sys.argv) != 3:
        sys.exit("usage: speed.py --child PARENT_PID (started by Probe)")
    _child(int(sys.argv[2]))
