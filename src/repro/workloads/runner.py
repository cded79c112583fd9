"""Benchmark runner: the evaluation-section driver.

Runs Table IV / Figure 9 / Figure 10 style experiments: a named
benchmark profile under one or all five consistency configurations, with
a warm-up workload installed first.  Instruction counts scale with the
``REPRO_SCALE`` environment variable (1.0 = the defaults used in
EXPERIMENTS.md; smaller for quick runs).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import POLICY_ORDER
from repro.cpu.isa import Trace
from repro.sim.config import SystemConfig
from repro.sim.stats import SystemStats
from repro.sim.system import simulate
from repro.workloads.profiles import (PARALLEL_PROFILES, SEQUENTIAL_PROFILES,
                                      BenchmarkProfile, get_profile)
from repro.workloads.synthetic import generate_warmup, generate_workload

#: Default measured instructions per core (scaled by REPRO_SCALE).
DEFAULT_LENGTH_PARALLEL = 3_000
DEFAULT_LENGTH_SEQUENTIAL = 12_000
DEFAULT_CORES = 8


def scale() -> float:
    """Global scale factor for benchmark instruction counts."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _length_for(profile: BenchmarkProfile,
                length: Optional[int]) -> int:
    if length is not None:
        return length
    base = (DEFAULT_LENGTH_SEQUENTIAL if profile.suite == "sequential"
            else DEFAULT_LENGTH_PARALLEL)
    return max(500, int(base * scale()))


def resolved_length(name: str, length: Optional[int] = None) -> int:
    """The per-core instruction count a job with ``length`` actually
    runs — the suite default scaled by ``REPRO_SCALE`` when ``length``
    is None.  The sweep cache keys on this resolved value, so the same
    workload is shared across ways of naming it."""
    return _length_for(get_profile(name), length)


def cell_traces(name: str, cores: int, length: Optional[int], seed: int,
                memdep_hints: bool = True
                ) -> Tuple[List[Trace], List[Trace]]:
    """The (traces, warm-up traces) a cell of ``name`` runs on, at the
    resolved length (:func:`resolved_length`).

    Every cell entry point — these runners, the sweep's trace units,
    ``repro record`` — builds its inputs here, so the five policies of a
    Fig. 10 row run on identical traces however they are reached.
    ``memdep_hints=False`` strips the profile's memory-dependence hints
    (a cold StoreSet; the ablation bench's variant).
    """
    profile = get_profile(name)
    n = _length_for(profile, length)
    traces = generate_workload(profile, cores, n, seed)
    warm = generate_warmup(profile, cores, n, seed)
    if not memdep_hints:
        for trace in traces:
            trace.memdep_hints = []
    return traces, warm


@dataclass
class BenchmarkResult:
    """One (benchmark, policy) measurement."""

    name: str
    suite: str
    policy: str
    stats: SystemStats

    @property
    def cycles(self) -> int:
        return self.stats.execution_cycles


def run_benchmark(name: str, policy: str = "370-SLFSoS-key",
                  cores: int = DEFAULT_CORES,
                  length: Optional[int] = None, seed: int = 0,
                  config: Optional[SystemConfig] = None,
                  detect_violations: bool = False) -> BenchmarkResult:
    """Run one benchmark profile under one policy (with warm-up)."""
    traces, warm = cell_traces(name, cores, length, seed)
    stats = simulate(traces, policy, config=config, warm_caches=warm,
                     detect_violations=detect_violations)
    return BenchmarkResult(name, get_profile(name).suite, policy, stats)


def observe_benchmark(name: str, policy: str = "370-SLFSoS-key",
                      cores: int = DEFAULT_CORES,
                      length: Optional[int] = None, seed: int = 0,
                      config: Optional[SystemConfig] = None,
                      trace_pipeline: bool = False,
                      sample_interval: int = 64):
    """Run one benchmark with the observability layer attached.

    Returns ``(result, report, system)``: the usual
    :class:`BenchmarkResult`, the :class:`repro.obs.session.ObsReport`,
    and the finished system (whose tracers feed the Chrome exporter when
    ``trace_pipeline`` is on).
    """
    from repro.obs.session import observe_run

    traces, warm = cell_traces(name, cores, length, seed)
    stats, report, system = observe_run(
        traces, policy, config=config, warm_caches=warm,
        trace_pipeline=trace_pipeline, sample_interval=sample_interval)
    return (BenchmarkResult(name, get_profile(name).suite, policy, stats),
            report, system)


def run_policy_sweep(name: str, policies: Sequence[str] = POLICY_ORDER,
                     cores: int = DEFAULT_CORES,
                     length: Optional[int] = None, seed: int = 0,
                     config: Optional[SystemConfig] = None
                     ) -> Dict[str, BenchmarkResult]:
    """Run one benchmark under several policies on identical traces."""
    suite = get_profile(name).suite
    traces, warm = cell_traces(name, cores, length, seed)
    results: Dict[str, BenchmarkResult] = {}
    for policy in policies:
        stats = simulate(traces, policy, config=config, warm_caches=warm)
        results[policy] = BenchmarkResult(name, suite, policy, stats)
    return results


def normalized_times(results: Dict[str, BenchmarkResult],
                     baseline: str = "x86") -> Dict[str, float]:
    """Execution time of each policy normalized to the baseline."""
    base = results[baseline].cycles
    return {policy: result.cycles / base
            for policy, result in results.items()}


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def suite_names(suite: str) -> List[str]:
    if suite == "parallel":
        return list(PARALLEL_PROFILES)
    if suite == "sequential":
        return list(SEQUENTIAL_PROFILES)
    raise ValueError(f"unknown suite {suite!r}")
