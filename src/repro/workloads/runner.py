"""A cell's inputs and its result: what every cell entry point shares.

A cell is one benchmark profile under one consistency configuration,
measured after a warm-up workload.  Cells run as
:class:`repro.sweep.SweepJob`s through
:func:`repro.sweep.runner.execute_job` or :func:`repro.sweep.run_sweep`;
this module holds what they share: the resolved length and the traces
(:func:`cell_traces`), the :class:`BenchmarkResult` a sweep returns per
cell, and the normalization helpers of Figs. 9 and 10.  Instruction
counts scale with the ``REPRO_SCALE`` environment variable (1.0 = the
defaults used in EXPERIMENTS.md; smaller for quick runs).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.isa import Trace
from repro.sim.stats import SystemStats
from repro.workloads.profiles import (PARALLEL_PROFILES, SEQUENTIAL_PROFILES,
                                      get_profile)
from repro.workloads.synthetic import generate_warmup, generate_workload

#: Default measured instructions per core (scaled by REPRO_SCALE).
DEFAULT_LENGTH_PARALLEL = 3_000
DEFAULT_LENGTH_SEQUENTIAL = 12_000
DEFAULT_CORES = 8


def resolved_length(name: str, length: Optional[int] = None) -> int:
    """The per-core instruction count a job with ``length`` actually
    runs — the suite default scaled by ``REPRO_SCALE`` when ``length``
    is None.  The sweep cache keys on this resolved value, so the same
    workload is shared across ways of naming it."""
    if length is not None:
        return length
    base = (DEFAULT_LENGTH_SEQUENTIAL
            if get_profile(name).suite == "sequential"
            else DEFAULT_LENGTH_PARALLEL)
    factor = float(os.environ.get("REPRO_SCALE", "1.0"))
    return max(500, int(base * factor))


def cell_traces(name: str, cores: int, length: Optional[int], seed: int,
                memdep_hints: bool = True
                ) -> Tuple[List[Trace], List[Trace]]:
    """The (traces, warm-up traces) a cell of ``name`` runs on, at the
    resolved length (:func:`resolved_length`).

    Every cell entry point — :func:`repro.sweep.runner.execute_job`,
    the sweep's trace units, ``repro bench``/``trace``/``record`` —
    builds its inputs here, so the five policies of a Fig. 10 row run
    on identical traces however they are reached.
    ``memdep_hints=False`` strips the profile's memory-dependence hints
    (a cold StoreSet; the ablation bench's variant).
    """
    profile = get_profile(name)
    n = resolved_length(name, length)
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
