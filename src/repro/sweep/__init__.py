"""Parallel, cached sweep runner for (benchmark × policy) experiments.

The evaluation figures (Fig. 9 / Fig. 10 / Table IV) are grids of
deterministic simulations whose rows share traces: a benchmark's
policies run on identical inputs.  This package fans *trace units* —
the cells that share a trace specification, generated once per unit —
across worker processes and memoizes each cell's
:class:`~repro.sim.stats.SystemStats` on disk, keyed by a content hash
of everything that can change the answer: the trace specification, the
system configuration, the policy, and the simulator source itself.

Entry points:

* :class:`SweepJob` — one cell of the grid.
* :func:`run_sweep` — execute a batch of jobs; returns results in input
  order regardless of completion order (the engine is deterministic, so
  every cell equals its job run alone, serially or in parallel).
* ``python -m repro sweep`` — the CLI front end.
"""

from repro.sweep.cache import ResultCache, code_version
from repro.sweep.runner import SweepJob, SweepOutcome, job_key, run_sweep

__all__ = [
    "ResultCache",
    "SweepJob",
    "SweepOutcome",
    "code_version",
    "job_key",
    "run_sweep",
]
