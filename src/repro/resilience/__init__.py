"""Resilience subsystem: deterministic fault injection, runtime
invariant enforcement, and the chaos-mode conformance gate.

Three layers (see ``docs/RESILIENCE.md``):

* :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` that
  perturbs a run at well-defined hook points (NoC jitter, forced
  evictions, spurious squashes, delayed SB→L1 writes).  A disabled plan
  costs nothing; the same seed always yields the same run.
* :mod:`repro.resilience.invariants` — :func:`check_system` asserts the
  model's own correctness conditions, and :class:`Watchdog` runs them
  periodically plus detects loss of forward progress, turning a hang
  into a structured :class:`DeadlockError`.
* :mod:`repro.resilience.chaos` — :func:`run_chaos` runs the litmus
  battery through the pipeline under injected faults and diffs observed
  outcomes against the operational models: faults may change *timing*,
  never *allowed outcomes*.
"""

from repro.resilience.faults import DEFAULT_CHAOS, FaultPlan, FaultSpec
from repro.resilience.invariants import (DeadlockError, InvariantViolation,
                                         Watchdog, check_system,
                                         system_diagnostic)
from repro.resilience.chaos import ChaosReport, run_chaos

__all__ = [
    "DEFAULT_CHAOS", "FaultPlan", "FaultSpec",
    "DeadlockError", "InvariantViolation", "Watchdog", "check_system",
    "system_diagnostic",
    "ChaosReport", "run_chaos",
]
