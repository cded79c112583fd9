"""Resilience subsystem: deterministic fault injection and runtime
invariant enforcement.

Two layers (see ``docs/RESILIENCE.md``):

* :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` that
  perturbs a run at well-defined hook points (NoC jitter, forced
  evictions, spurious squashes, delayed SB→L1 writes).  A disabled plan
  costs nothing; the same seed always yields the same run.
* :mod:`repro.resilience.invariants` — :func:`check_system` asserts the
  model's own correctness conditions, and :class:`Watchdog` runs them
  periodically plus detects loss of forward progress, turning a hang
  into a structured :class:`DeadlockError`.

The chaos gate (``repro chaos``) that drives both over the litmus
battery is :func:`repro.models.conformance.check_pipelines`: faults may
change *timing*, never *allowed outcomes*.
"""

from repro.resilience.faults import DEFAULT_CHAOS, FaultPlan, FaultSpec
from repro.resilience.invariants import (DeadlockError, InvariantViolation,
                                         Watchdog, check_system,
                                         system_diagnostic)

__all__ = [
    "DEFAULT_CHAOS", "FaultPlan", "FaultSpec",
    "DeadlockError", "InvariantViolation", "Watchdog", "check_system",
    "system_diagnostic",
]
