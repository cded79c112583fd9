"""Chaos-mode conformance gate.

Runs the litmus battery through the cycle-level pipeline *under
injected faults* and diffs the observed outcomes against the abstract
memory models: faults may change **timing**, never **allowed
outcomes**.  Every trial also carries a :class:`~repro.resilience.
invariants.Watchdog`, so a fault that wedges the pipeline surfaces as a
structured error payload instead of a hang.

This is the adversarial version of the conformance tests in
``tests/integration/test_pipeline_conformance.py``: as there
(:func:`repro.litmus.pipeline_runner.check_conformance`), the allowed
sets come from the operational machines
(:func:`repro.litmus.operational.enumerate_outcomes`), which
:mod:`repro.models.conformance` holds equal to the axiomatic engine.

CLI: ``repro chaos --seed 0 --trials 25`` (exit 1 on any violation or
error) — the CI smoke gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.core.policies import POLICY_ORDER
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.pipeline_runner import POLICY_MODEL, run_once
from repro.litmus.tests import ALL_CASES, LitmusCase
from repro.resilience.faults import DEFAULT_CHAOS, FaultPlan, FaultSpec
from repro.resilience.invariants import Watchdog
from repro.sim.config import SystemConfig

ProgressFn = Callable[[str], None]


@dataclass
class ChaosCell:
    """One (litmus case, policy) cell of the chaos grid."""

    case: str
    policy: str
    trials: int
    outcomes: int                      # distinct outcomes observed
    violations: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {"case": self.case, "policy": self.policy,
                "trials": self.trials, "outcomes": self.outcomes,
                "violations": list(self.violations),
                "errors": list(self.errors)}


@dataclass
class ChaosReport:
    """Aggregate result of a :func:`run_chaos` sweep."""

    seed: int
    trials: int
    spec: FaultSpec
    cells: List[ChaosCell] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)

    @property
    def violations(self) -> List[Dict]:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def errors(self) -> List[Dict]:
        return [e for cell in self.cells for e in cell.errors]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def summary(self) -> str:
        lines = [f"chaos: seed={self.seed} trials={self.trials} "
                 f"cells={len(self.cells)} injected={self.injected}"]
        for cell in self.cells:
            status = "ok"
            if cell.violations:
                status = f"{len(cell.violations)} VIOLATION(S)"
            elif cell.errors:
                status = f"{len(cell.errors)} error(s)"
            lines.append(f"  {cell.case:12s} {cell.policy:16s} "
                         f"{cell.outcomes} outcome(s)  {status}")
        verdict = ("all outcomes allowed by the memory models"
                   if self.ok else
                   f"{len(self.violations)} violation(s), "
                   f"{len(self.errors)} error(s)")
        lines.append(f"chaos: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "trials": self.trials,
                "spec": self.spec.to_dict(), "ok": self.ok,
                "injected": dict(self.injected),
                "cells": [cell.to_dict() for cell in self.cells]}


def run_chaos(trials: int = 25, seed: int = 0,
              spec: FaultSpec = DEFAULT_CHAOS,
              cases: Sequence[LitmusCase] = ALL_CASES,
              policies: Sequence[str] = tuple(POLICY_ORDER),
              config: Optional[SystemConfig] = None,
              watchdog_period: int = 2_000,
              stall_limit: int = 250_000,
              max_cycles: int = 4_000_000,
              progress: Optional[ProgressFn] = None) -> ChaosReport:
    """The chaos gate: ``trials`` faulted runs of every (case, policy)
    cell.  Each trial uses a distinct derived seed for both the timing
    padding and the fault plan, so the whole sweep is reproducible from
    ``seed`` alone."""
    report = ChaosReport(seed=seed, trials=trials, spec=spec)
    allowed_cache: Dict[tuple, FrozenSet] = {}
    totals: Dict[str, int] = {}
    for case in cases:
        name = case.program.name
        for policy in policies:
            model = POLICY_MODEL[policy]
            allowed = allowed_cache.get((name, model))
            if allowed is None:
                allowed = enumerate_outcomes(case.program, model)
                allowed_cache[(name, model)] = allowed
            cell = ChaosCell(case=name, policy=policy, trials=trials,
                             outcomes=0)
            observed = set()
            for trial in range(trials):
                run_seed = seed * 100_003 + trial
                plan = FaultPlan(spec, seed=run_seed)
                watchdog = Watchdog(period=watchdog_period,
                                    stall_limit=stall_limit)
                try:
                    outcome = run_once(case.program, policy, seed=run_seed,
                                       config=config, faults=plan,
                                       watchdog=watchdog,
                                       max_cycles=max_cycles)
                except Exception as exc:
                    payload = {"trial": trial, "seed": run_seed,
                               "type": type(exc).__name__,
                               "message": str(exc)}
                    diagnostic = getattr(exc, "diagnostic", None)
                    if diagnostic is not None:
                        payload["diagnostic"] = diagnostic
                    cell.errors.append(payload)
                    continue
                for kind, count in plan.injected.items():
                    totals[kind] = totals.get(kind, 0) + count
                observed.add(outcome)
                if outcome not in allowed:
                    cell.violations.append(
                        {"trial": trial, "seed": run_seed,
                         "outcome": repr(outcome),
                         "injected": dict(plan.injected)})
            cell.outcomes = len(observed)
            report.cells.append(cell)
            if progress is not None:
                status = ("ok" if not cell.violations and not cell.errors
                          else f"{len(cell.violations)} violations, "
                               f"{len(cell.errors)} errors")
                progress(f"chaos: {name}/{policy}: "
                         f"{cell.outcomes} outcome(s), {status}")
    report.injected = totals
    return report
