"""One conformance check: the axiomatic engine against the operational
machines, and the pipelines against the models.

Every registered model with an axiomatic definition has two independent
formalizations here: the relation engine (:mod:`repro.models.axiomatic`
— candidate executions, ppo/grf predicates, cycle detection) and an
operational machine (:mod:`repro.litmus.operational` — state-space
exploration in the style of Zhang et al.'s I2E framework, no relations
at all).  :func:`check` holds them to each other on every program it is
given:

1. **agreement** — for every axiomatic model, the axiomatic allowed set
   equals the machine's; each disagreement is rendered with the
   communication chain of its cycle (:func:`repro.litmus.explain
   .explain_chain`), so a report names the relation in dispute;
2. **containment** — along every transitive lattice edge
   (:func:`repro.models.lattice.lattice_edges`), the strong model's
   operational set is a subset of the weak model's, which covers the
   operational-only PC as well.

``repro zoo``, ``repro lint --litmus``, ``repro synth`` (its check and
the ``--promote`` refusal) and the test suite all call :func:`check`,
fed by :func:`battery_corpus` and :func:`random_corpus`.

Its sibling :func:`check_pipelines` holds the *implementations* to the
same machines: each program runs many times on the five pipelines, with
seeded timing padding, a fault plan and a watchdog, and every observed
outcome must be allowed by the configuration's model — the paper's
correctness claim, end to end.  ``repro chaos``, the conformance bench
and the pipeline tests call it; :func:`check` never runs the pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.policies import POLICY_ORDER
from repro.litmus.battery import EXTRA_CASES
from repro.litmus.checker import random_program
from repro.litmus.explain import explain_chain, outcome_conditions
from repro.litmus.generated import GENERATED_CASES
from repro.litmus.pipeline_runner import compile_program, run_once
from repro.litmus.program import Outcome, Program
from repro.litmus.tests import ALL_CASES, LitmusCase
from repro.models import get_model, model_names
from repro.models.axiomatic import outcome_profile
from repro.models.lattice import (LatticeViolation, containment_violations,
                                  lattice_edges)
from repro.resilience.faults import DEFAULT_CHAOS, FaultPlan, FaultSpec
from repro.resilience.invariants import Watchdog

#: Which abstract model each pipeline configuration must conform to.
POLICY_MODEL = {policy: "x86" if policy == "x86" else "370"
                for policy in POLICY_ORDER}

#: The watchdog of every pipeline run: an invariant sweep and progress
#: check every ``WATCHDOG_PERIOD`` cycles, a wedge reported once no core
#: retires anything for ``STALL_LIMIT`` cycles.  Battery runs last about
#: 200-950 cycles, so the period is short enough to sweep every run
#: mid-flight (a period past a run's end would never sweep it).
WATCHDOG_PERIOD = 100
STALL_LIMIT = 250_000


@dataclass
class ProgramReport:
    """One program's verdict: per-model operational outcome counts, the
    axiomatic-vs-operational disagreements of each disagreeing model,
    and the lattice violations."""

    name: str
    counts: Dict[str, int] = field(default_factory=dict)
    disagreements: Dict[str, List[str]] = field(default_factory=dict)
    violations: List[LatticeViolation] = field(default_factory=list)

    @property
    def mismatches(self) -> List[str]:
        return [m for found in self.disagreements.values() for m in found]

    @property
    def agree(self) -> bool:
        return not self.disagreements and not self.violations

    def to_dict(self) -> Dict:
        return {"name": self.name, "counts": dict(self.counts),
                "agree": self.agree, "mismatches": self.mismatches,
                "violations": [v.to_dict() for v in self.violations]}


@dataclass
class ConformanceReport:
    """The verdicts of one :func:`check` call."""

    programs: List[ProgramReport] = field(default_factory=list)
    edges: Tuple[Tuple[str, str], ...] = field(default_factory=lattice_edges)

    @property
    def programs_checked(self) -> int:
        return len(self.programs)

    @property
    def mismatches(self) -> List[str]:
        return [m for report in self.programs for m in report.mismatches]

    @property
    def violations(self) -> List[LatticeViolation]:
        return [v for report in self.programs for v in report.violations]

    @property
    def problems(self) -> List[str]:
        """Every mismatch and lattice violation, rendered."""
        return self.mismatches + [f"{v.program}: {v.describe()}"
                                  for v in self.violations]

    @property
    def ok(self) -> bool:
        return bool(self.programs) and \
            all(report.agree for report in self.programs)

    def summary(self) -> str:
        edges = ", ".join(f"{s}⊆{w}" for s, w in self.edges)
        status = "OK" if self.ok else \
            (f"{len(self.mismatches)} mismatches, "
             f"{len(self.violations)} lattice violations")
        return (f"conformance check: {self.programs_checked} programs × "
                f"[{edges}] — {status}")

    def to_dict(self) -> Dict:
        return {"programs_checked": self.programs_checked,
                "edges": [list(edge) for edge in self.edges],
                "ok": self.ok,
                "mismatches": self.mismatches,
                "violations": [v.to_dict() for v in self.violations]}


def _disagreement(program: Program, model: str, outcome: Outcome,
                  allows: str, forbids: str) -> str:
    line = (f"{program.name}: {allows} allows [{outcome}] which "
            f"{forbids} forbids under {model}")
    chain = explain_chain(program, model, **outcome_conditions(outcome))
    return f"{line}\n{chain}" if chain else line


def _check_program(program: Program) -> ProgramReport:
    """Agreement for every axiomatic model plus lattice containment on
    the operational sets, for one program."""
    operational = {model: get_model(model).enumerate(program)
                   for model in model_names()}
    report = ProgramReport(
        name=program.name,
        counts={model: len(found) for model, found in operational.items()},
        violations=containment_violations(operational, program.name))
    for model, allowed in outcome_profile(program).items():
        machine = operational[model]
        found = [_disagreement(program, model, outcome,
                               "axiomatic", "operational")
                 for outcome in sorted(allowed - machine, key=str)]
        found += [_disagreement(program, model, outcome,
                                "operational", "axiomatic")
                  for outcome in sorted(machine - allowed, key=str)]
        if found:
            report.disagreements[model] = found
    return report


def check(programs: Iterable[Program]) -> ConformanceReport:
    """The conformance check over ``programs``, one report each."""
    return ConformanceReport(
        programs=[_check_program(program) for program in programs])


def battery_corpus() -> List[LitmusCase]:
    """Every battery case: the paper's tests, the extra hand-written
    cases and the synthesized (generated) ones."""
    return list(ALL_CASES) + list(EXTRA_CASES) + list(GENERATED_CASES)


def random_corpus(count: int, seed: int, **vocabulary) -> List[Program]:
    """``count`` seeded random programs; ``vocabulary`` forwards to
    :func:`repro.litmus.checker.random_program` (``threads``,
    ``max_ops``, ``allow_fences``, ``allow_rmws``, ``allow_acqrel``)."""
    rng = random.Random(seed)
    return [random_program(rng, name=f"random-{seed}-{index}", **vocabulary)
            for index in range(count)]


@dataclass
class PipelineCell:
    """One (program, configuration) cell of :func:`check_pipelines`:
    the outcomes the pipeline produced, the outcomes the
    configuration's model allows, and every run that produced a
    disallowed outcome (``violations``) or failed (``errors``)."""

    case: str
    policy: str
    trials: int
    observed: Set[Outcome]
    allowed: FrozenSet[Outcome]
    violations: List[Dict] = field(default_factory=list)
    errors: List[Dict] = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.violations:
            return f"{len(self.violations)} VIOLATION(S)"
        if self.errors:
            return f"{len(self.errors)} error(s)"
        return "ok"

    def to_dict(self) -> Dict:
        return {"case": self.case, "policy": self.policy,
                "trials": self.trials, "outcomes": len(self.observed),
                "allowed": len(self.allowed),
                "violations": list(self.violations),
                "errors": list(self.errors)}


@dataclass
class PipelineReport:
    """The verdicts of one :func:`check_pipelines` call, the programs
    it skipped (name -> why the pipeline cannot express them), the
    faults injected over all runs, per mechanism, and the watchdog's
    invariant sweeps summed over all runs."""

    seed: int
    trials: int
    spec: FaultSpec
    cells: List[PipelineCell] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    invariant_checks: int = 0

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
        lines = [f"pipeline check: seed={self.seed} trials={self.trials} "
                 f"cells={len(self.cells)} skipped={len(self.skipped)} "
                 f"injected={self.injected} "
                 f"invariant_checks={self.invariant_checks}"]
        for cell in self.cells:
            lines.append(f"  {cell.case:24s} {cell.policy:16s} "
                         f"{len(cell.observed)}/{len(cell.allowed)} "
                         f"outcome(s)  {cell.status}")
        for name, reason in self.skipped.items():
            lines.append(f"  {name:24s} skipped: {reason}")
        verdict = ("all outcomes allowed by the memory models"
                   if self.ok else
                   f"{len(self.violations)} violation(s), "
                   f"{len(self.errors)} error(s)")
        lines.append(f"pipeline check: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "trials": self.trials,
                "spec": self.spec.to_dict(), "ok": self.ok,
                "injected": dict(self.injected),
                "invariant_checks": self.invariant_checks,
                "skipped": dict(self.skipped),
                "cells": [cell.to_dict() for cell in self.cells]}


def _check_cell(program: Program, policy: str, allowed: FrozenSet[Outcome],
                report: PipelineReport, max_cycles: int) -> PipelineCell:
    """``report.trials`` runs of one cell, each with its own fault plan
    and watchdog; adds the injected counts to ``report.injected`` and
    the watchdog's sweeps to ``report.invariant_checks``."""
    cell = PipelineCell(program.name, policy, report.trials, set(), allowed)
    for trial in range(report.trials):
        run_seed = report.seed * 100_003 + trial
        plan = FaultPlan(report.spec, seed=run_seed)
        watchdog = Watchdog(WATCHDOG_PERIOD, STALL_LIMIT)
        try:
            outcome = run_once(program, policy, seed=run_seed, faults=plan,
                               watchdog=watchdog, max_cycles=max_cycles)
        except Exception as exc:
            error = {"trial": trial, "seed": run_seed,
                     "type": type(exc).__name__, "message": str(exc)}
            diagnostic = getattr(exc, "diagnostic", None)
            if diagnostic is not None:
                error["diagnostic"] = diagnostic
            cell.errors.append(error)
            continue
        finally:
            report.invariant_checks += watchdog.checks_run
        for kind, count in plan.injected.items():
            report.injected[kind] = report.injected.get(kind, 0) + count
        cell.observed.add(outcome)
        if outcome not in allowed:
            cell.violations.append({"trial": trial, "seed": run_seed,
                                    "outcome": repr(outcome),
                                    "injected": dict(plan.injected)})
    return cell


def check_pipelines(programs: Iterable[Program],
                    policies: Sequence[str] = tuple(POLICY_ORDER),
                    trials: int = 25, seed: int = 0,
                    spec: FaultSpec = DEFAULT_CHAOS,
                    max_cycles: int = 4_000_000,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> PipelineReport:
    """The pipeline check over ``programs``: ``trials`` runs of every
    (program, configuration) cell, every observed outcome held to the
    configuration's model (:data:`POLICY_MODEL`).

    Run ``trial`` uses the seed ``seed * 100_003 + trial`` for both its
    timing padding and its fault plan, so the check is reproducible
    from ``seed`` alone; ``spec=FaultSpec()`` runs without faults.  A
    program the pipeline cannot express is listed under
    ``report.skipped``; a run that fails (cycle budget, deadlock,
    invariant) is a structured error of its cell, never an exception.
    """
    report = PipelineReport(seed=seed, trials=trials, spec=spec)
    for program in programs:
        try:
            compile_program(program)
        except ValueError as exc:
            report.skipped[program.name] = str(exc)
            continue
        allowed: Dict[str, FrozenSet[Outcome]] = {}
        for policy in policies:
            model = POLICY_MODEL[policy]
            if model not in allowed:
                allowed[model] = get_model(model).enumerate(program)
            cell = _check_cell(program, policy, allowed[model], report,
                               max_cycles)
            report.cells.append(cell)
            if progress is not None:
                progress(f"{cell.case}/{policy}: {len(cell.observed)}/"
                         f"{len(cell.allowed)} outcome(s), {cell.status}")
    return report
