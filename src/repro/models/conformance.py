"""One conformance check: the axiomatic engine against the operational
machines.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.litmus.battery import EXTRA_CASES
from repro.litmus.checker import random_program
from repro.litmus.explain import explain_chain, outcome_conditions
from repro.litmus.generated import GENERATED_CASES
from repro.litmus.program import Outcome, Program
from repro.litmus.tests import ALL_CASES, LitmusCase
from repro.models import get_model, model_names
from repro.models.axiomatic import outcome_profile
from repro.models.lattice import (LatticeViolation, containment_violations,
                                  lattice_edges)


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
