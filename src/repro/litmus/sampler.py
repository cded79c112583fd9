"""litmus7-style sampling of the operational models.

The paper observed the n6 and fig5 witnesses on real hardware "at a
rate of about one in a million" using the litmus7 harness.  This module
provides the analogous experiment on the abstract machines: instead of
exhaustively enumerating outcomes, it random-walks the transition system
many times and reports an outcome histogram — rare relaxed outcomes
appear with low frequency, exactly like hardware sampling (while
:func:`~repro.litmus.operational.enumerate_outcomes` remains the ground
truth for what is *possible*).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Counter as CounterT, Dict

from repro.litmus.operational import MODELS, _matches, machine_for
from repro.litmus.parser import check_witness
from repro.litmus.program import Outcome, Program


@dataclass
class SampleReport:
    """Histogram of outcomes over ``runs`` random walks."""

    program: Program
    model: str
    runs: int
    histogram: CounterT[Outcome]

    def frequency(self, **conditions: int) -> float:
        """Fraction of runs whose outcome satisfies the conditions."""
        check_witness(self.program, conditions)
        hits = sum(count for outcome, count in self.histogram.items()
                   if _matches(outcome, conditions))
        return hits / self.runs if self.runs else 0.0

    def summary(self, top: int = 10) -> str:
        lines = [f"{self.program.name} under {self.model}: "
                 f"{len(self.histogram)} distinct outcomes in "
                 f"{self.runs} runs"]
        for outcome, count in sorted(self.histogram.items(),
                                     key=lambda kv: -kv[1])[:top]:
            lines.append(f"  {count / self.runs:9.5f}  {outcome}")
        return "\n".join(lines)


def _walk(program: Program, model: str, rng: random.Random) -> Outcome:
    machine = machine_for(program, model)
    state = machine.initial()
    while True:
        outcome = machine.final_outcome(state)
        if outcome is not None:
            return outcome
        nexts = machine.successors(state)
        if not nexts:
            raise RuntimeError(  # pragma: no cover - machines terminate
                "operational machine wedged")
        state = rng.choice(nexts)


def sample(program: Program, model: str, runs: int = 10_000,
           seed: int = 0) -> SampleReport:
    """Random-walk ``runs`` executions and histogram the outcomes."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    rng = random.Random(seed)
    histogram: CounterT[Outcome] = Counter()
    for _ in range(runs):
        histogram[_walk(program, model, rng)] += 1
    return SampleReport(program=program, model=model, runs=runs,
                        histogram=histogram)
