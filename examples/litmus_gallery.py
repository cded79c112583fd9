#!/usr/bin/env python3
"""Litmus gallery: every figure of the paper's Sections II-III.

Enumerates mp (Fig. 1), n6 (Fig. 2), iriw (Fig. 3), the Figure 4
observer outcomes, and the Figure 5 / Table II construction under the
SC, IBM-370 and x86-TSO operational models, and checks each verdict
against the axiomatic happens-before formulation (and each program
against the model lattice) with repro.models.conformance.

Run:  python examples/litmus_gallery.py
"""

from repro.litmus import ALL_CASES, FIG5, M370, SC, X86, enumerate_outcomes
from repro.litmus.operational import _matches
from repro.litmus.program import Ld, St, make_program
from repro.models.conformance import check


def show_case(case):
    program = case.program
    print(f"--- {program.name} ---")
    for tid, thread in enumerate(program.threads):
        body = " ; ".join(str(op) for op in thread)
        print(f"  T{tid}: {body}")
    witness = ", ".join(f"{k}={v}" for k, v in case.witness)
    print(f"  witness: {witness}")
    [report] = check([program]).programs
    for model in (SC, M370, X86):
        outcomes = enumerate_outcomes(program, model)
        seen = any(_matches(o, case.witness_dict()) for o in outcomes)
        agree = "AXIOM MISMATCH" if model in report.disagreements \
            else "axioms agree"
        print(f"    {model:>4}: {'ALLOWED  ' if seen else 'forbidden'}"
              f" ({len(outcomes)} outcomes, {agree})")
    for violation in report.violations:
        print(f"  LATTICE VIOLATION: {violation.describe()}")
    print(f"  {case.description}\n")


def figure4():
    print("--- Figure 4: observing two independent stores ---")
    program = make_program("fig4", [
        [Ld("y", "ry"), Ld("x", "rx")],
        [St("x", 1)],
        [St("y", 1)],
    ])
    outcomes = enumerate_outcomes(program, M370)
    for y, x in sorted({(o.reg(0, "ry"), o.reg(0, "rx"))
                        for o in outcomes}):
        tag = {(1, 0): "st y before st x  <-- the only ordering witness",
               (0, 1): "no order derivable",
               (0, 0): "neither store performed yet",
               (1, 1): "both performed; order unknown"}[(y, x)]
        print(f"  ld y={y}, ld x={x}: {tag}")
    print()


def table2():
    print("--- Table II: all outcomes of the Figure 5 code ---")
    m370 = enumerate_outcomes(FIG5, M370)
    x86 = enumerate_outcomes(FIG5, X86)
    for outcome in sorted(x86, key=str):
        where = "370+x86" if outcome in m370 else "x86 ONLY (case 1)"
        print(f"  {outcome}   [{where}]")
    print()


if __name__ == "__main__":
    for case in ALL_CASES:
        show_case(case)
    figure4()
    table2()
