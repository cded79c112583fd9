"""Store-atomicity race analysis over litmus programs.

The lint package's second rule family.  An outcome that x86 allows and
370 forbids always owes its 370 cycle to an ``rfi`` (store-to-load
forwarding) edge — exactly the store-atomicity violation the paper's
SLF gate exists to police.  :func:`find_races` reports those outcomes
with their witness cycles from the axiomatic engine
(:mod:`repro.models.axiomatic`) and classifies the program's
communication shape (forwarding / WRC / IRIW).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from repro.litmus.program import Ld, Outcome, Program, St
from repro.models.axiomatic import CycleWitness, classify


@dataclass(frozen=True)
class Race:
    """An outcome x86 admits that the store-atomic 370 model forbids."""

    outcome: Outcome
    witness: CycleWitness          # the 370 cycle
    shape: str                     # "forwarding" | "wrc" | "iriw" | "other"


@dataclass
class RaceReport:
    program: Program
    races: List[Race] = field(default_factory=list)
    program_shapes: FrozenSet[str] = frozenset()

    @property
    def multi_copy_atomic(self) -> bool:
        """True when 370 and x86 admit identical outcome sets — no
        observable store-atomicity violation in this program."""
        return not self.races


def program_shapes(program: Program) -> FrozenSet[str]:
    """Structural communication shapes that can expose non-MCA
    behaviour: ``iriw`` (two writers, two readers disagreeing on the
    write order) and ``wrc`` (write → read-then-write → reader chain)."""
    shapes = set()
    num_threads = len(program.threads)
    accesses: List[List[Tuple[str, str]]] = []   # per thread: (kind, addr)
    for thread in program.threads:
        accesses.append([("st" if isinstance(op, St) else "ld", op.addr)
                         for op in thread if isinstance(op, (Ld, St))])

    def writes(tid: int) -> List[str]:
        return [a for k, a in accesses[tid] if k == "st"]

    def read_sequence(tid: int) -> List[str]:
        return [a for k, a in accesses[tid] if k == "ld"]

    # IRIW: writers w1 (addr a), w2 (addr b), readers r1 seeing a then
    # b, r2 seeing b then a.
    for w1 in range(num_threads):
        for w2 in range(num_threads):
            if w1 == w2:
                continue
            for a in set(writes(w1)):
                for b in set(writes(w2)):
                    if a == b:
                        continue
                    readers = [tid for tid in range(num_threads)
                               if tid not in (w1, w2)]
                    ab = [t for t in readers
                          if _reads_in_order(read_sequence(t), a, b)]
                    ba = [t for t in readers
                          if _reads_in_order(read_sequence(t), b, a)]
                    if any(x != y for x in ab for y in ba):
                        shapes.add("iriw")
    # WRC: w writes a; t reads a then writes b; r reads b then a.
    for w in range(num_threads):
        for a in set(writes(w)):
            for t in range(num_threads):
                if t == w:
                    continue
                seq = accesses[t]
                for i, (k1, a1) in enumerate(seq):
                    if k1 != "ld" or a1 != a:
                        continue
                    for k2, b in seq[i + 1:]:
                        if k2 != "st" or b == a:
                            continue
                        for r in range(num_threads):
                            if r in (w, t):
                                continue
                            if _reads_in_order(read_sequence(r), b, a):
                                shapes.add("wrc")
    return frozenset(shapes)


def _reads_in_order(sequence: List[str], first: str, second: str) -> bool:
    for i, addr in enumerate(sequence):
        if addr == first:
            return second in sequence[i + 1:]
    return False


def find_races(program: Program) -> RaceReport:
    """Outcomes x86 allows but 370 forbids, each with the 370 cycle.

    The cycle of every such outcome threads through at least one
    ``rfi`` edge — the forwarded store observed early — because rfi
    membership in ghb is the only difference between the two models.
    """
    x86 = classify(program, "x86")
    m370 = classify(program, "370")
    shapes = program_shapes(program)
    report = RaceReport(program=program, program_shapes=shapes)
    for outcome in sorted(x86.allowed - m370.allowed, key=str):
        witness = m370.witnesses[outcome]
        if witness.has_kind("rfi"):
            shape = "forwarding"
        elif "iriw" in shapes:
            shape = "iriw"
        elif "wrc" in shapes:
            shape = "wrc"
        else:
            shape = "other"
        report.races.append(
            Race(outcome=outcome, witness=witness, shape=shape))
    return report


