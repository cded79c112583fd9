"""ConsistencyChecker: which outcomes does x86 allow that 370 forbids?

The paper's authors built a tool that "compares the outcome of a program
under the 370 model and the x86 model" (Section I, footnote 1) to find
non-store-atomic behaviours.  :func:`find_races` answers that question
with the axiomatic engine (:mod:`repro.models.axiomatic`): every outcome
x86 allows and 370 forbids is reported with its 370 witness cycle, which
always threads through an ``rfi`` (store-to-load forwarding) edge —
exactly the store-atomicity violation the paper's SLF gate exists to
police — and the program's communication shape (forwarding / WRC /
IRIW).  The operational machines (:mod:`repro.litmus.operational`) are
the independent reference the tests hold it to.

Also provides :func:`random_program`, the seeded generator behind
:func:`repro.models.conformance.random_corpus`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Sequence, Tuple

from repro.litmus.program import (Cas, Fence, Ld, Outcome, Program, Rmw, St,
                                  make_program)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.models.axiomatic import CycleWitness


@dataclass(frozen=True)
class Race:
    """An outcome x86 admits that the store-atomic 370 model forbids."""

    outcome: Outcome
    witness: CycleWitness          # the 370 cycle
    shape: str                     # "forwarding" | "wrc" | "iriw" | "other"


@dataclass
class RaceReport:
    """One program's outcomes under 370 and x86, and its races."""

    program: Program
    allowed_370: FrozenSet[Outcome] = frozenset()
    allowed_x86: FrozenSet[Outcome] = frozenset()
    races: List[Race] = field(default_factory=list)
    program_shapes: FrozenSet[str] = frozenset()

    @property
    def multi_copy_atomic(self) -> bool:
        """True when 370 and x86 admit identical outcome sets — no
        observable store-atomicity violation in this program."""
        return not self.races

    def summary(self) -> str:
        """The ``repro compare`` report: outcome counts, then each
        x86-only outcome with its shape and 370 cycle."""
        from repro.models.axiomatic import render_cycle
        only_370 = self.allowed_370 - self.allowed_x86
        lines = [f"{self.program.name}: 370 vs x86",
                 f"  common outcomes:       "
                 f"{len(self.allowed_370 & self.allowed_x86)}",
                 f"  only  370:           {len(only_370)}",
                 f"  only  x86:           {len(self.races)}"]
        for race in self.races:
            lines.append(f"    x86-only: {race.outcome}")
            lines.append(f"      {race.shape} race, 370 cycle:")
            lines.extend(f"        {line}"
                         for line in render_cycle(self.program, race.witness))
        return "\n".join(lines)


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
    # Imported here: repro.models imports repro.litmus.program, which
    # loads this package (the same guard as MemoryModel.enumerate's).
    from repro.models.axiomatic import classify
    x86 = classify(program, "x86")
    m370 = classify(program, "370")
    shapes = program_shapes(program)
    report = RaceReport(program=program, allowed_370=m370.allowed,
                        allowed_x86=x86.allowed, program_shapes=shapes)
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


def random_program(rng: random.Random, name: str = "random",
                   threads: int = 2, max_ops: int = 3,
                   addresses: Sequence[str] = ("x", "y"),
                   allow_fences: bool = False,
                   allow_rmws: bool = False,
                   allow_acqrel: bool = False) -> Program:
    """Generate a small random litmus program.

    Store values are globally unique so that every rf edge is
    unambiguous; registers are single-assignment per thread.  With
    ``allow_rmws`` the pool gains locked atomics (``xchg`` and ``cas``
    — the CAS expect value is drawn so both success and failure paths
    occur); with ``allow_acqrel`` it gains acquire loads, release
    stores and the lightweight fence.
    """
    next_value = [1]
    thread_lists: List[List[object]] = []
    for tid in range(threads):
        ops: List[object] = []
        n_ops = rng.randint(1, max_ops)
        reg_counter = 0
        for _ in range(n_ops):
            kinds = ["ld", "st"] + (["fence"] if allow_fences else []) \
                + (["xchg", "cas"] if allow_rmws else []) \
                + (["ld.acq", "st.rel", "lwfence"] if allow_acqrel else [])
            kind = rng.choice(kinds)
            addr = rng.choice(list(addresses))
            if kind == "ld":
                ops.append(Ld(addr, f"r{reg_counter}"))
                reg_counter += 1
            elif kind == "ld.acq":
                ops.append(Ld(addr, f"r{reg_counter}", acquire=True))
                reg_counter += 1
            elif kind == "st":
                ops.append(St(addr, next_value[0]))
                next_value[0] += 1
            elif kind == "st.rel":
                ops.append(St(addr, next_value[0], release=True))
                next_value[0] += 1
            elif kind == "xchg":
                ops.append(Rmw(addr, next_value[0], f"r{reg_counter}"))
                next_value[0] += 1
                reg_counter += 1
            elif kind == "cas":
                # expect 0 hits the initial value; a fresh value never
                # does — half the draws exercise the failed-CAS path.
                expect = rng.choice([0, next_value[0]])
                ops.append(Cas(addr, expect, next_value[0],
                               f"r{reg_counter}"))
                next_value[0] += 1
                reg_counter += 1
            elif kind == "lwfence":
                ops.append(Fence("lw"))
            else:
                ops.append(Fence())
        thread_lists.append(ops)
    return make_program(name, thread_lists)
