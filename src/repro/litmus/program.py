"""Litmus-test programs: a tiny multi-threaded assembly.

A :class:`Program` is a tuple of threads, each a sequence of loads,
stores and fences on named memory locations.  Programs are executed
exhaustively by the operational models (:mod:`repro.litmus.operational`)
and enumerated axiomatically (:mod:`repro.models.axiomatic`); both
produce :class:`Outcome` values — final register and memory contents —
that can be compared across memory models.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple, Union


@dataclass(frozen=True)
class Ld:
    """``reg = [addr]``; with ``acquire`` the load is ordered before
    every later access of its thread (a no-op strengthening on the
    TSO-family models, observable under WMM)."""

    addr: str
    reg: str
    acquire: bool = False

    def __str__(self) -> str:
        mnemonic = "ld.acq" if self.acquire else "ld"
        return f"{mnemonic} {self.addr} -> {self.reg}"


@dataclass(frozen=True)
class St:
    """``[addr] = value``; with ``release`` every earlier access of the
    thread is ordered before the store (a no-op strengthening on the
    TSO-family models, observable under WMM)."""

    addr: str
    value: int
    release: bool = False

    def __str__(self) -> str:
        mnemonic = "st.rel" if self.release else "st"
        return f"{mnemonic} {self.addr},{self.value}"


#: Fence kinds: ``mf`` (mfence — orders everything, drains the store
#: buffer) and ``lw`` (lightweight — orders ld→ld, ld→st and st→st but
#: *not* st→ld, so it is architecturally free on the TSO family).
FENCE_KINDS = ("mf", "lw")


@dataclass(frozen=True)
class Fence:
    """A memory fence of the given kind (default mfence)."""

    kind: str = "mf"

    def __post_init__(self) -> None:
        if self.kind not in FENCE_KINDS:
            raise ValueError(f"unknown fence kind {self.kind!r}; "
                             f"expected one of {FENCE_KINDS}")

    def __str__(self) -> str:
        return "mfence" if self.kind == "mf" else "lwfence"


@dataclass(frozen=True)
class Rmw:
    """Atomic exchange: ``reg = [addr]; [addr] = value`` as one
    indivisible, globally ordered action (an x86 locked instruction —
    it drains the store buffer first)."""

    addr: str
    value: int
    reg: str

    def __str__(self) -> str:
        return f"xchg {self.addr},{self.value} -> {self.reg}"


@dataclass(frozen=True)
class Cas:
    """Compare-and-swap: ``reg = [addr]; if reg == expect: [addr] =
    value`` as one indivisible, globally ordered action.  Like
    :class:`Rmw` it is a locked instruction (full fence semantics on
    both sides); unlike :class:`Rmw` the write happens only when the
    old value equals ``expect``."""

    addr: str
    expect: int
    value: int
    reg: str

    def __str__(self) -> str:
        return f"cas {self.addr},{self.expect},{self.value} -> {self.reg}"


Instruction = Union[Ld, St, Fence, Rmw, Cas]

#: Instructions that read memory into a register.
READS = (Ld, Rmw, Cas)
#: Instructions that (may) write memory.
WRITES = (St, Rmw, Cas)
#: Locked instructions: indivisible read+write with fence semantics.
LOCKED = (Rmw, Cas)


@dataclass(frozen=True)
class Outcome:
    """A final state: all registers (per thread) and all memory values."""

    registers: Tuple[Tuple[Tuple[int, str], int], ...]  # ((tid, reg), val)
    memory: Tuple[Tuple[str, int], ...]                 # (addr, val)

    def reg(self, tid: int, name: str) -> int:
        for key, value in self.registers:
            if key == (tid, name):
                return value
        raise KeyError((tid, name))

    def mem(self, addr: str) -> int:
        for key, value in self.memory:
            if key == addr:
                return value
        raise KeyError(addr)

    def __str__(self) -> str:
        regs = " ".join(f"{tid}:{name}={val}"
                        for (tid, name), val in self.registers)
        mem = " ".join(f"[{addr}]={val}" for addr, val in self.memory)
        return f"{regs} | {mem}".strip(" |")


@dataclass(frozen=True)
class Program:
    """A litmus test: named threads plus initial memory (defaults to 0).

    ``secret`` marks addresses holding SECRET data for the leakage
    instrument (:mod:`repro.leakage`): architectural engines ignore it,
    but gadget programs carry it so the taint analysis knows which
    locations a transient access must not encode.
    """

    name: str
    threads: Tuple[Tuple[Instruction, ...], ...]
    initial: Tuple[Tuple[str, int], ...] = ()
    secret: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a program needs at least one thread")
        for thread in self.threads:
            regs = [op.reg for op in thread if isinstance(op, READS)]
            if len(regs) != len(set(regs)):
                raise ValueError(
                    f"{self.name}: registers must be written once per "
                    f"thread (single-assignment form)")

    @cached_property
    def addresses(self) -> Tuple[str, ...]:
        """Every address, initial ones first, in order of appearance
        (computed once: the program is frozen)."""
        seen: Dict[str, None] = {}
        for addr, _ in self.initial:
            seen.setdefault(addr)
        for thread in self.threads:
            for op in thread:
                if not isinstance(op, Fence):
                    seen.setdefault(op.addr)
        return tuple(seen)

    def initial_value(self, addr: str) -> int:
        for a, v in self.initial:
            if a == addr:
                return v
        return 0

    def loads(self) -> Iterator[Tuple[int, int, Ld]]:
        """Yield (tid, index, op) for every load."""
        for tid, thread in enumerate(self.threads):
            for idx, op in enumerate(thread):
                if isinstance(op, Ld):
                    yield tid, idx, op

    def stores(self) -> Iterator[Tuple[int, int, St]]:
        """Yield (tid, index, op) for every store."""
        for tid, thread in enumerate(self.threads):
            for idx, op in enumerate(thread):
                if isinstance(op, St):
                    yield tid, idx, op


# ----------------------------------------------------------------------
# Canonical form: structural identity up to relabeling
# ----------------------------------------------------------------------

def _canonical_render(program: Program, order: Tuple[int, ...]) -> str:
    """Render the program with threads permuted by ``order`` and every
    name relabeled by order of appearance in that rendering: addresses
    become ``a0, a1, ...``; each address's values map to ``1, 2, ...``
    with the *initial* value pinned to class ``0`` (so a store of the
    initial value — observationally distinct from a store of a fresh
    value — keeps that identity); registers restart at ``r0`` per
    thread.  Value equality per address is preserved exactly: equal
    values stay equal, distinct values stay distinct, which is the
    relabeling under which outcome sets are isomorphic."""
    addr_label: Dict[str, str] = {}
    value_label: Dict[str, Dict[int, int]] = {}

    def addr_of(addr: str) -> str:
        if addr not in addr_label:
            addr_label[addr] = f"a{len(addr_label)}"
            value_label[addr] = {program.initial_value(addr): 0}
        return addr_label[addr]

    def value_of(addr: str, value: int) -> int:
        labels = value_label[addr]
        if value not in labels:
            labels[value] = len(labels)   # 0 is the initial value
        return labels[value]

    lines: List[str] = []
    for out_tid, tid in enumerate(order):
        reg_label: Dict[str, str] = {}
        for op in program.threads[tid]:
            if isinstance(op, Fence):
                lines.append(f"T{out_tid} {op}")
                continue
            label = addr_of(op.addr)
            if isinstance(op, St):
                mnemonic = "st.rel" if op.release else "st"
                lines.append(f"T{out_tid} {mnemonic} {label},"
                             f"{value_of(op.addr, op.value)}")
                continue
            reg = reg_label.setdefault(op.reg, f"r{len(reg_label)}")
            if isinstance(op, Ld):
                mnemonic = "ld.acq" if op.acquire else "ld"
                lines.append(f"T{out_tid} {mnemonic} {label} -> {reg}")
            elif isinstance(op, Rmw):
                lines.append(f"T{out_tid} xchg {label},"
                             f"{value_of(op.addr, op.value)} -> {reg}")
            else:  # Cas — ``expect`` joins the address's value classes
                # so relabeling preserves the success/failure pattern.
                lines.append(f"T{out_tid} cas {label},"
                             f"{value_of(op.addr, op.expect)},"
                             f"{value_of(op.addr, op.value)} -> {reg}")
    # Addresses only mentioned in ``initial`` still exist (their final
    # memory value is part of every outcome) — give them labels so two
    # programs differing only in untouched addresses stay distinct.
    extra = sorted(addr_of(addr) for addr in program.addresses
                   if addr not in addr_label)
    secret = sorted(addr_label[a] for a in program.secret
                    if a in addr_label)
    return "\n".join(lines + [f"addr {a}" for a in extra]
                     + [f"secret {s}" for s in secret])


def canonical_form(program: Program) -> str:
    """The canonical text of a program: minimal rendering over all
    thread permutations, with addresses, store values and registers
    relabeled by order of appearance.

    Two programs have equal canonical forms iff one can be obtained
    from the other by permuting threads and consistently renaming
    addresses, values (preserving equality per address) and registers —
    the relabelings under which every memory model's outcome set is
    isomorphic.  This is the structural identity the synthesis dedupe
    and the battery duplicate check key on.
    """
    return min(_canonical_render(program, order)
               for order in itertools.permutations(
                   range(len(program.threads))))


def canonical_key(program: Program) -> str:
    """A short stable hash of :func:`canonical_form` (16 hex chars)."""
    digest = hashlib.sha256(canonical_form(program).encode("utf-8"))
    return digest.hexdigest()[:16]


def make_program(name: str, threads: Sequence[Sequence[Instruction]],
                 initial: Dict[str, int] = None,
                 secret: Sequence[str] = ()) -> Program:
    """Convenience constructor from lists/dicts."""
    return Program(
        name=name,
        threads=tuple(tuple(thread) for thread in threads),
        initial=tuple(sorted((initial or {}).items())),
        secret=tuple(secret))
