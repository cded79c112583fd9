"""Micro-operation ISA for the trace-driven out-of-order core.

A workload is a per-core sequence of :class:`Op` micro-operations with
explicit register dependences (indices of older ops in the same trace).
This is the interface between the workload generators and the core
model: the generators decide *what* executes, the core decides *when*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

# Op kinds --------------------------------------------------------------

ALU = 0
LOAD = 1
STORE = 2
BRANCH = 3
FENCE = 4
RMW = 5

KIND_NAMES = {ALU: "alu", LOAD: "load", STORE: "store",
              BRANCH: "branch", FENCE: "fence", RMW: "rmw"}


@dataclass(frozen=True, slots=True, init=False)
class Op:
    """One micro-operation of a trace.

    Attributes:
        kind: one of ALU, LOAD, STORE, BRANCH, FENCE.
        addr: byte address for LOAD/STORE (word aligned); -1 otherwise.
        deps: trace indices of older ops whose results this op consumes.
            For LOAD/STORE the deps gate *address generation* (the op
            cannot issue before its deps complete).
        latency: execution latency for ALU/BRANCH ops.
        mispredict: for BRANCH — *force* a misprediction regardless of
            the branch predictor (directed-test hook).
        taken: for BRANCH — the actual outcome, predicted by the core's
            TAGE predictor; a wrong prediction redirects the front end
            (dispatch barrier + penalty).
        pc: synthetic program counter, used by the stride prefetcher,
            the StoreSet predictor, and the branch predictor.

    ``__init__`` is written by hand, because the trace generators build
    hundreds of thousands of ops per cell: it checks its arguments, then
    stores each field through its slot descriptor.  A frozen
    dataclass's generated ``__init__`` goes through
    ``object.__setattr__`` for every field and then ``__post_init__``,
    at nearly twice the cost.  The dataclass still generates ``__eq__``,
    ``__hash__`` and the frozen ``__setattr__``; pickling, ``copy`` and
    ``dataclasses.replace`` work as before.
    """

    kind: int
    addr: int = -1
    deps: Tuple[int, ...] = ()
    latency: int = 1
    mispredict: bool = False
    taken: bool = True
    pc: int = 0
    # Functional value layer (used by the litmus-on-pipeline runner):
    # the data a STORE writes.  Loads observe values at runtime — from
    # the forwarding store or from global memory at perform time.
    value: int = 0

    def __init__(self, kind: int, addr: int = -1,
                 deps: Tuple[int, ...] = (), latency: int = 1,
                 mispredict: bool = False, taken: bool = True,
                 pc: int = 0, value: int = 0) -> None:
        if kind in (LOAD, STORE, RMW) and addr < 0:
            raise ValueError("memory op requires an address")
        if kind not in KIND_NAMES:
            raise ValueError(f"unknown op kind {kind}")
        _set_kind(self, kind)
        _set_addr(self, addr)
        _set_deps(self, deps)
        _set_latency(self, latency)
        _set_mispredict(self, mispredict)
        _set_taken(self, taken)
        _set_pc(self, pc)
        _set_value(self, value)

    @property
    def is_mem(self) -> bool:
        return self.kind in (LOAD, STORE, RMW)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" @0x{self.addr:x}" if self.is_mem else ""
        return f"<{KIND_NAMES[self.kind]}{extra} deps={self.deps}>"


# The slots' own setters: they bypass the frozen ``__setattr__``.
_set_kind = Op.kind.__set__
_set_addr = Op.addr.__set__
_set_deps = Op.deps.__set__
_set_latency = Op.latency.__set__
_set_mispredict = Op.mispredict.__set__
_set_taken = Op.taken.__set__
_set_pc = Op.pc.__set__
_set_value = Op.value.__set__


# Convenience constructors ----------------------------------------------

def load(addr: int, deps: Iterable[int] = (), pc: int = 0) -> Op:
    return Op(LOAD, addr=addr, deps=tuple(deps), pc=pc)


def store(addr: int, deps: Iterable[int] = (), pc: int = 0,
          value: int = 0) -> Op:
    return Op(STORE, addr=addr, deps=tuple(deps), pc=pc, value=value)


def alu(deps: Iterable[int] = (), latency: int = 1, pc: int = 0) -> Op:
    return Op(ALU, deps=tuple(deps), latency=latency, pc=pc)


def branch(deps: Iterable[int] = (), mispredict: bool = False,
           taken: bool = True, pc: int = 0) -> Op:
    return Op(BRANCH, deps=tuple(deps), mispredict=mispredict,
              taken=taken, pc=pc)


def fence(pc: int = 0) -> Op:
    return Op(FENCE, pc=pc)


def rmw(addr: int, deps: Iterable[int] = (), pc: int = 0,
        value: int = 0) -> Op:
    """Atomic exchange (a locked x86 instruction): read the old value,
    write ``value``, globally ordered — drains the SB and fences both
    directions, like ``lock xchg``."""
    return Op(RMW, addr=addr, deps=tuple(deps), pc=pc, value=value)


@dataclass(slots=True)
class Trace:
    """A per-core instruction stream.

    ``ops[i].deps`` must only reference indices ``< i``; :meth:`validate`
    enforces this plus address alignment.

    ``memdep_hints`` are (load_pc, store_pc) pairs of statically known
    store→load dependences (e.g. the argument-passing idiom); the core
    pre-trains its StoreSet predictor with them, modelling the warmed-up
    predictor state of the paper's measurement window (which starts
    after a warm-up phase).
    """

    ops: List[Op] = field(default_factory=list)
    memdep_hints: List[Tuple[int, int]] = field(default_factory=list)

    def append(self, op: Op) -> int:
        """Append an op, returning its trace index."""
        self.ops.append(op)
        return len(self.ops) - 1

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> Op:
        return self.ops[i]

    def validate(self, word_bytes: int = 8) -> None:
        """Raise ValueError if the trace is malformed."""
        for i, op in enumerate(self.ops):
            for dep in op.deps:
                if not 0 <= dep < i:
                    raise ValueError(
                        f"op {i} depends on {dep}, not an older op")
            if op.is_mem and op.addr % word_bytes:
                raise ValueError(
                    f"op {i} address 0x{op.addr:x} not {word_bytes}-aligned")

    @classmethod
    def from_ops(cls, ops: Sequence[Op]) -> "Trace":
        trace = cls(list(ops))
        trace.validate()
        return trace
