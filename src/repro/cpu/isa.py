"""Micro-operation ISA for the trace-driven out-of-order core.

A workload is a per-core sequence of :class:`Op` micro-operations with
explicit register dependences (indices of older ops in the same trace),
stored as a :class:`Trace` of columns, one per field.
This is the interface between the workload generators and the core
model: the generators decide *what* executes, the core decides *when*.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Tuple

# Op kinds --------------------------------------------------------------

ALU = 0
LOAD = 1
STORE = 2
BRANCH = 3
FENCE = 4
RMW = 5

KIND_NAMES = {ALU: "alu", LOAD: "load", STORE: "store",
              BRANCH: "branch", FENCE: "fence", RMW: "rmw"}
MEMORY_KINDS = frozenset((LOAD, STORE, RMW))


@dataclass(frozen=True, slots=True)
class Op:
    """One micro-operation, the value type of a hand-built trace.

    A :class:`Trace` stores its ops as columns, one per field, and
    rebuilds an equal ``Op`` when one is asked for; the generators
    append to the columns and build none.

    Attributes:
        kind: one of ALU, LOAD, STORE, BRANCH, FENCE, RMW.
        addr: byte address for LOAD/STORE/RMW (word aligned); -1
            otherwise.
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

    def __post_init__(self) -> None:
        if self.kind in MEMORY_KINDS and self.addr < 0:
            raise ValueError("memory op requires an address")
        if self.kind not in KIND_NAMES:
            raise ValueError(f"unknown op kind {self.kind}")

    @property
    def is_mem(self) -> bool:
        return self.kind in MEMORY_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" @0x{self.addr:x}" if self.is_mem else ""
        return f"<{KIND_NAMES[self.kind]}{extra} deps={self.deps}>"


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


#: The fields of an op that a :class:`Trace` stores as typed
#: ``array('q')`` columns, and the range those columns hold.
_TYPED_FIELDS = ("addr", "pc", "value")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class Trace:
    """A per-core instruction stream, stored as one column per
    :class:`Op` field.

    Op ``i`` is ``kinds[i]``, ``addrs[i]``, ``deps[i]``,
    ``latencies[i]``, ``mispredicts[i]``, ``taken[i]``, ``pcs[i]`` and
    ``values[i]``.  ``addrs``, ``pcs`` and ``values`` are typed
    ``array('q')`` columns, ``kinds`` and the two flags ``bytearray``s
    (a flag is 0 or 1), ``deps`` and ``latencies`` lists.  The
    generators append to the columns directly, so a generated trace
    holds no object per op; the core, the warm-up walk, the trace file
    and the taint pass read them by index.  ``trace[i]`` and
    :attr:`ops` rebuild equal :class:`Op` values for tools and tests;
    :meth:`append`, ``Trace(ops)`` and :meth:`from_ops` fill the
    columns from them.

    ``deps[i]`` must only reference indices ``< i``; :meth:`validate`
    enforces this, a known kind, and a non-negative, aligned address
    on every memory op.  :meth:`seal` makes every column read-only (a
    typed column becomes a ``memoryview`` of 64-bit integers over
    ``bytes``, a ``bytearray`` ``bytes``, a list a tuple): the
    generators seal each trace they build, because the cells of a
    trace unit (one per policy) all run on it.

    ``memdep_hints`` are (load_pc, store_pc) pairs of statically known
    store→load dependences (e.g. the argument-passing idiom); the core
    pre-trains its StoreSet predictor with them, modelling the warmed-up
    predictor state of the paper's measurement window (which starts
    after a warm-up phase).  It stays assignable on a sealed trace
    (``cell_traces`` strips it).
    """

    __slots__ = ("kinds", "addrs", "deps", "latencies", "mispredicts",
                 "taken", "pcs", "values", "memdep_hints")

    def __init__(self, ops: Iterable[Op] = (),
                 memdep_hints: Iterable[Tuple[int, int]] = ()) -> None:
        self.kinds = bytearray()
        self.addrs = array("q")
        self.deps: List[Tuple[int, ...]] = []
        self.latencies: List[int] = []
        self.mispredicts = bytearray()
        self.taken = bytearray()
        self.pcs = array("q")
        self.values = array("q")
        self.memdep_hints = list(memdep_hints)
        for op in ops:
            self.append(op)

    def columns(self) -> tuple:
        """The eight columns, in :class:`Op` field order."""
        return (self.kinds, self.addrs, self.deps, self.latencies,
                self.mispredicts, self.taken, self.pcs, self.values)

    def append(self, op: Op) -> int:
        """Append an op's fields to the columns, returning its trace
        index.  Raises ``ValueError``, and appends nothing, if its
        address, pc or value is not an integer that fits a 64-bit
        column; raises ``TypeError`` on a sealed trace."""
        if self.sealed:
            raise TypeError("a sealed trace is read-only")
        for name in _TYPED_FIELDS:
            number = getattr(op, name)
            if not (isinstance(number, int)
                    and _I64_MIN <= number <= _I64_MAX):
                raise ValueError(f"{name} {number!r} is not a 64-bit "
                                 f"integer")
        self.kinds.append(op.kind)
        self.addrs.append(op.addr)
        self.deps.append(tuple(op.deps))
        self.latencies.append(op.latency)
        self.mispredicts.append(bool(op.mispredict))
        self.taken.append(bool(op.taken))
        self.pcs.append(op.pc)
        self.values.append(op.value)
        return len(self.kinds) - 1

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` made the columns read-only."""
        return isinstance(self.kinds, bytes)

    def seal(self) -> "Trace":
        """Make every column read-only (``memdep_hints`` stays
        assignable); returns the trace.  A sealed trace does not pickle
        (a ``memoryview`` does not): traces are generated in the process
        that runs them, and only jobs cross a process boundary."""
        if not self.sealed:
            self.kinds = bytes(self.kinds)
            self.addrs = memoryview(self.addrs.tobytes()).cast("q")
            self.deps = tuple(self.deps)
            self.latencies = tuple(self.latencies)
            self.mispredicts = bytes(self.mispredicts)
            self.taken = bytes(self.taken)
            self.pcs = memoryview(self.pcs.tobytes()).cast("q")
            self.values = memoryview(self.values.tobytes()).cast("q")
        return self

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Op:
        """Op ``i``, rebuilt from the columns."""
        return Op(self.kinds[i], self.addrs[i], self.deps[i],
                  self.latencies[i], bool(self.mispredicts[i]),
                  bool(self.taken[i]), self.pcs[i], self.values[i])

    @property
    def ops(self) -> List[Op]:
        """Every op, rebuilt from the columns."""
        return [self[i] for i in range(len(self))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.memdep_hints == other.memdep_hints
                and all(list(mine) == list(theirs) for mine, theirs
                        in zip(self.columns(), other.columns())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sealed = ", sealed" if self.sealed else ""
        return f"<Trace of {len(self)} ops{sealed}>"

    def validate(self, word_bytes: int = 8) -> None:
        """Raise ValueError if the trace is malformed: an op of unknown
        kind, a dependence on an op that is not older, or a memory op
        whose address is negative or not ``word_bytes``-aligned."""
        addrs = self.addrs
        for i, (kind, deps) in enumerate(zip(self.kinds, self.deps)):
            for dep in deps:
                if not 0 <= dep < i:
                    raise ValueError(
                        f"op {i} depends on {dep}, not an older op")
            if kind in MEMORY_KINDS:
                addr = addrs[i]
                if addr < 0:
                    raise ValueError(f"op {i}: memory op requires an "
                                     f"address")
                if addr % word_bytes:
                    raise ValueError(f"op {i} address 0x{addr:x} not "
                                     f"{word_bytes}-aligned")
            elif kind not in KIND_NAMES:
                raise ValueError(f"op {i}: unknown op kind {kind}")

    @classmethod
    def from_ops(cls, ops: Iterable[Op]) -> "Trace":
        trace = cls(ops)
        trace.validate()
        return trace
