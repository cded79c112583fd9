"""The bounded program space: every small litmus program, in order.

A :class:`SynthBounds` names a finite shape — thread count, events per
thread, address pool, fences or not — and :func:`enumerate_programs`
streams every program inside it in a fixed deterministic order, so the
space can be partitioned into ``chunks`` congruence classes that
different service workers (or processes) enumerate
independently: chunk ``i`` judges exactly the programs whose index is
``i (mod chunks)``, and the union over chunks is the whole space.

Store values are globally unique in enumeration order — the canonical
relabeling (:func:`repro.litmus.program.canonical_form`) collapses the
naming anyway, and unique values keep every rf edge unambiguous, the
same invariant :func:`repro.litmus.checker.random_program` maintains.

:func:`may_distinguish` is the sound prefilter: necessary structural
conditions for a program to *possibly* tell a model pair apart (a
st→ld program-order pair for SC-vs-TSO relaxations; a same-address
st→ld pair — the only source of an ``rfi`` edge — for 370-vs-x86; a
program-order pair the strong model's ppo keeps and WMM's drops, for
pairs against WMM).  Programs that fail it are counted but never
judged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.litmus.program import (Cas, Fence, Instruction, Ld, Program,
                                  Rmw, St)
from repro.models import get_model, model_names, po_access_pairs

#: The model lattice, strongest first (SC ⊆ 370 ⊆ x86 ⊆ WMM outcome
#: sets — PC is operational-only and not judged by the synth profiler).
LATTICE = model_names(axiomatic_only=True)

#: Address pool (bounds.addresses says how many are in play).
_ADDRESSES = ("x", "y", "z", "w")

#: The fields of :class:`SynthBounds`, in wire order.
_BOUND_FIELDS = ("threads", "max_ops", "addresses", "fences", "max_total",
                 "rmws", "acqrel")

#: Per-event kinds: ("ld"|"st"|"ld.acq"|"st.rel"|"xchg", addr) or
#: ("fence"|"lwfence", None)
_EventKind = Tuple[str, object]


@dataclass(frozen=True)
class SynthBounds:
    """A finite program shape.

    ``threads`` × up to ``max_ops`` events each, over ``addresses``
    distinct locations, optionally with fences; ``max_total`` caps the
    event count across all threads (useful for 3-thread spaces, where
    the full ``max_ops``-per-thread cube explodes).

    The opt-in vocabulary extensions (each one widens the per-slot kind
    pool, so existing spaces keep their indices):

    * ``rmws`` — locked atomic exchanges (``xchg``);
    * ``acqrel`` — the WMM-visible events: acquire loads, release
      stores and the lightweight fence.
    """

    threads: int = 2
    max_ops: int = 3
    addresses: int = 2
    fences: bool = False
    max_total: int = 0          # 0 = no cross-thread cap
    rmws: bool = False
    acqrel: bool = False

    def __post_init__(self) -> None:
        for name in ("threads", "max_ops", "addresses", "max_total"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, "
                                 f"not {value!r}")
        for name in ("fences", "rmws", "acqrel"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"not {value!r}")
        if not (1 <= self.threads <= 4):
            raise ValueError("threads must be in [1, 4]")
        if not (1 <= self.max_ops <= 4):
            raise ValueError("max_ops must be in [1, 4]")
        if not (1 <= self.addresses <= len(_ADDRESSES)):
            raise ValueError(f"addresses must be in "
                             f"[1, {len(_ADDRESSES)}]")
        if self.max_total < 0:
            raise ValueError("max_total must be >= 0")

    def to_dict(self) -> Dict:
        return {name: getattr(self, name) for name in _BOUND_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "SynthBounds":
        """The bounds a wire document names; absent fields take their
        defaults, and an unknown field is a ValueError."""
        unknown = sorted(map(str, set(data) - set(_BOUND_FIELDS)))
        if unknown:
            raise ValueError(f"unknown bounds field(s): "
                             f"{', '.join(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        cap = f", <={self.max_total} total" if self.max_total else ""
        return (f"{self.threads} threads x <={self.max_ops} events, "
                f"{self.addresses} addrs"
                + (", fences" if self.fences else "")
                + (", rmws" if self.rmws else "")
                + (", acq/rel" if self.acqrel else "") + cap)


def _event_kinds(bounds: SynthBounds) -> List[_EventKind]:
    kinds: List[_EventKind] = []
    for addr in _ADDRESSES[:bounds.addresses]:
        kinds.append(("ld", addr))
        kinds.append(("st", addr))
        if bounds.acqrel:
            kinds.append(("ld.acq", addr))
            kinds.append(("st.rel", addr))
        if bounds.rmws:
            kinds.append(("xchg", addr))
    if bounds.fences:
        kinds.append(("fence", None))
    if bounds.acqrel:
        kinds.append(("lwfence", None))
    return kinds


def _thread_shapes(bounds: SynthBounds) -> List[Tuple[_EventKind, ...]]:
    """Every per-thread event sequence, shortest first, fixed order."""
    kinds = _event_kinds(bounds)
    shapes: List[Tuple[_EventKind, ...]] = []
    for length in range(1, bounds.max_ops + 1):
        shapes.extend(itertools.product(kinds, repeat=length))
    return shapes


def count_programs(bounds: SynthBounds) -> int:
    """The size of the space (before prefilters and dedupe)."""
    shapes = _thread_shapes(bounds)
    if not bounds.max_total:
        return len(shapes) ** bounds.threads
    lengths = [len(s) for s in shapes]
    total = 0
    for combo in itertools.product(lengths, repeat=bounds.threads):
        if sum(combo) <= bounds.max_total:
            total += 1
    return total


def _build(index: int, shape_combo: Sequence[Tuple[_EventKind, ...]]
           ) -> Program:
    threads: List[List[Instruction]] = []
    next_value = 1
    for events in shape_combo:
        ops: List[Instruction] = []
        regs = 0
        for kind, addr in events:
            if kind == "ld":
                ops.append(Ld(addr, f"r{regs}"))
                regs += 1
            elif kind == "ld.acq":
                ops.append(Ld(addr, f"r{regs}", acquire=True))
                regs += 1
            elif kind == "st":
                ops.append(St(addr, next_value))
                next_value += 1
            elif kind == "st.rel":
                ops.append(St(addr, next_value, release=True))
                next_value += 1
            elif kind == "xchg":
                ops.append(Rmw(addr, next_value, f"r{regs}"))
                next_value += 1
                regs += 1
            elif kind == "lwfence":
                ops.append(Fence("lw"))
            else:
                ops.append(Fence())
        threads.append(ops)
    return Program(name=f"synth-{index}",
                   threads=tuple(tuple(t) for t in threads))


def enumerate_programs(bounds: SynthBounds, chunk: int = 0,
                       chunks: int = 1) -> Iterator[Tuple[int, Program]]:
    """Yield ``(index, program)`` for the space, deterministically.

    With ``chunks > 1`` only indices congruent to ``chunk`` are built
    (the index sequence itself is global, so a program keeps its index
    no matter how the space is partitioned).
    """
    if chunks < 1 or not (0 <= chunk < chunks):
        raise ValueError(f"bad chunk {chunk}/{chunks}")
    shapes = _thread_shapes(bounds)
    index = 0
    for combo in itertools.product(shapes, repeat=bounds.threads):
        if bounds.max_total and \
                sum(len(events) for events in combo) > bounds.max_total:
            continue
        if index % chunks == chunk:
            yield index, _build(index, combo)
        index += 1


def may_distinguish(program: Program, pair: Tuple[str, str]) -> bool:
    """Sound structural prefilter for "could ``pair`` tell this program
    apart?".  Necessary conditions only — a True can still profile to
    identical outcome sets, but a False never distinguishes:

    * any pair of SC against a TSO-family model needs a (plain) store
      program-ordered before a later load (the st→ld relaxation is the
      only SC-vs-TSO difference; an mfence or locked op between them
      re-orders the pair under both models, a lightweight fence does
      not);
    * (370, x86) needs a store program-ordered before a later load *of
      the same address* (an ``rfi`` edge — the only relation the two
      models treat differently — requires exactly that shape);
    * a pair against WMM needs a program-order pair the strong model's
      ppo keeps and WMM's drops (their grf only differs for 370, whose
      rfi condition is the same forwarding shape as above) — evaluated
      directly on the registry predicates, so the filter stays sound as
      the vocabulary grows.
    """
    if "WMM" in pair:
        strong = pair[0] if pair[1] == "WMM" else pair[1]
        strong_ax = get_model(strong).axiomatic
        wmm_ax = get_model("WMM").axiomatic
        for po_pair in po_access_pairs(program):
            if strong_ax.ppo(po_pair) and not wmm_ax.ppo(po_pair):
                return True
        if strong == "370":
            return may_distinguish(program, ("370", "x86"))
        return False
    need_same_addr = "SC" not in pair
    for thread in program.threads:
        pending: List[Tuple[int, str]] = []    # (fence epoch, addr)
        epoch = 0
        for op in thread:
            if isinstance(op, Fence) and op.kind == "mf":
                epoch += 1
            elif isinstance(op, (Rmw, Cas)):
                epoch += 1                     # locked: full fence
            elif isinstance(op, St):
                pending.append((epoch, op.addr))
            elif isinstance(op, Ld):
                for st_epoch, st_addr in pending:
                    if st_epoch != epoch:
                        continue               # fenced: ordered anyway
                    if not need_same_addr or st_addr == op.addr:
                        return True
    return False
