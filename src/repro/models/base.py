"""Core abstractions of the memory-model registry.

A :class:`MemoryModel` is a first-class object bundling

* an **axiomatic definition** (:class:`AxiomaticDef`) — two composable
  relation predicates, ``ppo`` over program-order pairs and ``grf``
  over read-from edge kinds, that the axiomatic engine
  (:mod:`repro.models.axiomatic`) evaluates;
* an **operational machine factory** — the exhaustively enumerable
  transition system of :mod:`repro.litmus.operational`; and
* its declared position in the conformance lattice (``stronger_than``,
  closed transitively by :mod:`repro.models.lattice`).

The event vocabulary covers plain loads/stores, acquire loads, release
stores, mfence/lwfence, and the locked read-modify-writes (xchg / cas).
A locked instruction contributes *two* events — a read ``(tid, idx)``
and a write ``(tid, idx, 1)`` — tied together by the atomicity axiom
(no store may intervene in coherence order between the value read and
the value written).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterator, List, Optional, Tuple,
                    TYPE_CHECKING)

from repro.litmus.program import (Cas, Fence, Ld, Program, Rmw, St)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.litmus.operational import Machine

#: An event: ``(tid, idx)`` for a load/store or the read half of a
#: locked instruction; ``(tid, idx, 1)`` for the write half of a locked
#: instruction; ``(-1, ordinal)`` for the per-address initial store.
Event = Tuple[int, ...]

#: Fence strength between two program-ordered accesses: the strongest
#: barrier crossed ("" = none).  Locked instructions between two
#: accesses count as "mf" (x86 locked ops have full fence semantics).
FENCE_STRENGTH = {"": 0, "lw": 1, "mf": 2}


@dataclass(frozen=True)
class PoPair:
    """One program-ordered access pair with everything a ppo predicate
    may condition on."""

    a: Event
    b: Event
    a_addr: str
    b_addr: str
    a_store: bool       # a is a write event
    b_store: bool       # b is a write event
    a_acquire: bool     # a is an acquire load
    b_release: bool     # b is a release store
    a_locked: bool      # a belongs to a locked instruction
    b_locked: bool      # b belongs to a locked instruction
    fence: str          # strongest barrier crossed: "" | "lw" | "mf"

    @property
    def same_addr(self) -> bool:
        return self.a_addr == self.b_addr

    @property
    def st_to_ld(self) -> bool:
        return self.a_store and not self.b_store

    def without_fence(self) -> "PoPair":
        """The same pair as if no barrier were crossed — used to label
        edges that exist *only* because of the fence."""
        if self.fence == "":
            return self
        return PoPair(a=self.a, b=self.b, a_addr=self.a_addr,
                      b_addr=self.b_addr, a_store=self.a_store,
                      b_store=self.b_store, a_acquire=self.a_acquire,
                      b_release=self.b_release, a_locked=self.a_locked,
                      b_locked=self.b_locked, fence="")


@dataclass(frozen=True)
class AxiomaticDef:
    """A model's axiomatic definition as two relation predicates.

    ``ppo(pair)``  — is this program-order pair preserved in ghb?
    ``grf(kind)``  — is an rf edge of this kind ("rfi" | "rfe" |
    "rf-init") global, i.e. part of ghb?

    A candidate execution is allowed iff sc-per-location holds
    (po-loc ∪ rf ∪ co ∪ fr acyclic), the RMW atomicity axiom holds,
    and ``ppo ∪ grf ∪ co ∪ fr`` is acyclic.
    """

    ppo: Callable[[PoPair], bool]
    grf: Callable[[str], bool]


@dataclass(frozen=True)
class MemoryModel:
    """One registered memory model."""

    name: str
    title: str
    relaxations: str                  # human summary (docs table)
    axiomatic: Optional[AxiomaticDef]  # None = operational-only (PC)
    stronger_than: Tuple[str, ...]    # immediate parents in the lattice

    def machine(self, program: Program) -> "Machine":
        """The model's operational machine on ``program``."""
        from repro.litmus.operational import machine_for
        return machine_for(program, self.name)

    def enumerate(self, program: Program):
        """All final outcomes under this model's machine."""
        from repro.litmus.operational import enumerate_outcomes
        return enumerate_outcomes(program, self.name)


# ----------------------------------------------------------------------
# Event extraction: the program-ordered access pairs the registry's
# ppo predicates are evaluated over.
# ----------------------------------------------------------------------

#: Per-access roles: (event, op, is_write, acquire, release, locked)
_Access = Tuple[Event, object, bool, bool, bool, bool]


def thread_accesses(thread: Tuple, tid: int) -> List[_Access]:
    """The access events of one thread, in program order.  Locked
    instructions expand into their read then their write event."""
    accesses: List[_Access] = []
    for idx, op in enumerate(thread):
        if isinstance(op, Ld):
            accesses.append(((tid, idx), op, False, op.acquire,
                             False, False))
        elif isinstance(op, St):
            accesses.append(((tid, idx), op, True, False,
                             op.release, False))
        elif isinstance(op, (Rmw, Cas)):
            accesses.append(((tid, idx), op, False, False, False, True))
            accesses.append(((tid, idx, 1), op, True, False, False, True))
    return accesses


def _fence_between(thread: Tuple, idx_a: int, idx_b: int) -> str:
    """Strongest barrier strictly between instruction slots a and b."""
    strongest = ""
    for pos in range(idx_a + 1, idx_b):
        op = thread[pos]
        if isinstance(op, Fence):
            kind = op.kind
        elif isinstance(op, (Rmw, Cas)):
            kind = "mf"
        else:
            continue
        if FENCE_STRENGTH[kind] > FENCE_STRENGTH[strongest]:
            strongest = kind
    return strongest


def po_access_pairs(program: Program) -> Iterator[PoPair]:
    """Every program-ordered access pair of ``program`` with its flags
    — the pairs the axiomatic engine feeds to ``ppo``."""
    for tid, thread in enumerate(program.threads):
        accesses = thread_accesses(thread, tid)
        for i, (ev_a, op_a, a_st, a_acq, _a_rel, a_lk) in \
                enumerate(accesses):
            for ev_b, op_b, b_st, _b_acq, b_rel, b_lk in accesses[i + 1:]:
                yield PoPair(
                    a=ev_a, b=ev_b,
                    a_addr=op_a.addr, b_addr=op_b.addr,
                    a_store=a_st, b_store=b_st,
                    a_acquire=a_acq, b_release=b_rel,
                    a_locked=a_lk, b_locked=b_lk,
                    fence=_fence_between(thread, ev_a[1], ev_b[1]))
