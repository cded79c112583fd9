"""Static taint propagation over micro-op traces.

A trace's dependence graph is known up front (its ``deps`` column holds
indices of older ops), so secret-dependence is a single forward pass —
no per-cycle bookkeeping in the pipeline, which is what keeps leakage
tracking zero-overhead when off and timing-neutral when on.

Rules, in program order:

* a LOAD or RMW whose address is in the SECRET set produces a tainted
  value (it *reads* the secret) — its own seq becomes the provenance;
* any op with a value-tainted dependence produces a tainted value,
  inheriting the provenance of its first tainted dep;
* a memory op with any tainted dependence has a **tainted address**:
  deps gate address generation (see :class:`~repro.cpu.isa.Op`), so a
  tainted operand means the access pattern encodes the secret.

Address-tainted loads are the leak candidates: if one performs under an
open speculation window and the window later squashes, the line it
touched is a persistent, secret-dependent side effect — a transient
leak (Spectre).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.cpu import isa
from repro.cpu.isa import Trace

#: Provenance value for "not tainted".
UNTAINTED = -1


class TaintMap:
    """Per-op taint of one trace: value taint, address taint, and the
    seq of the originating secret read (provenance)."""

    __slots__ = ("value_tainted", "addr_tainted", "source")

    def __init__(self, trace: Trace, secret: Iterable[int]) -> None:
        secret_addrs = frozenset(secret)
        n = len(trace)
        value_tainted: List[bool] = [False] * n
        addr_tainted: List[bool] = [False] * n
        source: List[int] = [UNTAINTED] * n
        addrs = trace.addrs
        for seq, (kind, deps) in enumerate(zip(trace.kinds, trace.deps)):
            vt = False
            src = UNTAINTED
            for dep in deps:
                if value_tainted[dep]:
                    vt = True
                    src = source[dep]
                    break
            if vt and kind in isa.MEMORY_KINDS:
                addr_tainted[seq] = True
            if kind in (isa.LOAD, isa.RMW) and addrs[seq] in secret_addrs:
                # Reading the secret dominates any dep-inherited taint:
                # this op *is* the provenance of everything downstream.
                vt = True
                src = seq
            value_tainted[seq] = vt
            source[seq] = src
        self.value_tainted = value_tainted
        self.addr_tainted = addr_tainted
        self.source = source

    def __len__(self) -> int:
        return len(self.value_tainted)

    @property
    def any_tainted(self) -> bool:
        return any(self.value_tainted)

    def tainted_loads(self) -> List[int]:
        """Seqs of address-tainted loads (the leak candidates)."""
        return [seq for seq, at in enumerate(self.addr_tainted) if at]
