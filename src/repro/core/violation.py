"""Store-atomicity violation witness (for the non-store-atomic x86).

The paper's Figures 6 and 7 define the *invalidation window of
vulnerability*: store atomicity is observably violated when

1. a load ``ld x`` was performed by forwarding from an in-limbo store
   ``st x``;
2. a younger load ``ld y`` (different cache line) performed and
   **retired** while ``st x`` was still in the store buffer; and
3. an invalidation (or eviction) for ``ld y``'s line arrives before
   ``st x`` is written to the L1.

On x86 nothing stops this — that is precisely the non-store-atomic
behaviour of Sections III-A/III-B.  This detector counts such witnessed
windows so that tests and examples can demonstrate that (a) x86 exhibits
them and (b) every 370 configuration exhibits none (their gating or
squashing makes condition 2 or 3 unsatisfiable).  It subscribes to a
run's probe bus and keeps each core's windows apart.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.bus import ProbeBus


class ViolationDetector:
    """Tracks retired loads inside open windows of vulnerability, per
    core."""

    __slots__ = ("line_bytes", "_windows", "by_core")

    def __init__(self, bus: ProbeBus, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        # core -> store key -> [seq of its oldest SLF load, the store's
        # own line (to exclude self-hits), lines of loads retired under
        # its shadow].
        self._windows: Dict[int, Dict[int, list]] = {}
        self.by_core: Dict[int, int] = {}    # core -> violations witnessed
        bus.subscribe("slf.forward", self.on_forward)
        bus.subscribe("inst.retire", self.on_retire)
        bus.subscribe("sb.write_l1", self.on_store_written)
        bus.subscribe("squash.*", self.on_squash)
        bus.subscribe("line.removed", self.on_line_removed)

    @property
    def violations(self) -> int:
        return sum(self.by_core.values())

    # ------------------------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def on_forward(self, core_id: int, cycle: int, load_seq: int,
                   store_seq: int, addr: int, key: int) -> None:
        windows = self._windows.setdefault(core_id, {})
        window = windows.get(key)
        if window is None:
            windows[key] = [load_seq, self._line(addr), set()]
        elif load_seq < window[0]:
            window[0] = load_seq

    def on_retire(self, core_id: int, cycle: int, seq: int, addr: int,
                  blocked: int, reason: Optional[str]) -> None:
        """Condition 2: a load retires inside an open window."""
        windows = self._windows.get(core_id)
        if addr < 0 or not windows:
            return
        line = self._line(addr)
        for slf_seq, store_line, lines in windows.values():
            if slf_seq < seq and store_line != line:
                lines.add(line)

    def on_store_written(self, core_id: int, cycle: int, store_seq: int,
                         addr: int, drain: int, key: int) -> None:
        """The window closes when the forwarding store hits the L1."""
        self._windows.get(core_id, {}).pop(key, None)

    def on_squash(self, core_id: int, cycle: int, from_seq: int,
                  flushed: int) -> None:
        """Forwardings from flushed SLF loads never happened."""
        windows = self._windows.get(core_id, {})
        for key in [key for key, window in windows.items()
                    if window[0] >= from_seq]:
            del windows[key]

    def on_line_removed(self, core_id: int, cycle: int, line: int,
                        kind: str) -> None:
        """Condition 3: an invalidation/eviction lands in a window."""
        for _, _, lines in self._windows.get(core_id, {}).values():
            if line in lines:
                self.by_core[core_id] = self.by_core.get(core_id, 0) + 1
                lines.discard(line)
