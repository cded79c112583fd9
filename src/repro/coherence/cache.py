"""Set-associative cache tag arrays with LRU replacement.

The performance simulator is timing-only (functional values live in the
litmus engine), so a cache here tracks *presence* of line addresses and
produces evictions; coherence state is kept by the protocol controllers
(`repro.coherence.mesi`) at private-hierarchy granularity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.sim.config import CacheConfig


class CacheArray:
    """A set-associative array of line addresses with true-LRU."""

    __slots__ = ("config", "line_bytes", "num_sets", "ways", "_pow2",
                 "_line_mask", "_line_shift", "_set_mask", "_sets",
                 "hits", "misses", "evictions")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bytes = config.line_bytes
        self.num_sets = config.sets
        self.ways = config.ways
        # Line size and set count are powers of two in every paper
        # configuration, so the index/align computations on the access
        # fast path reduce to masks and shifts (identical results to the
        # div/mod forms; non-power-of-two geometries take the slow path).
        self._pow2 = (self.line_bytes & (self.line_bytes - 1) == 0
                      and self.num_sets & (self.num_sets - 1) == 0)
        self._line_mask = ~(self.line_bytes - 1)
        self._line_shift = self.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is an OrderedDict {line_addr: None}; most recent last.
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        """The line address (block-aligned) containing byte ``addr``."""
        if self._pow2:
            return addr & self._line_mask
        return addr - (addr % self.line_bytes)

    # ------------------------------------------------------------------
    # The four per-access methods below select the set inline — every
    # simulated memory access and every warm-up step lands here, and a
    # set-selection call would cost as much as the dict operation it
    # guards.  Power-of-two geometries (every paper configuration) take
    # the mask/shift form; any other geometry takes the div/mod form.

    def lookup(self, line: int, touch: bool = True) -> bool:
        """True if ``line`` is present; optionally update LRU order."""
        if self._pow2:
            bucket = self._sets[(line >> self._line_shift) & self._set_mask]
        else:
            bucket = self._sets[(line // self.line_bytes) % self.num_sets]
        if line in bucket:
            if touch:
                bucket.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check with no LRU update and no stat side effects."""
        if self._pow2:
            return line in self._sets[(line >> self._line_shift)
                                      & self._set_mask]
        return line in self._sets[(line // self.line_bytes) % self.num_sets]

    def insert(self, line: int) -> Optional[int]:
        """Insert ``line``; returns the evicted line address, if any."""
        if self._pow2:
            bucket = self._sets[(line >> self._line_shift) & self._set_mask]
        else:
            bucket = self._sets[(line // self.line_bytes) % self.num_sets]
        if line in bucket:
            bucket.move_to_end(line)
            return None
        victim = None
        if len(bucket) >= self.ways:
            victim, _ = bucket.popitem(last=False)
            self.evictions += 1
        bucket[line] = None
        return victim

    def remove(self, line: int) -> bool:
        """Remove ``line`` (e.g. on invalidation); True if it was present."""
        if self._pow2:
            bucket = self._sets[(line >> self._line_shift) & self._set_mask]
        else:
            bucket = self._sets[(line // self.line_bytes) % self.num_sets]
        if line in bucket:
            del bucket[line]
            return True
        return False

    def resident_lines(self) -> List[int]:
        """All line addresses currently resident (test/debug helper)."""
        return [line for bucket in self._sets for line in bucket]

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)


class PrivateHierarchy:
    """A core's private L1+L2, inclusive (L1 contents are a subset of L2).

    Coherence is tracked per *hierarchy*: a line the core holds lives in
    L2 and possibly also in L1 (which only affects access latency).  An
    L2 eviction therefore removes the line from the core entirely — this
    is the eviction event the paper treats like an invalidation for
    squash purposes (Section IV, 'Evictions').
    """

    __slots__ = ("l1", "l2", "line_bytes", "l1_evict_listener")

    def __init__(self, l1: CacheConfig, l2: CacheConfig) -> None:
        if l2.line_bytes != l1.line_bytes:
            raise ValueError("L1/L2 line sizes must match")
        self.l1 = CacheArray(l1)
        self.l2 = CacheArray(l2)
        self.line_bytes = l1.line_bytes
        # Notified on L1 evictions.  The line is still in L2 (still
        # coherent), but the paper squashes speculative loads on *any*
        # eviction that could filter a later invalidation from the load
        # queue's view — L1 castouts included (Section IV, 'Evictions').
        self.l1_evict_listener = None

    def line_of(self, addr: int) -> int:
        return self.l1.line_of(addr)

    def _l1_insert(self, line: int) -> None:
        victim = self.l1.insert(line)
        if victim is not None and self.l1_evict_listener is not None:
            self.l1_evict_listener(victim)

    def access_latency(self, line: int) -> Optional[int]:
        """Hit latency if the line is resident, else None.

        An L2 hit also refills the line into L1 (possibly evicting an L1
        line, which stays in L2; the castout is still reported to the
        eviction listener).
        """
        if self.l1.lookup(line):
            return self.l1.config.hit_latency
        if self.l2.lookup(line):
            self._l1_insert(line)
            return self.l2.config.hit_latency
        return None

    def contains(self, line: int) -> bool:
        return self.l2.contains(line)

    def fill(self, line: int) -> Optional[int]:
        """Install a line into L1+L2; returns the *hierarchy* victim line
        (evicted from L2, hence from the core), if any."""
        victim = self.l2.insert(line)
        if victim is not None:
            self.l1.remove(victim)  # inclusion
        self._l1_insert(line)
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop a line everywhere (external invalidation)."""
        self.l1.remove(line)
        return self.l2.remove(line)
