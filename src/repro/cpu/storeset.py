"""StoreSet memory-dependence predictor (Chrysos & Emer, ISCA 1998).

Used by the core (paper Table III) to decide whether a load may issue
past an older store whose address is still unknown.  A load and the
stores it has conflicted with in the past are assigned to the same
*store set*; a load predicted to depend on an in-flight store of its set
waits for that store's address instead of issuing speculatively.

The classic two-table organization:

* SSIT (store-set ID table), indexed by PC, maps loads and stores to a
  store-set ID (SSID).
* LFST (last fetched store table), indexed by SSID, tracks the most
  recent in-flight store of that set.

On a memory-order violation (an older store resolves to the address of
a load that already went to memory), the load and store PCs are merged
into one set, so the next dynamic instance synchronizes instead of
squashing.
"""

from __future__ import annotations

from typing import Dict, Optional


class StoreSetPredictor:
    """Two-table StoreSet predictor with periodic clearing."""

    __slots__ = ("ssit_size", "lfst_size", "clear_interval", "_ssit",
                 "_lfst", "_next_ssid", "_accesses", "violations_trained")

    def __init__(self, ssit_size: int = 4096, lfst_size: int = 128,
                 clear_interval: int = 30000) -> None:
        self.ssit_size = ssit_size
        self.lfst_size = lfst_size
        self.clear_interval = clear_interval
        self._ssit: Dict[int, int] = {}          # pc-index -> SSID
        self._lfst: Dict[int, int] = {}          # SSID -> store seq
        self._next_ssid = 0
        self._accesses = 0
        self.violations_trained = 0

    # ------------------------------------------------------------------

    def _index(self, pc: int) -> int:
        return pc % self.ssit_size

    # ------------------------------------------------------------------

    # The per-instruction entry points below inline :meth:`_index` (a
    # call costs as much as the lookup).  Dispatching a store or
    # predicting a load counts an access toward the periodic clearing
    # that keeps stale sets from over-serializing (the original paper's
    # cyclic clearing).

    def store_dispatched(self, pc: int, seq: int) -> None:
        """A store enters the window: becomes its set's last fetched store."""
        accesses = self._accesses + 1
        if accesses >= self.clear_interval:
            self._ssit.clear()
            self._lfst.clear()
            accesses = 0
        self._accesses = accesses
        ssid = self._ssit.get(pc % self.ssit_size)
        if ssid is not None:
            self._lfst[ssid] = seq

    def store_resolved(self, pc: int, seq: int) -> None:
        """A store's address resolved: clear it from the LFST if it is
        still the set's last fetched store."""
        ssid = self._ssit.get(pc % self.ssit_size)
        if ssid is not None and self._lfst.get(ssid) == seq:
            del self._lfst[ssid]

    def predicted_store(self, load_pc: int) -> Optional[int]:
        """The seq of the in-flight store this load should wait for, or
        None if the load is free to issue speculatively."""
        accesses = self._accesses + 1
        if accesses >= self.clear_interval:
            self._ssit.clear()
            self._lfst.clear()
            accesses = 0
        self._accesses = accesses
        ssid = self._ssit.get(load_pc % self.ssit_size)
        if ssid is None:
            return None
        return self._lfst.get(ssid)

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the load and store into one store set after a
        memory-order violation."""
        self.violations_trained += 1
        load_idx = self._index(load_pc)
        store_idx = self._index(store_pc)
        load_ssid = self._ssit.get(load_idx)
        store_ssid = self._ssit.get(store_idx)
        if load_ssid is None and store_ssid is None:
            ssid = self._next_ssid % self.lfst_size
            self._next_ssid += 1
            self._ssit[load_idx] = ssid
            self._ssit[store_idx] = ssid
        elif load_ssid is not None and store_ssid is None:
            self._ssit[store_idx] = load_ssid
        elif load_ssid is None and store_ssid is not None:
            self._ssit[load_idx] = store_ssid
        else:
            # Both assigned: converge on the smaller SSID (the paper's
            # declarative merge rule).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_idx] = winner
            self._ssit[store_idx] = winner

    def store_squashed(self, pc: int, seq: int) -> None:
        """A store was flushed: remove it from the LFST."""
        self.store_resolved(pc, seq)
