"""The combined store queue / store buffer (SQ/SB).

As in Intel implementations (paper Section II-A), the SQ (non-retired
stores, still in the ROB) and the SB (retired stores, not yet written to
the L1) are one physical circular buffer; the boundary is simply each
entry's ``retired`` flag.

Each slot carries a **sorting bit** that flips every time the slot is
reallocated (Buyuktosunoglu et al., used by the paper in Section
IV-B-2).  A store's **key** is its slot index plus the sorting bit, so
"is the store with key K still in the buffer?" is a single indexed
compare — this is the check a retiring SLF load performs, and the match
a draining store performs against the retire gate.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional


class StoreEntry:
    """One store in the SQ/SB."""

    __slots__ = ("seq", "addr", "resolved", "retired", "issued", "written",
                 "slot", "sorting_bit", "waiters", "pc", "rfo_sent",
                 "value", "retired_at")

    def __init__(self, seq: int, slot: int, sorting_bit: int,
                 pc: int = 0, value: int = 0) -> None:
        self.seq = seq                # program-order sequence number
        self.addr: int = -1           # unresolved until address generation
        self.value = value            # data (functional layer)
        self.resolved = False
        self.retired = False          # True = in the SB portion
        self.issued = False           # write to L1 in flight
        self.written = False          # inserted in memory order
        self.slot = slot
        self.sorting_bit = sorting_bit
        self.pc = pc
        self.rfo_sent = False
        self.retired_at = -1          # cycle stamped only when observed
        # 370-NoSpec loads blocked on this store's L1 write.
        self.waiters: List[Callable[[], None]] = []

    @property
    def key(self) -> int:
        """The (slot, sorting-bit) identity used by the retire gate."""
        return self.slot | (self.sorting_bit << 31)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stage = "SB" if self.retired else "SQ"
        return (f"<st seq={self.seq} addr={self.addr:#x} {stage}"
                f" key={self.key:#x}>")


class StoreBuffer:
    """Circular SQ/SB with program-order allocation and head deallocation.

    Invariants:
      * entries between head and tail are in ascending ``seq`` order;
      * retired entries form a prefix (you cannot retire out of order);
      * only the head entry may be written to the L1 (TSO store order);
      * a key matches at most one live entry, ever (sorting bits flip on
        every deallocation, including squashes).
    """

    __slots__ = ("capacity", "_slots", "_bits", "_head", "_tail", "_count",
                 "_by_addr")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: List[Optional[StoreEntry]] = [None] * capacity
        self._bits = [0] * capacity
        self._head = 0     # oldest entry
        self._tail = 0     # next free slot
        self._count = 0
        # Resolved live entries per address, seq-ascending: the
        # forwarding search is an O(1) dict probe plus a scan over the
        # (tiny) per-address list instead of a walk of the whole buffer.
        # Maintained by resolve_store() / pop_head() / squash_from().
        self._by_addr: Dict[int, List[StoreEntry]] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    @property
    def empty(self) -> bool:
        return self._count == 0

    def __iter__(self) -> Iterator[StoreEntry]:
        """Oldest-to-youngest iteration over live entries.

        Iterates a snapshot of the occupied slots: two list slices
        instead of a per-entry generator resume with a modulo — this is
        on the per-tick hot path (drain scans, forwarding searches)."""
        head = self._head
        end = head + self._count
        slots = self._slots
        if end <= self.capacity:
            return iter(slots[head:end])
        return iter(slots[head:] + slots[:end - self.capacity])

    # ------------------------------------------------------------------

    def allocate(self, seq: int, pc: int = 0,
                 value: int = 0) -> StoreEntry:
        """Allocate a store at dispatch.  Raises if full."""
        if self.full:
            raise RuntimeError("store buffer full")
        slot = self._tail
        entry = StoreEntry(seq, slot, self._bits[slot], pc, value)
        self._slots[slot] = entry
        self._tail = (slot + 1) % self.capacity
        self._count += 1
        return entry

    def head(self) -> Optional[StoreEntry]:
        return self._slots[self._head] if self._count else None

    def resolve_store(self, entry: StoreEntry, addr: int) -> None:
        """Address generation finished: record the store's address and
        index it for forwarding searches.  All resolutions must go
        through here so ``forwarding_match`` stays coherent."""
        entry.addr = addr
        entry.resolved = True
        lst = self._by_addr.get(addr)
        if lst is None:
            self._by_addr[addr] = [entry]
            return
        # Stores resolve out of order; keep the list seq-ascending.
        # The common case appends (an older store usually resolved
        # earlier), so scan from the tail.
        i = len(lst)
        while i > 0 and lst[i - 1].seq > entry.seq:
            i -= 1
        lst.insert(i, entry)

    def _unindex(self, entry: StoreEntry) -> None:
        lst = self._by_addr.get(entry.addr)
        if lst is None:
            return
        try:
            lst.remove(entry)
        except ValueError:
            return
        if not lst:
            del self._by_addr[entry.addr]

    def pop_head(self) -> StoreEntry:
        """Deallocate the head entry (after its L1 write completed)."""
        entry = self._slots[self._head]
        if entry is None:
            raise RuntimeError("store buffer empty")
        if not entry.written:
            raise RuntimeError("head store not yet written to L1")
        self._slots[self._head] = None
        self._bits[self._head] ^= 1
        self._head = (self._head + 1) % self.capacity
        self._count -= 1
        if entry.resolved:
            self._unindex(entry)
        return entry

    def squash_from(self, seq: int) -> List[StoreEntry]:
        """Remove all *non-retired* stores with ``seq >= seq`` (they are in
        the flushed portion of the ROB).  Returns the removed entries,
        youngest first.  Retired stores are never squashable."""
        removed: List[StoreEntry] = []
        while self._count:
            tail_idx = (self._tail - 1) % self.capacity
            entry = self._slots[tail_idx]
            assert entry is not None
            if entry.seq < seq:
                break
            if entry.retired:
                raise RuntimeError(
                    f"attempt to squash retired store seq={entry.seq}")
            self._slots[tail_idx] = None
            self._bits[tail_idx] ^= 1
            self._tail = tail_idx
            self._count -= 1
            if entry.resolved:
                self._unindex(entry)
            removed.append(entry)
        return removed

    # ------------------------------------------------------------------
    # Queries used by loads and the retire gate
    # ------------------------------------------------------------------

    def forwarding_match(self, addr: int, load_seq: int) \
            -> Optional[StoreEntry]:
        """The *youngest* store older than ``load_seq`` with a resolved
        matching address — the store-to-load forwarding source.

        Answered from the per-address index (kept seq-ascending by
        :meth:`resolve`): youngest-first scan for the first entry older
        than the load."""
        lst = self._by_addr.get(addr)
        if not lst:
            return None
        for i in range(len(lst) - 1, -1, -1):
            entry = lst[i]
            if entry.seq < load_seq:
                return entry
        return None

    def has_unwritten_older(self, seq: int) -> bool:
        """True if any store older than ``seq`` has not written to L1."""
        for entry in self:
            if entry.seq >= seq:
                break
            if not entry.written:
                return True
        return False

    def holds_key(self, key: int) -> bool:
        """True iff the store identified by ``key`` is still live — the
        sorting-bit compare of Section IV-B-2."""
        slot = key & 0x7FFFFFFF
        bit = key >> 31
        entry = self._slots[slot]
        return (entry is not None and entry.sorting_bit == bit
                and not entry.written)

    def entry_for_key(self, key: int) -> Optional[StoreEntry]:
        slot = key & 0x7FFFFFFF
        bit = key >> 31
        entry = self._slots[slot]
        if entry is not None and entry.sorting_bit == bit:
            return entry
        return None
