"""The load queue (LQ).

Each LQ entry is extended (paper Section IV-B-1) with an **SLF bit**
and a copy of the forwarding store's **key** — 8 bits per entry for the
paper's 56-entry SQ/SB.  Loads live in the LQ from dispatch to
retirement; while a performed load is still in the LQ it can be squashed
by an invalidation or eviction of its cache line.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional


# Load lifecycle states.
WAITING = 0     # dispatched, dependences or memory-order checks pending
ISSUED = 1      # access in flight (cache or forwarding bypass)
PERFORMED = 2   # value bound; retirement eligibility is policy-dependent


class LoadEntry:
    """One load in the LQ."""

    __slots__ = ("seq", "addr", "line", "state", "slf", "key",
                 "store_seq", "pc", "issue_epoch", "deferred",
                 "gate_blocked_since", "blocked_reason", "performed_at",
                 "memdep_wait", "value")

    def __init__(self, seq: int, pc: int = 0) -> None:
        self.seq = seq
        self.addr: int = -1
        self.line: int = -1
        self.state = WAITING
        self.slf = False              # performed via store-to-load forwarding
        self.key: Optional[int] = None  # forwarding store's key
        self.store_seq: Optional[int] = None  # forwarding store's seq
        self.pc = pc
        self.issue_epoch = 0          # bumped on squash to drop stale callbacks
        self.deferred = False         # waiting on memory-dependence prediction
        self.gate_blocked_since: Optional[int] = None
        self.blocked_reason: Optional[str] = None
        self.performed_at: int = -1
        # StoreSet prediction captured at dispatch: the seq of the store
        # this load must wait for (None = issue freely).
        self.memdep_wait: Optional[int] = None
        # Observed data (functional layer).
        self.value: int = 0

    @property
    def performed(self) -> bool:
        return self.state == PERFORMED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " SLF" if self.slf else ""
        return f"<ld seq={self.seq} addr={self.addr:#x} st={self.state}{tag}>"


class LoadQueue:
    """Program-ordered queue of in-flight loads."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[LoadEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __iter__(self) -> Iterator[LoadEntry]:
        return iter(self._entries)

    def allocate(self, seq: int, pc: int = 0) -> LoadEntry:
        if self.full:
            raise RuntimeError("load queue full")
        if self._entries and self._entries[-1].seq >= seq:
            raise RuntimeError("loads must be allocated in program order")
        entry = LoadEntry(seq, pc)
        self._entries.append(entry)
        return entry

    def head(self) -> Optional[LoadEntry]:
        return self._entries[0] if self._entries else None

    def retire_head(self, seq: int) -> LoadEntry:
        head = self.head()
        if head is None or head.seq != seq:
            raise RuntimeError(f"LQ head mismatch for seq {seq}")
        return self._entries.popleft()

    def squash_from(self, seq: int) -> List[LoadEntry]:
        """Remove all loads with ``seq >= seq``; returns them, youngest
        first.  Their ``issue_epoch`` is bumped so in-flight completion
        callbacks for the squashed incarnation are ignored."""
        removed: List[LoadEntry] = []
        while self._entries and self._entries[-1].seq >= seq:
            entry = self._entries.pop()
            entry.issue_epoch += 1
            removed.append(entry)
        return removed

    def matching_performed(self, line: int) -> List[LoadEntry]:
        """Performed, unretired loads whose address falls in ``line`` —
        the squash candidates when an invalidation/eviction arrives."""
        return [e for e in self._entries
                if e.state == PERFORMED and e.line == line]

    def memdep_violators(self, addr: int, store_seq: int) -> List[LoadEntry]:
        """Loads younger than the store at ``store_seq`` to exactly
        ``addr`` that already went to memory (or forwarded from an even
        older store) — the memory-dependence violation candidates when
        that store resolves.  Scans youngest-first and stops at
        ``store_seq`` (entries are seq-ascending), so the common no-hit
        case does not walk the whole queue.  Returned youngest-first."""
        out: List[LoadEntry] = []
        for entry in reversed(self._entries):
            if entry.seq <= store_seq:
                break
            if (entry.addr == addr
                    and entry.state in (ISSUED, PERFORMED)
                    and (entry.store_seq is None
                         or entry.store_seq < store_seq)):
                out.append(entry)
        return out
