"""The reorder buffer (ROB).

Holds every in-flight instruction in program order from dispatch to
retirement.  Completion is tracked per entry; retirement is strictly
in-order from the head, gated by the consistency policy for loads and by
store-buffer state for fences.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.cpu.isa import Op


class RobEntry:
    """One instruction in flight."""

    __slots__ = ("seq", "op", "completed", "issued", "deps_left",
                 "issue_epoch")

    def __init__(self, seq: int, op: Op) -> None:
        self.seq = seq
        self.op = op
        self.completed = False
        self.issued = False
        self.deps_left = 0
        self.issue_epoch = 0

    def __lt__(self, other: "RobEntry") -> bool:
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "+" if self.completed else ("~" if self.issued else "-")
        return f"<rob {self.seq}{flag}>"


class ReorderBuffer:
    """Program-ordered window of in-flight instructions.  The core's
    tick appends to and pops ``_entries`` itself; ``check_system``
    guards their order and count (``rob-order``, ``rob-capacity``)."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[RobEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def __iter__(self) -> Iterator[RobEntry]:
        return iter(self._entries)

    def head(self) -> Optional[RobEntry]:
        return self._entries[0] if self._entries else None

    def squash_from(self, seq: int) -> List[RobEntry]:
        """Remove all entries with ``seq >= seq``, youngest first."""
        removed: List[RobEntry] = []
        while self._entries and self._entries[-1].seq >= seq:
            entry = self._entries.pop()
            entry.issue_epoch += 1
            removed.append(entry)
        return removed
