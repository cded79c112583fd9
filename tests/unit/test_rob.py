"""Unit tests for the reorder buffer."""

import pytest

from repro.cpu import isa
from repro.cpu.rob import ReorderBuffer, RobEntry


def _rob(capacity, seqs):
    """A ROB holding ``seqs``, filled the way the core's dispatch stage
    fills it: entries appended to the deque in program order."""
    rob = ReorderBuffer(capacity)
    entries = [RobEntry(seq, isa.ALU) for seq in seqs]
    rob._entries.extend(entries)
    return rob, entries


def test_squash_from_marks_entries_squashed():
    rob, (keep, *victims) = _rob(8, (0, 2, 4, 6))
    removed = rob.squash_from(2)
    assert [e.seq for e in removed] == [6, 4, 2]
    assert all(e.squashed for e in victims)
    assert not keep.squashed
    assert list(rob) == [keep]
    assert rob.head() is keep


def test_entries_order_by_seq():
    _, (a, b) = _rob(4, (1, 2))
    assert a < b


def test_capacity_validation():
    with pytest.raises(ValueError):
        ReorderBuffer(0)
