"""Unit tests for the combined SQ/SB circular buffer and its keys."""

import pytest

from repro.cpu.store_buffer import StoreBuffer


def _alloc(sb, seq, addr=None, retired=False):
    entry = sb.allocate(seq)
    if addr is not None:
        sb.resolve_store(entry, addr)
    entry.retired = retired
    return entry


class TestAllocation:
    def test_fifo_order(self):
        sb = StoreBuffer(4)
        entries = [_alloc(sb, seq) for seq in range(3)]
        assert list(sb) == entries
        assert sb.head() is entries[0]

    def test_full_raises(self):
        sb = StoreBuffer(2)
        _alloc(sb, 0)
        _alloc(sb, 1)
        assert sb.full
        with pytest.raises(RuntimeError):
            sb.allocate(2)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)

    def test_wraparound_allocation(self):
        sb = StoreBuffer(2)
        for round_no in range(5):
            entry = _alloc(sb, round_no, addr=8 * round_no, retired=True)
            entry.written = True
            assert sb.pop_head() is entry
        assert sb.empty


class TestPop:
    def test_pop_requires_written(self):
        sb = StoreBuffer(2)
        _alloc(sb, 0, retired=True)
        with pytest.raises(RuntimeError):
            sb.pop_head()

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            StoreBuffer(2).pop_head()


class TestKeys:
    """The (slot, sorting-bit) key of Section IV-B-2."""

    def test_key_identifies_live_store(self):
        sb = StoreBuffer(4)
        entry = _alloc(sb, 0, addr=0x100, retired=True)
        assert sb.holds_key(entry.key)
        assert sb.entry_for_key(entry.key) is entry

    def test_key_dies_with_deallocation(self):
        sb = StoreBuffer(4)
        entry = _alloc(sb, 0, addr=0x100, retired=True)
        key = entry.key
        entry.written = True
        sb.pop_head()
        assert not sb.holds_key(key)

    def test_reallocated_slot_gets_fresh_key(self):
        """The sorting bit flips on reuse: a stale key never matches the
        slot's new occupant (the paper's wrap-around disambiguation)."""
        sb = StoreBuffer(1)
        first = _alloc(sb, 0, addr=0x100, retired=True)
        old_key = first.key
        first.written = True
        sb.pop_head()
        second = _alloc(sb, 1, addr=0x200, retired=True)
        assert second.slot == first.slot
        assert second.key != old_key
        assert not sb.holds_key(old_key)
        assert sb.holds_key(second.key)

    def test_keys_unique_among_live_entries(self):
        sb = StoreBuffer(8)
        keys = {_alloc(sb, seq).key for seq in range(8)}
        assert len(keys) == 8

    def test_squashed_slot_gets_fresh_key(self):
        sb = StoreBuffer(4)
        entry = _alloc(sb, 0, addr=0x100)
        old_key = entry.key
        sb.squash_from(0)
        fresh = _alloc(sb, 0, addr=0x100)
        assert fresh.key != old_key


class TestSquash:
    def test_squash_removes_young_unretired(self):
        sb = StoreBuffer(8)
        _alloc(sb, 0, retired=True)
        _alloc(sb, 5)
        _alloc(sb, 9)
        removed = sb.squash_from(5)
        assert [e.seq for e in removed] == [9, 5]
        assert [e.seq for e in sb] == [0]

    def test_squash_never_touches_retired(self):
        sb = StoreBuffer(8)
        _alloc(sb, 0, retired=True)
        assert sb.squash_from(1) == []
        with pytest.raises(RuntimeError):
            sb.squash_from(0)  # retired stores are not squashable

    def test_squash_noop_when_all_older(self):
        sb = StoreBuffer(8)
        _alloc(sb, 0)
        _alloc(sb, 1)
        assert sb.squash_from(10) == []
        assert len(sb) == 2


class TestQueries:
    def test_forwarding_match_youngest_older(self):
        sb = StoreBuffer(8)
        _alloc(sb, 0, addr=0x100)
        target = _alloc(sb, 2, addr=0x100)
        _alloc(sb, 4, addr=0x200)
        _alloc(sb, 6, addr=0x100)   # younger than the load: excluded
        assert sb.forwarding_match(0x100, 5) is target
        assert sb.forwarding_match(0x200, 5).seq == 4
        assert sb.forwarding_match(0x300, 5) is None

    def test_forwarding_ignores_unresolved(self):
        sb = StoreBuffer(4)
        entry = sb.allocate(0)  # address unknown
        assert sb.forwarding_match(0x100, 3) is None
        sb.resolve_store(entry, 0x100)
        assert sb.forwarding_match(0x100, 3) is entry

    def test_has_unwritten_older(self):
        sb = StoreBuffer(8)
        entry = _alloc(sb, 0, addr=0x100, retired=True)
        assert sb.has_unwritten_older(5)
        assert not sb.has_unwritten_older(0)
        entry.written = True
        sb.pop_head()
        assert not sb.has_unwritten_older(5)
