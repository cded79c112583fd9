"""Unit tests for the load queue."""

import pytest

from repro.cpu.load_queue import ISSUED, PERFORMED, WAITING, LoadQueue


def _performed(lq, seq, addr, line=None):
    entry = lq.allocate(seq)
    entry.addr = addr
    entry.line = line if line is not None else addr - addr % 64
    entry.state = PERFORMED
    return entry


class TestAllocation:
    def test_program_order_enforced(self):
        lq = LoadQueue(4)
        lq.allocate(3)
        with pytest.raises(RuntimeError):
            lq.allocate(2)

    def test_full_raises(self):
        lq = LoadQueue(1)
        lq.allocate(0)
        assert lq.full
        with pytest.raises(RuntimeError):
            lq.allocate(1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LoadQueue(0)


class TestRetire:
    def test_retire_head_in_order(self):
        lq = LoadQueue(4)
        first = lq.allocate(0)
        lq.allocate(1)
        assert lq.retire_head(0) is first
        assert lq.head().seq == 1

    def test_retire_wrong_seq_raises(self):
        lq = LoadQueue(4)
        lq.allocate(0)
        lq.allocate(1)
        with pytest.raises(RuntimeError):
            lq.retire_head(1)


class TestSquash:
    def test_squash_removes_youngest_first(self):
        lq = LoadQueue(8)
        survivor = lq.allocate(0)
        victim_a = lq.allocate(3)
        victim_b = lq.allocate(7)
        removed = lq.squash_from(3)
        assert removed == [victim_b, victim_a]
        assert list(lq) == [survivor]


class TestQueries:
    def test_matching_performed_by_line(self):
        lq = LoadQueue(8)
        hit = _performed(lq, 0, 0x1008, line=0x1000)
        waiting = lq.allocate(1)
        waiting.line = 0x1000
        other = _performed(lq, 2, 0x2000, line=0x2000)
        assert lq.matching_performed(0x1000) == [hit]
        assert lq.matching_performed(0x2000) == [other]
        assert lq.matching_performed(0x3000) == []

    def test_memdep_candidates(self):
        lq = LoadQueue(8)
        older = _performed(lq, 1, 0x100)
        issued = lq.allocate(5)
        issued.addr = 0x100
        issued.state = ISSUED
        not_issued = lq.allocate(6)
        not_issued.addr = 0x100
        not_issued.state = WAITING
        youngest = _performed(lq, 7, 0x100)
        _performed(lq, 8, 0x200)
        # Youngest first; WAITING loads and other addresses excluded.
        assert lq.memdep_violators(0x100, store_seq=2) == [youngest, issued]
        # Seq bound: loads at or before the store are excluded.
        assert lq.memdep_violators(0x100, store_seq=0) \
            == [youngest, issued, older]
        assert lq.memdep_violators(0x100, store_seq=7) == []

    def test_memdep_forwarding_rule(self):
        lq = LoadQueue(8)
        # Forwarded from store 4, younger than the resolving store 3:
        # it already holds the newer value.
        fresh = _performed(lq, 6, 0x100)
        fresh.slf, fresh.store_seq = True, 4
        # Forwarded from store 2, older than store 3: stale.
        stale = _performed(lq, 7, 0x100)
        stale.slf, stale.store_seq = True, 2
        assert lq.memdep_violators(0x100, store_seq=3) == [stale]
        # Store 1 is older than both forwarding stores: no violator.
        assert lq.memdep_violators(0x100, store_seq=1) == []
        # Store 5 is younger than both: both read a stale value.
        assert lq.memdep_violators(0x100, store_seq=5) == [stale, fresh]
