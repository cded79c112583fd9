"""Construction cost and the structures built lazily for it.

A cell rebuilds the whole Table III system, so ``CacheArray`` creates
each set on its first insert and ``TagePredictor`` keeps its tagged
tables as flat int lists.  The reference classes below are the eager
forms they replaced (one ``OrderedDict`` per set from the start; one
entry object per tagged-table slot).  Each pair is driven by one seeded
operation stream and must agree on every return value, every counter
and the final contents, and construction must stay proportional to the
state a cell touches.
"""

import gc
import random
from collections import OrderedDict

import pytest

from repro.coherence.cache import CacheArray
from repro.coherence.mesi import CoherentMemorySystem
from repro.cpu.branch import TagePredictor
from repro.sim.config import SKYLAKE_LIKE, CacheConfig
from repro.sim.engine import Engine


class EagerCacheArray:
    """Reference: every set built up front, div/mod set selection."""

    def __init__(self, config: CacheConfig) -> None:
        self.line_bytes = config.line_bytes
        self.num_sets = config.sets
        self.ways = config.ways
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = 0

    def _set(self, line):
        return self.sets[(line // self.line_bytes) % self.num_sets]

    def lookup(self, line, touch=True):
        bucket = self._set(line)
        if line in bucket:
            if touch:
                bucket.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line):
        return line in self._set(line)

    def insert(self, line):
        bucket = self._set(line)
        if line in bucket:
            bucket.move_to_end(line)
            return None
        victim = None
        if len(bucket) >= self.ways:
            victim, _ = bucket.popitem(last=False)
            self.evictions += 1
        bucket[line] = None
        return victim

    def remove(self, line):
        bucket = self._set(line)
        if line in bucket:
            del bucket[line]
            return True
        return False


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self):
        self.tag = 0
        self.counter = 0
        self.useful = 0


class EagerTage:
    """Reference: one entry object per tagged-table slot, with the
    hashing in its method forms."""

    HISTORY_LENGTHS = TagePredictor.HISTORY_LENGTHS

    def __init__(self, base_bits=12, tagged_bits=9, tag_bits=8,
                 useful_reset_interval=18_000):
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.base = [1] * self.base_size
        self.tables = [[_TaggedEntry() for _ in range(self.tagged_size)]
                       for _ in self.HISTORY_LENGTHS]
        self.history = 0
        self.useful_reset_interval = useful_reset_interval
        self.updates = 0
        self.predictions = 0
        self.mispredictions = 0

    def _fold(self, table):
        h = self.history & ((1 << self.HISTORY_LENGTHS[table]) - 1)
        folded = 0
        while h:
            folded ^= h & 0xFFFF
            h >>= 16
        return folded

    def _index(self, pc, table):
        fold = self._fold(table)
        return (pc ^ (pc >> 7) ^ fold ^ (fold << (table + 1))) \
            % self.tagged_size

    def _tag(self, pc, table):
        return ((pc >> 3) ^ (self._fold(table) * 3) ^ table) & self.tag_mask

    def _base_index(self, pc):
        return (pc ^ (pc >> 5)) % self.base_size

    def _lookup(self, pc):
        for table in range(len(self.tables) - 1, -1, -1):
            entry = self.tables[table][self._index(pc, table)]
            if entry.tag == self._tag(pc, table):
                return table, entry.counter >= 0
        return None, self.base[self._base_index(pc)] >= 2

    def predict(self, pc):
        self.predictions += 1
        return self._lookup(pc)[1]

    def update(self, pc, taken):
        provider, prediction = self._lookup(pc)
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1
        if provider is None:
            idx = self._base_index(pc)
            self.base[idx] = min(3, self.base[idx] + 1) if taken \
                else max(0, self.base[idx] - 1)
        else:
            entry = self.tables[provider][self._index(pc, provider)]
            entry.counter = min(3, entry.counter + 1) if taken \
                else max(-4, entry.counter - 1)
            if correct:
                entry.useful = min(3, entry.useful + 1)
            elif entry.useful > 0:
                entry.useful -= 1
        if not correct:
            start = 0 if provider is None else provider + 1
            for table in range(start, len(self.tables)):
                entry = self.tables[table][self._index(pc, table)]
                if entry.useful == 0:
                    entry.tag = self._tag(pc, table)
                    entry.counter = 0 if taken else -1
                    break
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << 64) - 1)
        self.updates += 1
        if self.updates >= self.useful_reset_interval:
            self.updates = 0
            for table in self.tables:
                for entry in table:
                    entry.useful >>= 1

    def state(self):
        """The tables as sparse ``[idx, tag, counter, useful]`` rows
        (see :func:`_flat_state`)."""
        return {
            "base": [[idx, val] for idx, val in enumerate(self.base)
                     if val != 1],
            "tables": [[[idx, e.tag, e.counter, e.useful]
                        for idx, e in enumerate(table)
                        if e.tag or e.counter or e.useful]
                       for table in self.tables],
            "history": self.history,
            "updates": self.updates,
            "predictions": self.predictions,
            "mispredictions": self.mispredictions,
        }


def _flat_state(bp):
    """A :class:`TagePredictor`'s flat ``tags``/``counters``/``useful``
    lists read into :meth:`EagerTage.state`'s layout: per table, the
    non-zero entries only."""
    return {
        "base": [[idx, val] for idx, val in enumerate(bp.base)
                 if val != 1],
        "tables": [[[idx, tag, counter, useful]
                    for idx, (tag, counter, useful)
                    in enumerate(zip(tags, counters, usefuls))
                    if tag or counter or useful]
                   for tags, counters, usefuls
                   in zip(bp.tags, bp.counters, bp.useful)],
        "history": bp.history,
        "updates": bp._updates,
        "predictions": bp.predictions,
        "mispredictions": bp.mispredictions,
    }


def _contents(sets):
    return [list(bucket or ()) for bucket in sets]


GEOMETRIES = {
    "l1": SKYLAKE_LIKE.memory.l1,
    "l2": SKYLAKE_LIKE.memory.l2,
    "l3-bank": SKYLAKE_LIKE.memory.l3_bank,
    "3KB-4way": CacheConfig(3 * 1024, 4, 1),
}


@pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
def test_lazy_cache_matches_eager_reference(geometry):
    lazy, eager = CacheArray(geometry), EagerCacheArray(geometry)
    assert lazy._pow2 == (geometry.sets & (geometry.sets - 1) == 0)
    lines = geometry.sets * geometry.ways
    rng = random.Random(geometry.sets)
    for _ in range(4 * lines + 2000):
        line = rng.randrange(2 * lines) * geometry.line_bytes
        op = rng.random()
        if op < 0.45:
            touch = rng.random() < 0.8
            assert lazy.lookup(line, touch) == eager.lookup(line, touch)
        elif op < 0.85:
            assert lazy.insert(line) == eager.insert(line)
        elif op < 0.95:
            assert lazy.remove(line) == eager.remove(line)
        else:
            assert lazy.contains(line) == eager.contains(line)
    assert eager.evictions and eager.hits and eager.misses
    assert (lazy.hits, lazy.misses, lazy.evictions) == \
        (eager.hits, eager.misses, eager.evictions)
    assert _contents(lazy._sets) == _contents(eager.sets)
    assert sorted(lazy.resident_lines()) == sorted(
        line for bucket in eager.sets for line in bucket)
    assert lazy.occupancy() == sum(map(len, eager.sets))


def test_untouched_sets_stay_uncreated():
    """lookup counts a miss, contains and remove answer False, and none
    of them creates the set; insert creates exactly one."""
    arr = CacheArray(SKYLAKE_LIKE.memory.l3_bank)
    assert not arr.lookup(0x4000)
    assert not arr.contains(0x4000)
    assert not arr.remove(0x4000)
    assert arr.misses == 1 and arr.hits == 0
    assert arr.occupancy() == 0 and arr.resident_lines() == []
    assert all(bucket is None for bucket in arr._sets)
    arr.insert(0x4000)
    assert sum(bucket is not None for bucket in arr._sets) == 1
    assert arr.resident_lines() == [0x4000]


def test_flat_tage_matches_eager_reference():
    """40,000 predict/update pairs: the useful-counter reset (every
    18,000 updates) fires twice, with useful counters above 1 to halve."""
    flat, eager = TagePredictor(), EagerTage()
    rng = random.Random(7)
    pcs = [rng.randrange(1 << 20) * 4 for _ in range(300)]
    bias = {pc: rng.random() for pc in pcs}
    for step in range(40_000):
        pc = rng.choice(pcs)
        # Correlate some outcomes with recent history so the tagged
        # tables, not just the bimodal base, provide predictions.
        taken = (rng.random() < bias[pc]) if pc % 3 \
            else bool((flat.history >> (pc % 5)) & 1)
        assert flat.predict(pc) == eager.predict(pc)
        flat.update(pc, taken)
        eager.update(pc, taken)
        if step in (17_998, 35_998):  # just before each reset
            assert _flat_state(flat) == eager.state()
            assert max(entry[3] for table in eager.state()["tables"]
                       for entry in table) > 1
    assert flat.mispredictions < flat.predictions
    assert _flat_state(flat) == eager.state()


def _tracked_objects(build):
    """GC-tracked objects a call leaves alive, with the collector off so
    no automatic pass runs in between."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        built = build()
        created = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del built
    return created


@pytest.mark.parametrize("build", [
    lambda: CoherentMemorySystem(Engine(), SKYLAKE_LIKE),
    TagePredictor,
], ids=["memory-8-core", "tage"])
def test_construction_is_proportional_to_touched_state(build):
    """An 8-core memory system was 19,049 tracked objects when every
    cache set was built up front, and a predictor 2,056 with one object
    per tagged entry."""
    assert _tracked_objects(build) < 500
