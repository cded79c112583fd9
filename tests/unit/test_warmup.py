"""Unit tests for the functional cache warm-up."""

import pytest

from repro.coherence.mesi import E, M, S, CoherentMemorySystem
from repro.coherence.warmup import warm_from_traces, warm_load, warm_store
from repro.cpu.isa import Trace, alu, load, store
from repro.sim.config import TINY
from repro.sim.engine import Engine
from repro.sim.system import System


def _memory(cores=2):
    return CoherentMemorySystem(Engine(), TINY.with_cores(cores))


def test_warm_store_installs_m_and_ownership():
    mem = _memory()
    warm_store(mem, 0, 0x1000)
    assert mem.controller(0).peek_state(0x1000) == M
    assert mem.bank_of(0x1000).owner[0x1000] == 0


def test_warm_store_invalidates_other_holders():
    mem = _memory()
    warm_load(mem, 1, 0x1000)
    warm_store(mem, 0, 0x1000)
    assert mem.controller(1).peek_state(0x1000) is None
    assert not mem.controller(1).hierarchy.contains(0x1000)


def test_warm_load_exclusive_when_alone():
    mem = _memory()
    warm_load(mem, 0, 0x2000)
    assert mem.controller(0).peek_state(0x2000) == E


def test_warm_load_downgrades_remote_owner():
    mem = _memory()
    warm_store(mem, 1, 0x2000)
    warm_load(mem, 0, 0x2000)
    assert mem.controller(0).peek_state(0x2000) == S
    assert mem.controller(1).peek_state(0x2000) == S
    bank = mem.bank_of(0x2000)
    assert 0x2000 not in bank.owner
    assert bank.sharers[0x2000] == {0, 1}


def test_warm_load_refreshes_existing_line():
    mem = _memory()
    warm_load(mem, 0, 0x2000)
    warm_load(mem, 0, 0x2000)
    assert mem.controller(0).peek_state(0x2000) == E


def test_warm_from_traces_installs_working_set():
    mem = _memory()
    t0 = Trace.from_ops([store(0x1000), load(0x3000), alu()])
    t1 = Trace.from_ops([load(0x1000)])
    warm_from_traces(mem, [t0, t1])
    assert mem.controller(0).peek_state(0x3000) in (E, S)
    # Core 1 read core 0's stored line afterwards: both share.
    assert mem.controller(0).peek_state(0x1000) == S
    assert mem.controller(1).peek_state(0x1000) == S


def test_warm_eviction_keeps_state_consistent():
    """Overflowing a set during warm-up must leave controller state and
    tag arrays in sync (evicted lines lose their state entries)."""
    mem = _memory()
    ctrl = mem.controller(0)
    l2 = ctrl.hierarchy.l2.config
    set_stride = l2.line_bytes * l2.sets
    lines = [0x100000 + i * set_stride for i in range(l2.ways + 3)]
    for addr in lines:
        warm_store(mem, 0, addr)
    for line in ctrl.state:
        assert ctrl.hierarchy.contains(line)
    resident = set(ctrl.hierarchy.l2.resident_lines())
    assert set(ctrl.state) == resident


def test_warmed_system_hits_in_cache():
    """After warm-up, a simulated load to a warmed line is a hit."""
    engine = Engine()
    mem = CoherentMemorySystem(engine, TINY)
    warm_from_traces(mem, [Trace.from_ops([load(0x4000)])])
    done = []
    hit = mem.controller(0).load(0x4000, lambda: done.append(engine.now))
    assert hit is True
    engine.run()
    assert done


def test_system_refuses_more_warmup_traces_than_cores():
    """One warm-up trace per core at most: the refusal names both
    counts, where the walk used to fail on a missing controller."""
    traces = [Trace.from_ops([alu()])]
    warm = [Trace.from_ops([load(0x1000)]), Trace.from_ops([load(0x2000)])]
    with pytest.raises(ValueError, match="2 warm-up traces but only 1 "
                                         "cores"):
        System(traces, "x86", warm_caches=warm)
    System(traces, "x86", warm_caches=warm[:1])
