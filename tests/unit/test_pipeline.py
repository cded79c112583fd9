"""Directed tests of the out-of-order pipeline on small systems."""

import pytest

from repro.core.policies import POLICY_ORDER
from repro.cpu.isa import Trace, alu, branch, fence, load, store
from repro.sim.config import (CacheConfig, CoreConfig, MemoryConfig,
                              SystemConfig)
from repro.sim.system import System, simulate

SMALL = SystemConfig(
    cores=2,
    core=CoreConfig(rob_entries=32, lq_entries=12, sq_sb_entries=8, mshrs=4),
    memory=MemoryConfig(
        l1=CacheConfig(4 * 1024, 2, 4),
        l2=CacheConfig(16 * 1024, 4, 12),
        l3_bank=CacheConfig(64 * 1024, 8, 35),
        l3_banks=2,
        prefetcher=False,
    ),
)


def run(traces, policy, warm=True, **kwargs):
    return simulate(traces, policy, config=SMALL, warm_caches=warm, **kwargs)


def fwd_trace(n=20, addr=0x1000):
    """store->load pairs to one address, with dependent work."""
    t = Trace()
    for _ in range(n):
        s = t.append(store(addr, pc=0x10))
        t.append(load(addr, deps=(), pc=0x20))
        t.append(alu(deps=(t.append(alu()) ,)))
    t.memdep_hints = [(0x20, 0x10)]
    t.validate()
    return t


class TestBasicExecution:
    def test_retires_whole_trace(self):
        trace = Trace.from_ops([alu() for _ in range(10)])
        stats = run([trace], "x86")
        assert stats.total.retired_instructions == 10

    def test_all_policies_complete(self):
        trace = fwd_trace()
        for policy in POLICY_ORDER:
            stats = run([trace], policy)
            assert stats.total.retired_instructions == len(trace), policy

    def test_empty_dependency_chain_parallelism(self):
        """Independent ALUs retire at nearly the issue width."""
        trace = Trace.from_ops([alu() for _ in range(500)])
        stats = run([trace], "x86")
        ipc = 500 / stats.execution_cycles
        assert ipc > 3.0

    def test_dependent_chain_serializes(self):
        ops = [alu()]
        for i in range(499):
            ops.append(alu(deps=(i,)))
        stats = run([Trace.from_ops(ops)], "x86")
        ipc = 500 / stats.execution_cycles
        assert ipc < 1.2


class TestForwarding:
    def test_x86_forwards(self):
        stats = run([fwd_trace()], "x86")
        assert stats.total.slf_loads == 20

    def test_nospec_never_forwards(self):
        stats = run([fwd_trace()], "370-NoSpec")
        assert stats.total.slf_loads == 0
        assert stats.total.sb_wait_events >= 20

    def test_nospec_slower_than_x86_on_forwarding_chain(self):
        """The load must wait for the store to reach the L1: dependent
        chains serialize (the cost the paper quantifies as 1.27x)."""
        t = Trace()
        prev = None
        for _ in range(50):
            s = t.append(store(0x1000, deps=(prev,) if prev is not None
                               else ()))
            ld = t.append(load(0x1000, pc=0x20))
            prev = t.append(alu(deps=(ld,)))
        t.memdep_hints = [(0x20, 0)]
        x86 = run([t], "x86").execution_cycles
        nospec = run([t], "370-NoSpec").execution_cycles
        assert nospec > x86 * 1.2

    def test_forwarding_from_youngest_matching_store(self):
        """Two stores to the same address: the load forwards and still
        retires exactly once with correct counts."""
        t = Trace()
        t.append(store(0x1000))
        t.append(store(0x1000))
        t.append(load(0x1000))
        stats = run([t], "x86")
        assert stats.total.slf_loads == 1


class TestGateBehaviour:
    def test_sos_key_closes_and_reopens_gate(self):
        stats = run([fwd_trace()], "370-SLFSoS-key")
        assert stats.total.gate_closes > 0
        assert stats.total.retired_instructions == len(fwd_trace())

    def test_x86_never_closes_gate(self):
        stats = run([fwd_trace()], "x86")
        assert stats.total.gate_closes == 0

    def test_gate_stall_requires_younger_load(self):
        """A lone forwarding pair with no trailing load never produces a
        gate stall event."""
        t = Trace()
        t.append(store(0x1000, pc=0x10))
        t.append(load(0x1000, pc=0x20))
        t.memdep_hints = [(0x20, 0x10)]
        stats = run([t], "370-SLFSoS-key")
        assert stats.total.gate_stall_events == 0


class TestFence:
    def test_fence_waits_for_sb_drain(self):
        t = Trace()
        t.append(store(0x1000))
        t.append(fence())
        t.append(load(0x2000))
        stats = run([t], "x86")
        assert stats.total.retired_instructions == 3

    def test_fence_orders_store_load(self):
        """Fenced store->load takes at least the store's drain latency."""
        plain = Trace.from_ops([store(0x1000), load(0x2000)])
        fenced = Trace.from_ops([store(0x1000), fence(), load(0x2000)])
        fast = run([plain], "x86").execution_cycles
        slow = run([fenced], "x86").execution_cycles
        assert slow >= fast


class TestBranches:
    def test_mispredict_slows_execution(self):
        good = Trace.from_ops(
            [branch() if i % 5 == 0 else alu() for i in range(200)])
        bad = Trace.from_ops(
            [branch(mispredict=True) if i % 5 == 0 else alu()
             for i in range(200)])
        fast = run([good], "x86").execution_cycles
        slow = run([bad], "x86").execution_cycles
        assert slow > fast * 1.5


class TestMemoryDependence:
    def test_unhinted_collision_squashes_then_learns(self):
        """A load issued past an unresolved same-address store is
        squashed when the store resolves; StoreSet training prevents the
        next occurrence."""
        t = Trace()
        for i in range(10):
            # The store's address resolves late (dependent on slow ALU).
            slow = t.append(alu(latency=3))
            t.append(store(0x3000, deps=(slow,), pc=0x30))
            t.append(load(0x3000, pc=0x40))
            t.append(alu())
        stats = run([t], "x86")
        assert stats.total.squashes_memdep >= 1
        assert stats.total.squashes_memdep <= 3  # learned quickly
        assert stats.total.retired_instructions == len(t)

    def test_hinted_pairs_never_squash(self):
        t = Trace()
        for i in range(10):
            slow = t.append(alu(latency=3))
            t.append(store(0x3000, deps=(slow,), pc=0x30))
            t.append(load(0x3000, pc=0x40))
        t.memdep_hints = [(0x40, 0x30)]
        stats = run([t], "x86")
        assert stats.total.squashes_memdep == 0

    def test_store_resolves_before_a_load_performing_that_cycle(self):
        """On a machine with a 1-cycle L1, a store's address generation
        and a younger same-address load's L1 hit issue in one cycle, and
        both finish the next, store first (it issued first).  The core
        folds the store's completion into its next tick, but the load's
        perform event lands behind it, so the completion goes back into
        the bucket ahead of it: the store squashes the load (cycle 2)
        before the load performs, and the load performs once, re-run."""
        from repro.obs.bus import ProbeBus
        from repro.sim.config import NetworkConfig
        config = SystemConfig(
            cores=1, core=CoreConfig(forward_latency=1),
            memory=MemoryConfig(l1=CacheConfig(32 * 1024, 8, 1),
                                store_commit_latency=1),
            network=NetworkConfig(switch_latency=0, data_flits=1,
                                  control_flits=1))
        t = Trace()
        t.append(store(0x3000, pc=0x30))
        t.append(load(0x3000, pc=0x40))
        bus = ProbeBus()
        performs, squashes = [], []
        bus.subscribe("load.perform", lambda *args: performs.append(args))
        bus.subscribe("squash.memdep", lambda *args: squashes.append(args))
        System([t], "x86", config=config, probes=bus).run()
        assert squashes == [(0, 2, 1, 1)]  # (core, cycle, from_seq, flushed)
        assert [(cycle, seq) for _, cycle, seq, *_ in performs] == [(4, 1)]


class TestInvalidationSquash:
    def _contended(self):
        """Core 0 reads a shared line speculatively past older cold-miss
        loads; core 1 writes it, invalidating core 0's speculative
        loads (classic TSO load-load ordering squash)."""
        reader = Trace()
        for i in range(40):
            reader.append(load(0x80000 + 64 * i))   # cold miss: slow
            reader.append(load(0x7000))             # shared hot line
        writer = Trace()
        prev = None
        for i in range(40):
            writer.append(store(0x7000))
            for _ in range(3):
                prev = writer.append(
                    alu(deps=(prev,) if prev is not None else (),
                        latency=3))
        return reader, writer

    def test_inval_squashes_speculative_loads(self):
        reader, writer = self._contended()
        stats = run([reader, writer], "x86", warm=False)
        assert stats.total.squashes_inval > 0
        assert stats.total.retired_instructions == len(reader) + len(writer)

    def test_squash_reexecution_counted(self):
        reader, writer = self._contended()
        stats = run([reader, writer], "x86", warm=False)
        assert stats.total.reexecuted_instructions > 0


class TestViolationWitness:
    def _window_workload(self):
        """Fig. 6/7: core 0 forwards st x -> ld x, then loads y; core 1
        keeps writing y, landing invalidations in the window."""
        core0 = Trace()
        for i in range(60):
            core0.append(store(0x100, pc=0x10))
            core0.append(load(0x100, pc=0x20))
            core0.append(load(0x4000, pc=0x30))
        core0.memdep_hints = [(0x20, 0x10)]
        core1 = Trace()
        for i in range(60):
            core1.append(store(0x4000, pc=0x50))
            core1.append(alu())
        return core0, core1

    def test_x86_witnesses_violations(self):
        core0, core1 = self._window_workload()
        stats = simulate([core0, core1], "x86", config=SMALL,
                         detect_violations=True)
        assert stats.total.store_atomicity_violations > 0

    @pytest.mark.parametrize("policy", POLICY_ORDER[1:])
    def test_store_atomic_policies_witness_none(self, policy):
        core0, core1 = self._window_workload()
        stats = simulate([core0, core1], policy, config=SMALL,
                         detect_violations=True)
        assert stats.total.store_atomicity_violations == 0


class TestStallAccounting:
    def test_stall_percentages_bounded(self):
        trace = fwd_trace(100)
        for policy in POLICY_ORDER:
            stats = run([trace], policy)
            for name, pct in stats.total.stall_pct.items():
                assert 0.0 <= pct <= 100.0, (policy, name, pct)

    def test_sq_fills_under_store_pressure(self):
        t = Trace()
        for i in range(400):
            t.append(store(0x100000 + 64 * i))  # cold streaming stores
        stats = run([t], "x86", warm=False)
        assert stats.total.stall_cycles_sq > 0


class TestDrainAheadRfo:
    STORES = 6

    def test_retried_only_after_a_transaction_finishes(self, monkeypatch):
        """Every MSHR busy and no fill ever arriving: each pending store
        is offered to ``prefetch_exclusive`` when its address resolves
        and in one drain-ahead round, not once per tick."""
        from repro.coherence.mesi import DirectoryBank, PrivateController
        from repro.cpu.pipeline import Core

        calls, ticks = [], []
        offer = PrivateController.prefetch_exclusive
        tick = Core._tick
        monkeypatch.setattr(
            PrivateController, "prefetch_exclusive",
            lambda ctrl, addr: calls.append(addr) or offer(ctrl, addr))
        monkeypatch.setattr(
            Core, "_tick", lambda core: ticks.append(1) or tick(core))
        # Requests never reach the directory, so no transaction finishes.
        monkeypatch.setattr(DirectoryBank, "request",
                            lambda bank, kind, line, requestor: None)
        t = Trace()
        for i in range(self.STORES):
            t.append(store(0x100000 + 4096 * i))
        for _ in range(2000):
            t.append(alu())
        system = System([t], "x86", config=SMALL, warm_caches=False)
        with pytest.raises(RuntimeError, match="deadlock"):
            system.run()
        ctrl = system.memory.controllers[0]
        assert len(ctrl.txns) == SMALL.core.mshrs
        assert ctrl.txns_finished == 0
        assert len(ticks) > 50 * self.STORES
        assert len(calls) <= 2 * self.STORES


class TestDeterminism:
    def test_same_run_same_cycles(self):
        trace = fwd_trace(50)
        a = run([trace, trace], "370-SLFSoS-key").execution_cycles
        b = run([trace, trace], "370-SLFSoS-key").execution_cycles
        assert a == b
