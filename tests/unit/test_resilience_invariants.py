"""Runtime invariant enforcement (repro.resilience.invariants).

The watchdog must catch a *deliberately* wedged pipeline two ways: the
invariant sweep names the broken invariant (gate locked by a dead key),
and with invariants off the forward-progress detector still converts the
hang into a structured DeadlockError.
"""

import json

import pytest

from repro.cpu.isa import Trace, alu, load
from repro.cpu.rob import ReorderBuffer
from repro.resilience import (DeadlockError, InvariantViolation, Watchdog,
                              check_system, system_diagnostic)
from repro.resilience.invariants import format_diagnostic
from repro.sim.config import TINY
from repro.sim.system import System
from repro.workloads import generate_workload, get_profile


def _load_only_trace(n=200):
    """Loads and ALUs only: with no stores the SB never drains from
    non-empty to empty, so 370-SLFSoS-key's drain-reopen never fires and
    an externally wedged gate stays closed forever."""
    trace = Trace()
    for i in range(n):
        trace.append(load(0x1000 + (i % 8) * 64, pc=0x10))
        trace.append(alu())
    trace.validate()
    return trace


def _wedged_system():
    """A healthy system whose gate gets locked, mid-run, with a key that
    names no live SB entry — the bug class the invariant exists for."""
    system = System([_load_only_trace(), _load_only_trace()],
                    "370-SLFSoS-key", TINY, warm_caches=False)
    gate = system.cores[0].policy.gate
    system.engine.at(50, gate.close, 3 | (1 << 31))
    return system


def test_wedged_gate_caught_by_invariant_sweep():
    system = _wedged_system()
    Watchdog(period=25, stall_limit=100_000).install(system)
    with pytest.raises(InvariantViolation, match="gate-key-live") as info:
        system.run(max_cycles=200_000)
    diag = info.value.diagnostic
    assert diag["invariant"] == "gate-key-live"
    assert diag["cores"][0]["gate_closed"] is True
    assert diag["cores"][0]["gate_key"] == 3 | (1 << 31)
    # The payload must be machine-readable as-is (CI consumes it).
    json.loads(format_diagnostic(diag))


def test_wedged_gate_caught_by_progress_detector():
    """Same wedge, invariants off: the forward-progress watchdog still
    refuses to hang and reports what the system was doing."""
    system = _wedged_system()
    Watchdog(period=100, stall_limit=2_000,
             invariants=False).install(system)
    with pytest.raises(DeadlockError, match="no forward progress") as info:
        system.run(max_cycles=2_000_000)
    diag = info.value.diagnostic
    assert diag["stalled_for"] >= 2_000
    # Core 1's trace completes; only the wedged core 0 stays unfinished.
    assert diag["unfinished_cores"] >= 1
    assert diag["cores"][0]["finished"] is False
    json.loads(format_diagnostic(diag))


def _healthy_system(length=300):
    traces = generate_workload(get_profile("fft"), 2, length, 0)
    return System(traces, "370-SLFSoS-key", TINY)


def test_healthy_run_passes_periodic_checks():
    system = _healthy_system()
    watchdog = Watchdog(period=50, stall_limit=500_000)
    watchdog.install(system)
    system.run()
    assert watchdog.checks_run > 0
    check_system(system)  # and once more at quiescence


def test_per_event_mode_checks_every_event():
    system = _healthy_system(length=80)
    watchdog = Watchdog(period=1_000, per_event=True)
    watchdog.install(system)
    system.run()
    # One sweep per dispatched event while the run was live — orders of
    # magnitude more than the periodic tick alone would do.
    assert watchdog.checks_run > system.engine.events_dispatched // 2


class _Entry:
    def __init__(self, seq, retired=False):
        self.seq = seq
        self.retired = retired


def test_sb_fifo_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.cores[0].sb = [_Entry(5, retired=True), _Entry(3)]
    with pytest.raises(InvariantViolation, match="sb-fifo"):
        check_system(system)


def test_sb_retired_prefix_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.cores[0].sb = [_Entry(3, retired=False), _Entry(5, retired=True)]
    with pytest.raises(InvariantViolation, match="sb-retired-prefix"):
        check_system(system)


def test_lq_age_order_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.cores[0].lq = [_Entry(7), _Entry(2)]
    with pytest.raises(InvariantViolation, match="lq-age-order"):
        check_system(system)


def _rob_holding(seqs):
    rob = ReorderBuffer(TINY.core.rob_entries)
    rob._entries.extend(_Entry(seq) for seq in seqs)
    return rob


def test_rob_order_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.cores[0].rob = _rob_holding([7, 2])
    with pytest.raises(InvariantViolation, match="rob-order"):
        check_system(system)


def test_rob_capacity_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.cores[0].rob = _rob_holding(range(TINY.core.rob_entries + 1))
    with pytest.raises(InvariantViolation, match="rob-capacity"):
        check_system(system)


def test_mesi_swmr_violation_detected():
    system = _healthy_system(length=60)
    system.run()
    system.memory.controllers[0].state[0xdead0] = "M"
    system.memory.controllers[1].state[0xdead0] = "S"
    with pytest.raises(InvariantViolation, match="mesi-swmr"):
        check_system(system)


def test_system_diagnostic_shape():
    system = _healthy_system(length=60)
    system.run()
    diag = system_diagnostic(system, note="post-run")
    assert diag["note"] == "post-run"
    assert diag["unfinished_cores"] == 0
    assert len(diag["cores"]) == 2
    for core in diag["cores"]:
        assert core["finished"] is True
        assert core["retired"] > 0
    json.loads(format_diagnostic(diag))


def test_watchdog_guards_bad_arguments():
    with pytest.raises(ValueError):
        Watchdog(period=0)
    system = _healthy_system(length=60)
    watchdog = Watchdog()
    watchdog.install(system)
    with pytest.raises(RuntimeError, match="already installed"):
        watchdog.install(system)
    system.run()
