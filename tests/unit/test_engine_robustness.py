"""Engine and System termination edge cases: drained queues, the stop
flag, cycle-budget overruns, and true deadlocks must all end in a clean
return or a descriptive error — never a hang."""

import pytest

from repro.sim.config import TINY
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.workloads import generate_workload, get_profile


def test_run_on_empty_queue_returns_immediately():
    engine = Engine()
    assert engine.run() == 0
    assert engine.events_dispatched == 0


def test_stopped_flag_is_sticky():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.stop()
    engine.run()
    assert engine.events_dispatched == 0
    assert engine.pending == 1  # the event survives, undelivered


def test_max_cycles_leaves_engine_reusable():
    engine = Engine()
    fired = []

    def tick():
        fired.append(engine.now)
        engine.schedule(10, tick)

    engine.schedule(10, tick)
    engine.run(max_cycles=35)
    assert engine.now == 35
    assert fired == [10, 20, 30]
    # The budget stopped the run, not the engine: more budget, more events.
    engine.run(max_cycles=20)
    assert fired == [10, 20, 30, 40, 50]


def _traces(length=120):
    return generate_workload(get_profile("fft"), 2, length, 0)


def test_system_cycle_budget_overrun_is_descriptive():
    system = System(_traces(length=2_000), "x86", TINY)
    with pytest.raises(RuntimeError, match="exceeded 10 cycles"):
        system.run(max_cycles=10)


def test_system_deadlock_without_watchdog_is_an_error():
    """A wedged gate with no watchdog installed: the run must still end
    in a RuntimeError (drained queue or budget), never a silent hang."""
    from repro.cpu.isa import Trace, alu, load

    trace = Trace()
    for i in range(120):
        trace.append(load(0x1000 + (i % 8) * 64, pc=0x10))
        trace.append(alu())
    trace.validate()
    system = System([trace], "370-SLFSoS-key", TINY, warm_caches=False)
    gate = system.cores[0].policy.gate
    system.engine.at(50, gate.close, 3 | (1 << 31))
    with pytest.raises(RuntimeError, match="deadlock|exceeded"):
        system.run(max_cycles=100_000)


def test_drained_queue_deadlock_carries_per_core_snapshots(monkeypatch):
    """Requests that the directory never answers drain the event queue
    with both cores unfinished: the run raises the watchdog's
    DeadlockError, with one pipeline snapshot per core."""
    from repro.coherence.mesi import DirectoryBank
    from repro.cpu.isa import Trace, load
    from repro.resilience import DeadlockError

    monkeypatch.setattr(DirectoryBank, "request",
                        lambda bank, kind, line, requestor: None)
    traces = []
    for core in range(2):
        trace = Trace()
        for i in range(4):
            trace.append(load(0x100000 * (core + 1) + 64 * i))
        traces.append(trace)
    system = System(traces, "370-SLFSoS-key", TINY, warm_caches=False)
    with pytest.raises(DeadlockError,
                       match="^deadlock: no pending events") as err:
        system.run(max_cycles=100_000)
    cores = err.value.diagnostic["cores"]
    assert [snap["core"] for snap in cores] == [0, 1]
    assert not any(snap["finished"] for snap in cores)
