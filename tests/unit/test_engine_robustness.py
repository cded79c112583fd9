"""Engine and System termination edge cases: drained queues,
``until=`` predicates, cycle-budget overruns, and true deadlocks must
all end in a clean return or a descriptive error — never a hang."""

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


def test_legacy_until_predicate_terminates():
    engine = Engine()

    def tick():
        engine.schedule(1, tick)

    engine.schedule(1, tick)
    engine.run(until=lambda: engine.now >= 50)
    assert engine.now == 50


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
