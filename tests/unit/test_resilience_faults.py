"""Deterministic fault injection (repro.resilience.faults).

The two load-bearing properties:

* **determinism** — same ``(spec, seed)`` means a byte-identical run,
  down to the stats JSON and the per-mechanism injection counts;
* **zero overhead** — a disabled plan (all-zero spec) leaves the run
  byte-identical to one with no plan at all, for every policy.
"""

import pytest

from repro.core.policies import POLICY_ORDER
from repro.resilience import DEFAULT_CHAOS, FaultPlan, FaultSpec
from repro.sim.config import TINY
from repro.sim.system import System
from repro.workloads import generate_workload, get_profile

#: Aggressive enough that every mechanism fires several times within a
#: few-thousand-cycle run (DEFAULT_CHAOS is tuned for litmus runs and
#: its squash period rarely fires in very short workloads).
AGGRESSIVE = FaultSpec(noc_jitter=6, noc_jitter_prob=0.5,
                       evict_period=50, squash_period=150,
                       sb_delay=4, sb_delay_prob=0.5)


def _run(policy="370-SLFSoS-key", faults=None, length=400, seed=0):
    traces = generate_workload(get_profile("fft"), 2, length, seed)
    system = System(traces, policy, TINY, faults=faults)
    return system.run()


def test_same_seed_is_byte_identical():
    plans = [FaultPlan(AGGRESSIVE, seed=7) for _ in range(2)]
    stats = [_run(faults=plan) for plan in plans]
    assert stats[0].to_json() == stats[1].to_json()
    assert plans[0].injected == plans[1].injected


def test_different_seeds_inject_differently():
    a = FaultPlan(AGGRESSIVE, seed=1)
    b = FaultPlan(AGGRESSIVE, seed=2)
    sa, sb = _run(faults=a), _run(faults=b)
    assert (a.injected, sa.to_json()) != (b.injected, sb.to_json())


def test_every_mechanism_fires_under_aggressive_spec():
    plan = FaultPlan(AGGRESSIVE, seed=11)
    stats = _run(faults=plan)
    assert all(plan.injected[kind] > 0
               for kind in ("noc", "evict", "squash", "sb")), plan.injected
    # Spurious squashes land in their own counter, not memdep's.
    assert stats.total.squashes_fault == plan.injected["squash"]


@pytest.mark.parametrize("policy", POLICY_ORDER)
def test_disabled_plan_is_zero_overhead(policy):
    """faults=None, a disabled plan, and DEFAULT_CHAOS-with-no-install
    must be indistinguishable: the hook sites stay on their fast path."""
    baseline = _run(policy=policy, faults=None)
    disabled = _run(policy=policy, faults=FaultPlan(FaultSpec(), seed=3))
    assert baseline.to_json() == disabled.to_json()


def test_faulted_run_still_passes_strict_invariants():
    # conftest sets REPRO_STRICT=1, so this run ends with a full
    # check_system sweep — injected faults must never corrupt the model.
    stats = _run(faults=FaultPlan(AGGRESSIVE, seed=4))
    assert stats.total.retired_instructions > 0


def test_plan_is_single_use():
    plan = FaultPlan(AGGRESSIVE, seed=0)
    _run(faults=plan)
    with pytest.raises(RuntimeError, match="single-use"):
        _run(faults=plan)


def test_spec_enabled_property():
    assert not FaultSpec().enabled
    assert DEFAULT_CHAOS.enabled
    assert FaultSpec(squash_period=10).enabled
    # A jitter magnitude with zero probability injects nothing.
    assert not FaultSpec(noc_jitter=8).enabled


@pytest.mark.parametrize("field, value", [
    ("noc_jitter", -1), ("evict_period", -5), ("squash_period", -1),
    ("sb_delay", -1), ("noc_jitter_prob", -0.5), ("noc_jitter_prob", 1.5),
    ("noc_jitter_prob", float("nan")), ("sb_delay_prob", 7.0)])
def test_spec_refuses_what_cannot_mean_what_it_asks(field, value):
    """A negative count switches a mechanism off silently (or fails
    every run), and a probability outside [0, 1] acts as 0 or 1: both
    are refused, naming the field.  0 turns a mechanism off."""
    with pytest.raises(ValueError, match=field):
        FaultSpec(**{field: value})
    FaultSpec(**{field: 0})


def test_plan_to_dict_is_json_safe():
    import json
    plan = FaultPlan(AGGRESSIVE, seed=9)
    _run(faults=plan)
    payload = json.loads(json.dumps(plan.to_dict()))
    assert payload["seed"] == 9
    assert payload["spec"]["evict_period"] == AGGRESSIVE.evict_period
    assert set(payload["injected"]) == {"noc", "evict", "squash", "sb"}
