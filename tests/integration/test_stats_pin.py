"""Pinned stats digests: the byte-identity contract, checked per cell.

The paper's Fig. 10 compares five configurations on identical traces,
so a change that is meant to be performance-only must leave every
statistic of every cell exactly as it was.  Each pin below is the first
16 hex characters of SHA-256 over the canonical JSON of
:func:`repro.sweep.runner.execute_job`'s payload
(``json.dumps(payload, sort_keys=True, separators=(",", ":"))``, no
trailing newline — :func:`repro.sweep.cache.content_key`).

A perf-only change that moves any stat fails here.  A modelling change
updates the pins in the same change and says so in CHANGES.md.

The barnes 8-core × 750 cell is the kernel-speed bench's cell in its CI
shape; its pin is also the output of the original, pre-fast-path event
kernel.  Its count of dispatched engine events is pinned too: the
bench's events/sec divides that count, and the CI kernel-speed job
checks the bench's row against both pins.

Two off-default regimes are pinned under all five policies, plus one
obs cell each.  The core folds next-cycle completions into its next
tick (``Core._tick``) and must fall back to engine events in both: with
``l1_evict_squash`` an L1 castout squashes inside a tick and wakes the
core for the same cycle, and on a 1-cycle machine a load's issue
itself schedules next-cycle events.
"""

import pytest

from repro.sim.config import (CacheConfig, CoreConfig, MemoryConfig,
                              NetworkConfig, SystemConfig)
from repro.sim.system import System
from repro.sweep import SweepJob, run_sweep
from repro.sweep.cache import content_key
from repro.sweep.runner import execute_job
from repro.workloads.runner import (cell_traces, observe_benchmark,
                                    run_benchmark, run_policy_sweep)

CORES = 2
LENGTH = 400
KEY = "370-SLFSoS-key"

#: (name, policy) at CORES × LENGTH, seed 0.
GRID_PINS = {
    ("fft", "x86"): "7231de8b27456bed",
    ("fft", "370-NoSpec"): "c4a76f0aa0e2b1a6",
    ("fft", "370-SLFSpec"): "08185bd5ff9f4221",
    ("fft", "370-SLFSoS"): "0c7e563c7f47d47b",
    ("fft", "370-SLFSoS-key"): "2bcdcd17fbe169ed",
    ("radix", "x86"): "a5eb3bd077715dcc",
    ("radix", "370-NoSpec"): "a35f34b07295b276",
    ("radix", "370-SLFSpec"): "b01c328006cb1989",
    ("radix", "370-SLFSoS"): "b92a0bc10e96b39f",
    ("radix", "370-SLFSoS-key"): "a3c14f4c81b4e3d5",
    ("barnes", "x86"): "b830c0eda534f09a",
    ("barnes", "370-NoSpec"): "3272b78a1961c363",
    ("barnes", "370-SLFSpec"): "42220d9c139e7606",
    ("barnes", "370-SLFSoS"): "5d0854589271e86c",
    ("barnes", "370-SLFSoS-key"): "5c667bf6c45e1bd4",
    ("502.gcc_1", "x86"): "c11eb4eee5fc06b0",
    ("502.gcc_1", "370-NoSpec"): "743b17a5565d0ce2",
    ("502.gcc_1", "370-SLFSpec"): "a709e06b5b9f2504",
    ("502.gcc_1", "370-SLFSoS"): "c9cc3701b2999806",
    ("502.gcc_1", "370-SLFSoS-key"): "e52116b3762da53d",
}

#: fft × KEY at CORES × LENGTH with one job flag set: flag -> (value,
#: pin).  Then the kernel bench's cell.
FLAG_PINS = {
    "obs": (True, "8c1f290476309e8d"),
    "detect_violations": (True, "2bcdcd17fbe169ed"),
    "memdep_hints": (False, "d9476b02327e515b"),
}
KERNEL_CELL = SweepJob(name="barnes", policy=KEY, cores=8, length=750)
KERNEL_PIN = "b60c392473e0487f"
KERNEL_EVENTS = 11_943

#: Off-default configurations: L1 castouts squash speculative loads
#: (with a 4 KB L1, so they do inside ticks), and a machine whose L1
#: hit, forwarding, store commit and network hop each take one cycle.
REGIMES = {
    "l1-evict-squash": SystemConfig(
        core=CoreConfig(l1_evict_squash=True),
        memory=MemoryConfig(l1=CacheConfig(4 * 1024, 2, 4))),
    "one-cycle": SystemConfig(
        core=CoreConfig(forward_latency=1),
        memory=MemoryConfig(l1=CacheConfig(32 * 1024, 8, 1),
                            store_commit_latency=1),
        network=NetworkConfig(switch_latency=0, data_flits=1,
                              control_flits=1)),
}
#: (regime, policy) at radix × CORES × LENGTH, seed 0; "obs" is KEY
#: with the observability layer attached.
REGIME_PINS = {
    ("l1-evict-squash", "x86"): "eddf3513af929cf4",
    ("l1-evict-squash", "370-NoSpec"): "e6dd0bd032779e74",
    ("l1-evict-squash", "370-SLFSpec"): "1b8772ec7c950777",
    ("l1-evict-squash", "370-SLFSoS"): "dd1f27dca00e229c",
    ("l1-evict-squash", "370-SLFSoS-key"): "b0a79e3e5fca3da9",
    ("l1-evict-squash", "obs"): "a74310f5d0a0e260",
    ("one-cycle", "x86"): "e007ea6b3608ece1",
    ("one-cycle", "370-NoSpec"): "8c0a87b4630bc37a",
    ("one-cycle", "370-SLFSpec"): "a869961fbdaca172",
    ("one-cycle", "370-SLFSoS"): "c006c43c91da25d6",
    ("one-cycle", "370-SLFSoS-key"): "b9b2d863b0bd9833",
    ("one-cycle", "obs"): "3608a46e21c02180",
}


def digest(payload):
    return content_key(payload)[:16]


def _job(name="fft", policy=KEY, **flags):
    return SweepJob(name=name, policy=policy, cores=CORES, length=LENGTH,
                    **flags)


@pytest.mark.parametrize("cell", sorted(GRID_PINS), ids="/".join)
def test_grid_cell_is_pinned(cell):
    name, policy = cell
    assert digest(execute_job(_job(name, policy))) == GRID_PINS[cell]


@pytest.mark.parametrize("flag", FLAG_PINS)
def test_flagged_cell_is_pinned(flag):
    value, pin = FLAG_PINS[flag]
    assert digest(execute_job(_job(**{flag: value}))) == pin


@pytest.mark.parametrize("cell", sorted(REGIME_PINS), ids="/".join)
def test_regime_cell_is_pinned(cell):
    regime, policy = cell
    obs = policy == "obs"
    job = _job("radix", KEY if obs else policy, obs=obs,
               config=REGIMES[regime])
    assert digest(execute_job(job)) == REGIME_PINS[cell]


def test_kernel_bench_cell_is_pinned():
    assert digest(execute_job(KERNEL_CELL)) == KERNEL_PIN


def test_kernel_bench_cell_event_count_is_pinned():
    """Built as the kernel bench builds it, the cell reaches its pin in
    exactly KERNEL_EVENTS dispatched events."""
    cell = KERNEL_CELL
    traces, warm = cell_traces(cell.name, cell.cores, cell.length,
                               cell.seed)
    system = System(traces, cell.policy, warm_caches=warm)
    assert digest(system.run().to_dict()) == KERNEL_PIN
    assert system.engine.events_dispatched == KERNEL_EVENTS


def test_every_cell_entry_point_reaches_the_pin():
    """The library and sweep entry points build the same traces and
    produce the same stats as execute_job."""
    kw = dict(cores=CORES, length=LENGTH)
    reached = {
        "run_benchmark": run_benchmark("fft", KEY, **kw).stats,
        "observe_benchmark": observe_benchmark("fft", KEY, **kw)[0].stats,
        "run_policy_sweep": run_policy_sweep("fft", [KEY], **kw)[KEY].stats,
        "run_sweep": run_sweep([_job()], workers=1,
                               cache=False).results[0].stats,
    }
    pin = GRID_PINS[("fft", KEY)]
    assert ({where: digest(stats.to_dict())
             for where, stats in reached.items()}
            == dict.fromkeys(reached, pin))
