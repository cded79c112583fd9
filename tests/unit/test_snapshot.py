"""Snapshot round-trip guarantees.

The contract under test (docs/SNAPSHOT.md):

* a checkpointed run is its own deterministic mode — two runs agree,
  and a run resumed from *any* checkpoint blob finishes with exactly
  the stats of the uninterrupted checkpointed run, fault plan and all;
* capture refuses non-quiescent systems, restore refuses mismatched
  traces/config, and the binary form fails fast on foreign or
  version-skewed blobs.
"""

import dataclasses

import pytest

from repro.core.policies import POLICY_ORDER
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sim.config import TINY
from repro.sim.system import System
from repro.snapshot import (NotQuiescent, Snapshot, SnapshotError, capture,
                            restore)
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_warmup, generate_workload

CORES = 2
LENGTH = 400


def _traces(name="fft", length=LENGTH, seed=0):
    return generate_workload(PROFILES[name], CORES, length, seed)


def _warm(name="fft", length=LENGTH, seed=0):
    return generate_warmup(PROFILES[name], CORES, length, seed)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICY_ORDER)
def test_resume_from_bytes_matches_uninterrupted(policy):
    """Serialize the first checkpoint, restore it in a fresh System,
    finish — byte-identical stats to the uninterrupted checkpointed
    run, for every policy."""
    traces = _traces()
    warm = _warm()
    snaps = []
    uninterrupted = System(traces, policy, warm_caches=warm).run(
        checkpoint_every=150, on_checkpoint=snaps.append)
    assert snaps, "run too short to checkpoint — lengthen the trace"

    blob = snaps[0].to_bytes()
    resumed_system = restore(Snapshot.from_bytes(blob), traces)
    assert resumed_system.policy_name == policy
    resumed = resumed_system.run(checkpoint_every=150)
    assert resumed.to_dict() == uninterrupted.to_dict()


def test_checkpointed_run_is_deterministic():
    traces = _traces()
    kwargs = dict(checkpoint_every=150)
    a = System(traces, "370-SLFSoS", warm_caches=_warm()).run(**kwargs)
    b = System(traces, "370-SLFSoS", warm_caches=_warm()).run(**kwargs)
    assert a.to_dict() == b.to_dict()


def test_faulted_resume_matches_uninterrupted():
    """The fault plan's RNG stream, injected counters, and periodic
    metronomes all survive the round trip: resume from every
    checkpoint of a faulted run and land on identical stats."""
    spec = FaultSpec(noc_jitter=4, noc_jitter_prob=0.2, evict_period=250,
                     squash_period=700, sb_delay=3, sb_delay_prob=0.2)
    traces = _traces("barnes", length=1500, seed=3)

    def run_ckpt(sink):
        plan = FaultPlan(spec, seed=11)
        system = System(traces, "370-SLFSoS", faults=plan)
        return system.run(checkpoint_every=400, on_checkpoint=sink), plan

    snaps = []
    stats, plan = run_ckpt(snaps.append)
    again, plan2 = run_ckpt(lambda s: None)
    assert stats.to_dict() == again.to_dict()
    assert plan.injected == plan2.injected
    assert snaps, "run too short to checkpoint — lengthen the trace"

    for i, snap in enumerate(snaps):
        resumed_system = restore(Snapshot.from_bytes(snap.to_bytes()),
                                 traces)
        resumed = resumed_system.run(checkpoint_every=400)
        assert resumed.to_dict() == stats.to_dict(), f"checkpoint {i}"
        assert resumed_system.faults.injected == plan.injected, \
            f"checkpoint {i}"


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def test_capture_refuses_mid_flight_system():
    traces = _traces()
    system = System(traces, "370-SLFSoS")
    for core in system.cores:
        core.start()
    system.engine.run(max_cycles=40)
    with pytest.raises(NotQuiescent) as exc:
        capture(system)
    assert exc.value.reasons


def test_restore_rejects_mismatched_traces():
    system = System(_traces(), "370-SLFSoS", warm_caches=_warm())
    snap = capture(system)
    with pytest.raises(SnapshotError):
        restore(snap, _traces(length=LENGTH + 1))


def test_restore_rejects_mismatched_config():
    traces = _traces()
    snap = capture(System(traces, "370-SLFSoS"))
    with pytest.raises(SnapshotError):
        restore(snap, traces, config=TINY)


# ---------------------------------------------------------------------------
# binary form
# ---------------------------------------------------------------------------

def test_from_bytes_rejects_foreign_blob():
    with pytest.raises(SnapshotError):
        Snapshot.from_bytes(b"not a snapshot at all")


def test_from_bytes_rejects_corrupt_payload():
    blob = capture(System(_traces(), "370-SLFSoS")).to_bytes()
    with pytest.raises(SnapshotError):
        Snapshot.from_bytes(blob[:-7])


def test_from_bytes_rejects_version_skew():
    snap = capture(System(_traces(), "370-SLFSoS"))
    snap.data["version"] += 1
    blob = snap.to_bytes()
    with pytest.raises(SnapshotError) as exc:
        Snapshot.from_bytes(blob)
    assert "version" in str(exc.value)


def test_round_trip_preserves_payload():
    snap = capture(System(_traces(), "370-SLFSoS", warm_caches=_warm()))
    clone = Snapshot.from_bytes(snap.to_bytes())
    # data-level equality would be too strict — JSON canonicalizes
    # tuples to lists — but the canonical byte form is a fixed point.
    assert clone.to_bytes() == snap.to_bytes()
    assert clone.pristine == snap.pristine
    assert clone.cycle == snap.cycle
