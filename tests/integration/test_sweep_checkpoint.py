"""Checkpointed sweep jobs and sweep worker sizing.

* ``checkpoint_every`` is a distinct deterministic mode: it joins the
  cache key, refuses observer jobs, and ``execute_job`` resumes from a
  crash blob to the exact stats of the uninterrupted run, then clears
  the blob.
* ``workers=None`` sizes the pool as ``REPRO_WORKERS`` (or the CPU
  count) capped at the uncached jobs, runs in-process when that is 1,
  and records which way it went in ``SweepOutcome.mode``.
"""

import dataclasses

import pytest

from repro.sweep import SweepJob, job_key, run_sweep
from repro.sweep.cache import ResultCache
from repro.sweep.runner import execute_job

NAME = "fft"
POLICY = "370-SLFSoS"
CORES = 2
LENGTH = 400


def _job(**kw):
    base = dict(name=NAME, policy=POLICY, cores=CORES, length=LENGTH)
    base.update(kw)
    return SweepJob(**base)


# ---------------------------------------------------------------------------
# checkpoint_every: validation and identity
# ---------------------------------------------------------------------------

def test_checkpoint_every_must_be_positive():
    with pytest.raises(ValueError):
        _job(checkpoint_every=0)


def test_checkpoint_every_refuses_observers():
    with pytest.raises(ValueError):
        _job(checkpoint_every=200, obs=True)
    with pytest.raises(ValueError):
        _job(checkpoint_every=200, detect_violations=True)


def test_checkpoint_every_changes_the_cache_key():
    plain = _job()
    ckpt = _job(checkpoint_every=200)
    other = _job(checkpoint_every=300)
    assert len({job_key(plain), job_key(ckpt), job_key(other)}) == 3


def test_checkpoint_every_round_trips_through_dicts():
    job = _job(checkpoint_every=200)
    assert SweepJob.from_dict(job.to_dict()) == job
    # unset stays out of the payload, so old keys are untouched
    assert "checkpoint_every" not in _job().to_dict()


# ---------------------------------------------------------------------------
# crash resume
# ---------------------------------------------------------------------------

def test_execute_job_resumes_from_crash_blob(tmp_path):
    """Simulate a crash: leave a mid-run blob in the cache, re-execute,
    and land on the uninterrupted checkpointed run's exact stats."""
    job = _job(checkpoint_every=150)
    cache_dir = tmp_path / "cache"
    store = ResultCache(cache_dir)
    key = job_key(job)

    uninterrupted = execute_job(job, cache_dir)
    # the happy path leaves no residue behind
    assert store.get_blob(key) is None
    assert store.get_progress(key) is None

    # now "crash": run just far enough to write one checkpoint blob,
    # then hand the half-done cache to a fresh execute_job
    snaps = []
    from repro.sim.system import System
    from repro.workloads.runner import cell_traces
    traces, warm = cell_traces(NAME, CORES, LENGTH, job.seed)
    System(traces, POLICY, warm_caches=warm).run(
        checkpoint_every=150, on_checkpoint=snaps.append)
    assert snaps, "run too short to checkpoint — lengthen the trace"
    store.put_blob(key, snaps[0].to_bytes())

    resumed = execute_job(job, cache_dir)
    assert resumed == uninterrupted
    assert store.get_blob(key) is None, "blob must be cleared on success"


def test_corrupt_blob_falls_back_to_fresh_run(tmp_path):
    job = _job(checkpoint_every=150)
    cache_dir = tmp_path / "cache"
    store = ResultCache(cache_dir)
    key = job_key(job)
    store.put_blob(key, b"RSNAP1\x00garbage that will not decompress")

    fresh = execute_job(job, cache_dir)
    assert fresh == execute_job(job, cache_dir)
    assert store.get_blob(key) is None


def test_blob_and_progress_round_trip(tmp_path):
    store = ResultCache(tmp_path / "cache")
    assert store.get_blob("k") is None
    store.put_blob("k", b"\x00\x01payload")
    assert store.get_blob("k") == b"\x00\x01payload"
    store.clear_blob("k")
    assert store.get_blob("k") is None

    assert store.get_progress("k") is None
    store.put_progress("k", {"cycle": 42, "name": NAME})
    assert store.get_progress("k") == {"cycle": 42, "name": NAME}
    store.clear_progress("k")
    assert store.get_progress("k") is None


def test_checkpointed_sweep_matches_direct_execution(tmp_path):
    """run_sweep carries checkpoint_every through the worker path and
    the cache dir through to the resume machinery."""
    jobs = [_job(checkpoint_every=150),
            _job(policy="x86", checkpoint_every=150)]
    outcome = run_sweep(jobs, workers=1, cache_dir=tmp_path / "cache")
    assert outcome.simulated == 2
    for job, res in zip(jobs, outcome.results):
        assert res.stats.to_dict() == execute_job(job, None)


# ---------------------------------------------------------------------------
# worker sizing
# ---------------------------------------------------------------------------

def test_explicit_workers_record_plain_modes(tmp_path, monkeypatch):
    """An explicit ``workers`` and default sizing (``REPRO_WORKERS``
    capped at the uncached jobs) record the same two modes, and every
    mode computes the same numbers."""
    pair = [_job(), _job(policy="x86")]
    serial = run_sweep([_job()], workers=1, cache_dir=tmp_path / "c1")
    assert serial.mode == "serial" and serial.workers == 1
    parallel = run_sweep(pair, workers=2, cache_dir=tmp_path / "c2")
    assert parallel.mode == "parallel" and parallel.workers == 2

    monkeypatch.setenv("REPRO_WORKERS", "2")
    sized = run_sweep(pair, cache_dir=tmp_path / "c3")
    assert (sized.mode, sized.workers, sized.simulated) == ("parallel", 2, 2)
    # Two of these three are cached now: one uncached job runs in-process.
    one = run_sweep(pair + [_job(policy="370-NoSpec")],
                    cache_dir=tmp_path / "c3")
    assert (one.mode, one.workers, one.simulated) == ("serial", 1, 1)

    monkeypatch.setenv("REPRO_WORKERS", "1")
    pinned = run_sweep(pair, cache_dir=tmp_path / "c4")
    assert (pinned.mode, pinned.workers, pinned.simulated) == ("serial", 1, 2)
    for a, b, c in zip(parallel.results, sized.results, pinned.results):
        assert (dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
                == dataclasses.asdict(c.stats))
