"""Crash tolerance of the sweep runner: timeouts, worker exceptions,
retries, Ctrl-C, and cache corruption must all leave the sweep able to
finish and report — a night-long sweep never dies to one bad cell."""

import dataclasses
import signal

import pytest

from repro.sim.config import TINY
from repro.sweep import SweepJob, run_sweep
from repro.sweep.cache import ResultCache
from repro.sweep.runner import (JobTimeout, execute_job, job_key,
                                with_deadline)

CORES = 2
#: 2 traces on a 1-core config: System.__init__ raises ValueError —
#: a deterministic in-worker failure with no monkeypatching needed.
BROKEN_CONFIG = dataclasses.replace(TINY, cores=1)


def _good(policy="x86", length=300):
    return SweepJob(name="fft", policy=policy, cores=CORES, length=length,
                    config=TINY)


def _raising(policy="370-NoSpec"):
    return SweepJob(name="fft", policy=policy, cores=CORES, length=300,
                    config=BROKEN_CONFIG)


def _slow(policy="370-SLFSpec"):
    return SweepJob(name="fft", policy=policy, cores=CORES, length=50_000,
                    config=TINY)


#: A deadline that ``_good()`` always meets and ``_slow()`` never does:
#: ``_good()`` takes 17-29 ms warm and ~80 ms as a process's first cell
#: (generation included), on a host that runs 1-2x slow in spells;
#: ``_slow()`` takes ~3.9 s.
TIMEOUT = 1.0


def test_worker_exception_becomes_structured_error(tmp_path):
    outcome = run_sweep([_good(), _raising()], workers=1,
                        cache_dir=tmp_path)
    assert outcome.results[0] is not None
    assert outcome.results[1] is None
    assert outcome.failed == 1 and not outcome.interrupted
    err = outcome.errors[1]
    assert err["type"] == "ValueError"
    assert "traces but only" in err["message"]
    assert err["attempts"] == 1 and err["timeout"] is False
    assert outcome.errors[0] is None


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="per-job timeouts need SIGALRM")
def test_timeout_cell_is_flagged_and_sweep_completes(tmp_path):
    outcome = run_sweep([_good(), _slow()], workers=1,
                        cache_dir=tmp_path, timeout=TIMEOUT)
    assert outcome.results[0] is not None
    assert outcome.results[1] is None
    err = outcome.errors[1]
    assert err["type"] == "JobTimeout" and err["timeout"] is True


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="per-job timeouts need SIGALRM")
def test_timeout_nests_inside_an_outer_alarm():
    """The in-process guard must restore a caller's armed timer (the
    test suite itself runs under one) instead of clobbering it."""
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        with pytest.raises(JobTimeout):
            with_deadline(lambda: execute_job(_slow()), 0.05, "fft/slow")
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        assert 0 < remaining <= 60.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_mixed_pool_sweep_completes_and_caches_survivors(tmp_path):
    jobs = [_good(), _raising(), _slow()]
    outcome = run_sweep(jobs, workers=2, cache_dir=tmp_path,
                        timeout=TIMEOUT)
    assert [r is not None for r in outcome.results] == [True, False, False]
    assert outcome.failed == 2
    # The good cell was cached despite its neighbours failing.
    again = run_sweep([_good()], workers=1, cache_dir=tmp_path)
    assert again.cached == 1 and again.simulated == 0


def test_retries_are_bounded_and_counted(tmp_path):
    notes = []
    outcome = run_sweep([_raising()], workers=1, cache_dir=tmp_path,
                        retries=2, backoff=0.0, progress=notes.append)
    assert outcome.failed == 1
    assert outcome.errors[0]["attempts"] == 3  # 1 try + 2 retries
    assert sum("retrying" in n for n in notes) == 2


def test_identical_failing_jobs_share_one_error(tmp_path):
    job = _raising()
    outcome = run_sweep([job, job], workers=1, cache_dir=tmp_path)
    assert outcome.failed == 2
    assert outcome.errors[0] == outcome.errors[1]


class _InterruptAfterFirst:
    """A progress callback that raises KeyboardInterrupt once the first
    cell completes — a deterministic stand-in for Ctrl-C."""

    def __init__(self):
        self.fired = False

    def __call__(self, msg):
        if "done" in msg and not self.fired:
            self.fired = True
            raise KeyboardInterrupt


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_keeps_completed_cells(tmp_path, workers):
    jobs = [_good("x86"), _good("370-NoSpec"), _good("370-SLFSoS")]
    outcome = run_sweep(jobs, workers=workers, cache_dir=tmp_path,
                        progress=_InterruptAfterFirst())
    assert outcome.interrupted
    kept = [r for r in outcome.results if r is not None]
    assert len(kept) >= 1
    for result, err in zip(outcome.results, outcome.errors):
        if result is None:
            assert err["type"] == "Cancelled"
    # Completed cells were cached before the interrupt hit.
    again = run_sweep(jobs, workers=1, cache_dir=tmp_path)
    assert again.cached >= len(kept)
    assert not again.interrupted and again.failed == 0


def test_corrupt_cache_entry_warns_and_resimulates(tmp_path):
    job = _good()
    run_sweep([job], workers=1, cache_dir=tmp_path)
    cache = ResultCache(tmp_path)
    cache.path_for(job_key(job)).write_text('{"truncated": ')
    notes = []
    outcome = run_sweep([job], workers=1, cache_dir=tmp_path,
                        progress=notes.append)
    assert outcome.cached == 0 and outcome.simulated == 1
    assert any("corrupt" in n for n in notes)


def test_foreign_cache_payload_warns_and_resimulates(tmp_path):
    job = _good()
    ResultCache(tmp_path).put(job_key(job), {"not": "a stats payload"})
    notes = []
    outcome = run_sweep([job], workers=1, cache_dir=tmp_path,
                        progress=notes.append)
    assert outcome.cached == 0 and outcome.simulated == 1
    assert any("unreadable" in n for n in notes)


def test_cache_write_failure_warns_not_raises(tmp_path):
    blocked = tmp_path / "a-file-not-a-directory"
    blocked.write_text("")
    notes = []
    cache = ResultCache(blocked / "cache", on_warning=notes.append)
    cache.put("k", {"a": 1})  # must not raise
    assert any("could not store" in n for n in notes)
    assert cache.get("k") is None


def test_unreadable_cache_entry_warns(tmp_path):
    notes = []
    cache = ResultCache(tmp_path, on_warning=notes.append)
    cache.put("k", {"a": 1})
    path = cache.path_for("k")
    path.chmod(0o000)
    try:
        import os
        if os.geteuid() == 0:  # root reads anything; nothing to test
            pytest.skip("permission bits do not bind as root")
        assert cache.get("k") is None
        assert any("cannot read" in n for n in notes)
    finally:
        path.chmod(0o644)


def test_cache_warning_defaults_to_warnings_module(tmp_path):
    cache = ResultCache(tmp_path)
    cache.path_for("k").write_text("][")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert cache.get("k") is None
