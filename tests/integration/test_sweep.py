"""Integration tests for the parallel, cached sweep runner.

The load-bearing properties:

* a parallel sweep is *cycle-identical* to the serial
  ``run_policy_sweep`` loop (the engine is deterministic and jobs are
  independent, so process fan-out must not change any number);
* the on-disk cache answers repeat sweeps with zero simulations, and
  its keys distinguish everything that changes a result;
* cells that share a trace specification run as one *trace unit* on
  traces generated once, and each still equals its job run alone.
"""

import dataclasses

import pytest

from repro.sim.config import SKYLAKE_LIKE, TINY
from repro.sweep import SweepJob, job_key, run_sweep
from repro.sweep.cache import ResultCache
from repro.sweep.runner import execute_job
from repro.workloads import runner, synthetic
from repro.workloads.runner import run_policy_sweep

PROFILES = ["fft", "radix", "502.gcc_1"]
POLICIES = ["x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS",
            "370-SLFSoS-key"]
CORES = 2
LENGTH = 400


def _grid_jobs(names=PROFILES):
    return [SweepJob(name=name, policy=policy, cores=CORES, length=LENGTH)
            for name in names for policy in POLICIES]


def test_parallel_sweep_matches_serial_reference(tmp_path):
    """3 profiles x 5 policies through a 2-worker pool == the serial
    in-process loop, stat for stat."""
    outcome = run_sweep(_grid_jobs(), workers=2,
                        cache_dir=tmp_path / "cache")
    assert outcome.simulated == len(PROFILES) * len(POLICIES)
    assert outcome.cached == 0

    it = iter(outcome.results)
    for name in PROFILES:
        serial = run_policy_sweep(name, POLICIES, cores=CORES,
                                  length=LENGTH)
        for policy in POLICIES:
            parallel = next(it)
            assert parallel.name == name
            assert parallel.policy == policy
            assert (dataclasses.asdict(parallel.stats)
                    == dataclasses.asdict(serial[policy].stats))


def test_second_sweep_is_fully_cached(tmp_path):
    jobs = _grid_jobs()
    first = run_sweep(jobs, workers=2, cache_dir=tmp_path / "cache")
    second = run_sweep(jobs, workers=2, cache_dir=tmp_path / "cache")
    assert second.simulated == 0
    assert second.cached == len(jobs)
    for a, b in zip(first.results, second.results):
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)


def test_cache_disabled_simulates_again(tmp_path):
    job = SweepJob(name="fft", policy="x86", cores=CORES, length=LENGTH)
    run_sweep([job], cache_dir=tmp_path / "cache")
    again = run_sweep([job], cache=False, cache_dir=tmp_path / "cache")
    assert again.simulated == 1
    assert again.cached == 0


def test_duplicate_jobs_simulate_once(tmp_path):
    job = SweepJob(name="fft", policy="x86", cores=CORES, length=LENGTH)
    outcome = run_sweep([job, job, job], cache_dir=tmp_path / "cache")
    assert outcome.simulated == 1
    assert len(outcome.results) == 3
    assert (dataclasses.asdict(outcome.results[0].stats)
            == dataclasses.asdict(outcome.results[2].stats))


def test_job_key_distinguishes_every_input():
    base = SweepJob(name="fft", policy="x86", cores=CORES, length=LENGTH)
    variants = [
        dataclasses.replace(base, name="radix"),
        dataclasses.replace(base, policy="370-SLFSoS-key"),
        dataclasses.replace(base, cores=CORES + 1),
        dataclasses.replace(base, length=LENGTH + 1),
        dataclasses.replace(base, seed=1),
        dataclasses.replace(base, config=TINY),
        dataclasses.replace(base, config=SKYLAKE_LIKE),
        dataclasses.replace(base, detect_violations=True),
        dataclasses.replace(base, memdep_hints=False),
    ]
    keys = [job_key(job) for job in [base] + variants]
    assert len(set(keys)) == len(keys)


def test_job_key_stable_across_calls():
    job = SweepJob(name="fft", policy="x86", cores=CORES, length=LENGTH)
    assert job_key(job) == job_key(job)


def test_corrupt_cache_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", {"a": 1})
    assert cache.get("k") == {"a": 1}
    cache.path_for("k").write_text("{not json")
    assert cache.get("k") is None
    assert cache.get("missing") is None


def test_obs_job_carries_report_and_distinct_key(tmp_path):
    plain = SweepJob(name="fft", policy="370-SLFSoS-key", cores=CORES,
                     length=LENGTH)
    observed = dataclasses.replace(plain, obs=True)
    assert job_key(plain) != job_key(observed)
    # The sample interval only matters once obs is on.
    assert (job_key(dataclasses.replace(plain, obs_sample_interval=32))
            == job_key(plain))
    assert (job_key(dataclasses.replace(observed, obs_sample_interval=32))
            != job_key(observed))

    outcome = run_sweep([plain, observed], cache_dir=tmp_path / "cache")
    assert outcome.obs[0] is None
    cell = outcome.obs[1]
    assert cell is not None
    assert cell["gate"]["intervals"] == \
        outcome.results[1].stats.total.gate_closes
    assert "gate_lock" in cell["histograms"]
    # The embedded summary must not perturb the stats themselves.
    assert (dataclasses.asdict(outcome.results[0].stats)
            == dataclasses.asdict(outcome.results[1].stats))


def test_obs_report_survives_the_cache(tmp_path):
    job = SweepJob(name="fft", policy="370-SLFSoS-key", cores=CORES,
                   length=LENGTH, obs=True)
    first = run_sweep([job], cache_dir=tmp_path / "cache")
    second = run_sweep([job], cache_dir=tmp_path / "cache")
    assert second.simulated == 0 and second.cached == 1
    assert second.obs[0] == first.obs[0]


def test_progress_reports_cache_hits_distinctly(tmp_path):
    job = SweepJob(name="fft", policy="x86", cores=CORES, length=LENGTH)
    lines: list = []
    run_sweep([job], cache_dir=tmp_path / "cache",
              progress=lines.append)
    assert any("[cache]" not in line and "to simulate" in line
               for line in lines)

    lines.clear()
    run_sweep([job], cache_dir=tmp_path / "cache",
              progress=lines.append)
    assert any(line.startswith("sweep: [cache] fft/x86")
               for line in lines)
    assert any("all 1 jobs cached" in line for line in lines)
    assert not any("ETA" in line for line in lines)


def test_memdep_hint_stripping_changes_the_run(tmp_path):
    """A memdep_hints=False job really runs cold: it must squash at
    least as often as the hinted run (cf. the StoreSet ablation)."""
    kwargs = dict(name="502.gcc_1", policy="370-SLFSoS-key", cores=1,
                  length=1500)
    hinted = SweepJob(**kwargs)
    cold = SweepJob(memdep_hints=False, **kwargs)
    outcome = run_sweep([hinted, cold], cache_dir=tmp_path / "cache")
    hinted_stats, cold_stats = (r.stats for r in outcome.results)
    assert (cold_stats.total.squashes_memdep
            >= hinted_stats.total.squashes_memdep)


# ---------------------------------------------------------------------------
# trace units: one generation per (profile, cores, length, seed, hints)
# ---------------------------------------------------------------------------

def _unit_grid():
    """2 profiles x 5 policies, plus an obs, a detect_violations, a
    checkpointed and a hint-stripped cell with the grid's names and
    seed — the first three share a trace unit with grid cells, placed
    before and after them."""
    grid = _grid_jobs(PROFILES[:2])
    fft, radix = grid[0], grid[5]
    return ([dataclasses.replace(fft, policy="370-SLFSoS-key", obs=True)]
            + grid
            + [dataclasses.replace(radix, detect_violations=True),
               dataclasses.replace(fft, policy="370-SLFSoS",
                                   checkpoint_every=150),
               dataclasses.replace(radix, policy="370-SLFSoS-key",
                                   memdep_hints=False)])


def test_every_unit_cell_equals_its_job_run_alone(tmp_path):
    """Cells that share traces see exactly what a lone execute_job sees:
    no state leaks between the cells of a unit, serially or pooled."""
    jobs = _unit_grid()
    alone = [execute_job(job) for job in jobs]
    for workers in (1, 2):
        outcome = run_sweep(jobs, workers=workers,
                            cache_dir=tmp_path / f"w{workers}")
        assert outcome.failed == 0 and outcome.units == 3
        for job, result, obs, payload in zip(jobs, outcome.results,
                                             outcome.obs, alone):
            payload = dict(payload)
            assert obs == payload.pop("obs", None), (workers, job)
            assert result.stats.to_dict() == payload, (workers, job)


def test_serial_sweep_generates_once_per_unit(monkeypatch):
    """2 profiles x 5 policies generate 2 workloads and 2 warm-up traces
    (which generate through generate_workload): 4 calls, not 20."""
    calls = []
    real = synthetic.generate_workload

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthetic, "generate_workload", counting)
    monkeypatch.setattr(runner, "generate_workload", counting)
    jobs = _grid_jobs(PROFILES[:2])
    outcome = run_sweep(jobs, workers=1, cache=False)
    assert sorted(calls) == sorted(PROFILES[:2] * 2)
    assert outcome.simulated == len(jobs) and outcome.units == 2


def test_one_unit_is_split_across_the_pool():
    """A sweep of one benchmark is one trace unit; with two workers it
    is split in two so that both run."""
    jobs = _grid_jobs(["fft"])
    notes = []
    outcome = run_sweep(jobs, workers=2, cache=False, progress=notes.append)
    assert (outcome.mode, outcome.workers, outcome.units) == (
        "parallel", 2, 2)
    assert outcome.failed == 0 and outcome.simulated == len(jobs)
    assert any("in 2 trace units, 2 worker(s)" in note for note in notes)
