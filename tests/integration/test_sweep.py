"""Integration tests for the parallel, cached sweep runner.

The load-bearing properties:

* a parallel sweep is *stat-identical* to each cell run alone,
  serially, by ``execute_job`` (the engine is deterministic and jobs
  are independent, so process fan-out must not change any number);
* the on-disk cache answers repeat sweeps with zero simulations, and
  its keys distinguish everything that changes a result;
* cells that share a trace specification run as one *trace unit* on
  traces generated once, and each still equals its job run alone;
* ``workers=None`` sizes the pool as ``REPRO_WORKERS`` (or the CPU
  count) capped at the uncached jobs, runs in-process when that is 1,
  and records which way it went in ``SweepOutcome.mode``.
"""

import dataclasses
import gc
import time

import pytest

from repro.coherence import warmup
from repro.sim.config import SKYLAKE_LIKE, TINY, CacheConfig
from repro.sim.stats import SystemStats
from repro.sweep import SweepJob, job_key, run_sweep
from repro.sweep import runner as sweep_runner
from repro.sweep.cache import ResultCache
from repro.sweep.runner import execute_job
from repro.workloads import runner, synthetic

PROFILES = ["fft", "radix", "502.gcc_1"]
POLICIES = ["x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS",
            "370-SLFSoS-key"]
CORES = 2
LENGTH = 400


def _grid_jobs(names=PROFILES):
    return [SweepJob(name=name, policy=policy, cores=CORES, length=LENGTH)
            for name in names for policy in POLICIES]


def test_parallel_sweep_matches_serial_reference(tmp_path):
    """3 profiles x 5 policies through a 2-worker pool == each cell run
    alone in-process, stat for stat."""
    jobs = _grid_jobs()
    outcome = run_sweep(jobs, workers=2, cache_dir=tmp_path / "cache")
    assert outcome.simulated == len(PROFILES) * len(POLICIES)
    assert outcome.cached == 0

    for job, parallel in zip(jobs, outcome.results):
        serial = SystemStats.from_dict(execute_job(job))
        assert (parallel.name, parallel.policy) == (job.name, job.policy)
        assert (dataclasses.asdict(parallel.stats)
                == dataclasses.asdict(serial))


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
    """2 profiles x 5 policies, plus an obs, a detect_violations and a
    hint-stripped cell with the grid's names and seed — the first two
    share a trace unit with grid cells, placed before and after them."""
    grid = _grid_jobs(PROFILES[:2])
    fft, radix = grid[0], grid[5]
    return ([dataclasses.replace(fft, policy="370-SLFSoS-key", obs=True)]
            + grid
            + [dataclasses.replace(radix, detect_violations=True),
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


SMALL_L2 = dataclasses.replace(
    SKYLAKE_LIKE, memory=dataclasses.replace(
        SKYLAKE_LIKE.memory, l2=CacheConfig(16 * 1024, 8, 12)))
SMALL_L1 = dataclasses.replace(
    SKYLAKE_LIKE, memory=dataclasses.replace(
        SKYLAKE_LIKE.memory, l1=CacheConfig(8 * 1024, 4, 4)))
NO_PREFETCH = dataclasses.replace(
    SKYLAKE_LIKE, memory=dataclasses.replace(
        SKYLAKE_LIKE.memory, prefetcher=False))


def _mixed_memory_jobs(names=("fft", "radix")):
    """Per profile, one trace unit over three cache geometries: the
    default (x86, an obs cell, a SoS cell, a cell without the
    prefetcher), a smaller L2 (x86, a violation-detector cell) and a
    smaller L1 with one cell."""
    jobs = []
    for name in names:
        cell = SweepJob(name=name, policy="x86", cores=CORES, length=LENGTH)
        jobs += [cell,
                 dataclasses.replace(cell, config=SMALL_L2),
                 dataclasses.replace(cell, policy="370-SLFSoS-key",
                                     obs=True),
                 dataclasses.replace(cell, policy="370-SLFSoS-key",
                                     config=SMALL_L2,
                                     detect_violations=True),
                 dataclasses.replace(cell, policy="370-SLFSoS"),
                 dataclasses.replace(cell, policy="370-SLFSpec",
                                     config=SMALL_L1),
                 dataclasses.replace(cell, policy="370-NoSpec",
                                     config=NO_PREFETCH)]
    return jobs


def test_unit_over_several_memory_configurations_equals_each_cell_alone(
        tmp_path):
    """A unit installs one warmed image per cache geometry; every cell
    still equals execute_job, which walks its own warm-up, serially and
    pooled."""
    jobs = _mixed_memory_jobs()
    alone = [execute_job(job) for job in jobs]
    assert alone[0] != alone[1]   # the smaller L2 changes the run
    for workers in (1, 2):
        outcome = run_sweep(jobs, workers=workers,
                            cache_dir=tmp_path / f"w{workers}")
        assert outcome.failed == 0 and outcome.units == 2
        for job, result, obs, payload in zip(jobs, outcome.results,
                                             outcome.obs, alone):
            payload = dict(payload)
            assert obs == payload.pop("obs", None), (workers, job)
            assert result.stats.to_dict() == payload, (workers, job)


def test_unit_walks_once_per_cache_geometry(monkeypatch):
    """The three geometries walk once each in the set-up (the cell
    without the prefetcher shares the default's walk): 3 walks, not 7,
    and every cell, the one alone in its geometry too, installs an
    image."""
    walks, warms = [], []
    real_walk, real_cell = warmup.warm_from_traces, sweep_runner._run_cell

    def counting(memory, traces):
        walks.append((memory.config.l1.size_bytes,
                      memory.config.l2.size_bytes))
        return real_walk(memory, traces)

    def recording(job, traces, warm):
        warms.append(type(warm))
        return real_cell(job, traces, warm)

    monkeypatch.setattr(warmup, "warm_from_traces", counting)
    monkeypatch.setattr(sweep_runner, "_run_cell", recording)
    outcome = run_sweep(_mixed_memory_jobs(["fft"]), workers=1,
                        cache=False)
    assert outcome.failed == 0
    assert sorted(walks) == [(8 * 1024, 128 * 1024), (32 * 1024, 16 * 1024),
                             (32 * 1024, 128 * 1024)]
    assert warms == [dict] * 7


def test_unit_unfreezes_the_collector_however_it_ends(monkeypatch):
    """The unit's set-up stays frozen out of the collector while its
    cells run and is unfrozen when the unit ends, also after a cell
    that raises or times out, and when it is closed early."""
    real = sweep_runner._run_cell
    frozen = []

    def flaky(job, traces, warm):
        frozen.append(gc.get_freeze_count())
        if job.policy == "370-NoSpec":
            raise RuntimeError("boom")
        if job.policy == "370-SLFSpec":
            time.sleep(60)   # until the deadline fires
        return real(job, traces, warm)

    monkeypatch.setattr(sweep_runner, "_run_cell", flaky)
    unit = _grid_jobs(["fft"])
    outcomes = sweep_runner._execute_unit(unit, timeout=2.0)
    assert [status for status, _ in outcomes] == [
        "ok", "err", "err", "ok", "ok"]
    assert not outcomes[1][1]["timeout"] and outcomes[2][1]["timeout"]
    assert len(frozen) == 5 and min(frozen) > 0
    assert gc.get_freeze_count() == 0

    cells = sweep_runner._unit_outcomes(unit, None)
    assert next(cells)[0] == "ok" and gc.get_freeze_count() > 0
    cells.close()
    assert gc.get_freeze_count() == 0


def _columns(traces):
    return [[list(column) for column in trace.columns()]
            + [list(trace.memdep_hints)] for trace in traces]


def test_unit_cells_leave_their_traces_unchanged(monkeypatch):
    """A unit's five cells run on one set of traces, sealed when they
    were generated: the traces and their warm-up are equal, column for
    column, before and after the cells."""
    made = []

    def recording(*args):
        traces, warm = runner.cell_traces(*args)
        made.append((traces, warm, _columns(traces + warm)))
        return traces, warm

    monkeypatch.setattr(sweep_runner, "cell_traces", recording)
    outcomes = list(sweep_runner._unit_outcomes(_grid_jobs(["barnes"]),
                                                None))
    assert [status for status, _ in outcomes] == ["ok"] * 5
    [(traces, warm, before)] = made
    assert all(trace.sealed for trace in traces + warm)
    assert _columns(traces + warm) == before


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


# ---------------------------------------------------------------------------
# worker sizing
# ---------------------------------------------------------------------------

def _job(**kw):
    base = dict(name="fft", policy="370-SLFSoS", cores=CORES, length=LENGTH)
    base.update(kw)
    return SweepJob(**base)


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
