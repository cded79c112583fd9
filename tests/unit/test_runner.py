"""Unit tests for the benchmark runner helpers and the cells they
normalize."""

import pytest

from repro.sweep import SweepJob, run_sweep
from repro.sweep.runner import execute_job
from repro.workloads.runner import geomean, normalized_times, suite_names


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.0]) == 1.0
    with pytest.raises(ValueError):
        geomean([])


def test_suite_names():
    assert "barnes" in suite_names("parallel")
    assert "505.mcf" in suite_names("sequential")
    assert len(suite_names("parallel")) == 25
    assert len(suite_names("sequential")) == 36
    with pytest.raises(ValueError):
        suite_names("mobile")


def _cells(name, policies, **kw):
    jobs = [SweepJob(name, policy, **kw) for policy in policies]
    outcome = run_sweep(jobs, workers=1, cache=False)
    return dict(zip(policies, outcome.results))


def test_sweep_cell_returns_result():
    result = run_sweep([SweepJob("fft", "370-SLFSoS-key", cores=2,
                                 length=600)],
                       workers=1, cache=False).results[0]
    assert result.name == "fft"
    assert result.suite == "parallel"
    assert result.policy == "370-SLFSoS-key"
    assert result.cycles > 0
    assert result.stats.total.retired_instructions >= 1200


def test_sequential_benchmark_uses_one_core():
    payload = execute_job(SweepJob("557.xz_2", "370-SLFSoS-key", cores=4,
                                   length=600))
    assert len(payload["per_core"]) == 1


def test_sweep_cells_and_normalization():
    results = _cells("water_spatial", ("x86", "370-NoSpec"), cores=2,
                     length=800)
    assert set(results) == {"x86", "370-NoSpec"}
    norm = normalized_times(results)
    assert norm["x86"] == 1.0
    assert norm["370-NoSpec"] >= 1.0


def test_sweep_is_reproducible():
    a = _cells("fft", ("x86",), cores=2, length=500)["x86"].cycles
    b = _cells("fft", ("x86",), cores=2, length=500)["x86"].cycles
    assert a == b
