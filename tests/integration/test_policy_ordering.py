"""Integration: the paper's qualitative results on calibrated workloads.

These tests run real benchmark profiles through the full stack and
assert the *shape* of the paper's evaluation: which configuration wins,
roughly by how much, and which mechanism produces which statistic.
"""

import pytest

from repro.core.policies import POLICY_ORDER
from repro.sim.stats import SystemStats
from repro.sweep import SweepJob, run_sweep
from repro.sweep.runner import execute_job
from repro.workloads.runner import geomean, normalized_times

# Forwarding-heavy benchmarks where the configurations separate clearly.
SAMPLES = ["barnes", "water_spatial", "502.gcc_1", "511.povray"]


@pytest.fixture(scope="module")
def sweeps():
    jobs = [SweepJob(name, policy, cores=4, length=2500)
            for name in SAMPLES for policy in POLICY_ORDER]
    results = iter(run_sweep(jobs, workers=1, cache=False).results)
    return {name: {policy: next(results) for policy in POLICY_ORDER}
            for name in SAMPLES}


def _key_cell(name):
    """The proposal's cell of ``name``, run alone."""
    return SystemStats.from_dict(execute_job(
        SweepJob(name, "370-SLFSoS-key", cores=4, length=2500)))


class TestFigure10Shape:
    def test_nospec_is_much_slower_than_x86(self, sweeps):
        """Blanket enforcement costs heavily (paper: 1.27x/1.23x)."""
        ratios = [normalized_times(r)["370-NoSpec"]
                  for r in sweeps.values()]
        assert geomean(ratios) > 1.15
        for name, result in sweeps.items():
            assert normalized_times(result)["370-NoSpec"] > 1.05, name

    def test_speculation_recovers_most_of_the_gap(self, sweeps):
        """All speculative 370 variants stay within ~10% of x86 while
        NoSpec does not (paper: 1.07/1.05/1.025 vs 1.27)."""
        for name, result in sweeps.items():
            norm = normalized_times(result)
            for policy in ("370-SLFSpec", "370-SLFSoS", "370-SLFSoS-key"):
                assert norm[policy] < norm["370-NoSpec"], (name, policy)
                assert norm[policy] < 1.12, (name, policy)

    def test_key_variant_close_to_x86(self, sweeps):
        """The paper's proposal: ~2.5% average overhead."""
        ratios = [normalized_times(r)["370-SLFSoS-key"]
                  for r in sweeps.values()]
        assert geomean(ratios) < 1.06

    def test_key_never_worse_than_slfspec_on_average(self, sweeps):
        key = geomean([normalized_times(r)["370-SLFSoS-key"]
                       for r in sweeps.values()])
        slfspec = geomean([normalized_times(r)["370-SLFSpec"]
                           for r in sweeps.values()])
        assert key <= slfspec + 0.005


class TestMechanismStats:
    def test_forwarding_only_under_forwarding_policies(self, sweeps):
        for name, result in sweeps.items():
            assert result["370-NoSpec"].stats.total.slf_loads == 0
            assert result["x86"].stats.total.slf_loads > 0
            assert result["370-SLFSoS-key"].stats.total.slf_loads > 0

    def test_gate_closes_only_for_sos_variants(self, sweeps):
        for name, result in sweeps.items():
            for policy in ("x86", "370-NoSpec", "370-SLFSpec"):
                assert result[policy].stats.total.gate_closes == 0
            assert result["370-SLFSoS-key"].stats.total.gate_closes > 0

    def test_nospec_waits_on_the_store_buffer(self, sweeps):
        for name, result in sweeps.items():
            assert result["370-NoSpec"].stats.total.sb_wait_events > 0

    def test_slfspec_stalls_slf_loads_at_head(self, sweeps):
        for name, result in sweeps.items():
            total = result["370-SLFSpec"].stats.total
            assert total.slf_retire_stall_events > 0


class TestTableIVShape:
    def test_forwarded_share_tracks_paper(self):
        """Measured SLF share must be close to the Table IV target the
        generator was calibrated against."""
        for name in ("barnes", "502.gcc_1", "fft"):
            total = _key_cell(name).total
            from repro.workloads import get_profile
            target = get_profile(name).forwarded_pct
            assert total.forwarded_pct == pytest.approx(target, abs=1.0), \
                name

    def test_gate_stalls_are_rare_and_short(self):
        """Section VI-A: closing the gate is 'a rare and short-lived
        event' — ~1% of instructions, tens of cycles."""
        total = _key_cell("502.gcc_1").total
        assert total.gate_stalls_pct < 15.0
        assert total.avg_gate_stall_cycles < 120.0


class TestFigure9Shape:
    def test_nospec_adds_rob_lq_stall_cycles(self, sweeps):
        """370-NoSpec throttles load completion: it spends at least as
        many absolute cycles dispatch-stalled on a full ROB/LQ as x86
        does (the Figure 9 pattern)."""
        for name, result in sweeps.items():
            x86 = result["x86"].stats.total
            nospec = result["370-NoSpec"].stats.total
            assert (nospec.stall_cycles_rob + nospec.stall_cycles_lq
                    >= x86.stall_cycles_rob + x86.stall_cycles_lq), name
