"""Tests for the Table IV data, profiles, and synthetic generator."""

import random

import pytest

from repro.cpu import isa
from repro.workloads.profiles import (PARALLEL_PROFILES, PROFILES,
                                      SEQUENTIAL_PROFILES, get_profile)
from repro.workloads.synthetic import (_SHARED_BYTES, WORD, _randbelow,
                                       generate_trace, generate_warmup,
                                       generate_workload)
from repro.workloads.tableiv import (FIGURE10_GEOMEAN, PARALLEL_AVERAGE,
                                     PARALLEL_ROWS, SEQUENTIAL_AVERAGE,
                                     SEQUENTIAL_ROWS, all_rows)


class TestTableIVData:
    def test_benchmark_counts(self):
        assert len(PARALLEL_ROWS) == 25     # SPLASH-3 + PARSEC
        assert len(SEQUENTIAL_ROWS) == 36   # SPECrate CPU2017
        assert len(all_rows()) == 61

    def test_reported_averages_match_rows(self):
        """The paper's 'Average' rows are arithmetic means of the
        per-benchmark columns (sanity on transcription)."""
        rows = list(PARALLEL_ROWS.values())
        mean_fwd = sum(r.forwarded_pct for r in rows) / len(rows)
        assert mean_fwd == pytest.approx(PARALLEL_AVERAGE.forwarded_pct,
                                         abs=0.01)
        rows = list(SEQUENTIAL_ROWS.values())
        mean_fwd = sum(r.forwarded_pct for r in rows) / len(rows)
        assert mean_fwd == pytest.approx(SEQUENTIAL_AVERAGE.forwarded_pct,
                                         abs=0.01)

    def test_headline_numbers(self):
        assert FIGURE10_GEOMEAN["parallel"]["370-NoSpec"] == 1.27
        assert FIGURE10_GEOMEAN["sequential"]["370-SLFSoS-key"] == 1.027

    def test_outliers_present(self):
        assert PARALLEL_ROWS["barnes"].forwarded_pct > 18
        assert PARALLEL_ROWS["x264"].reexecuted_pct > 10
        assert SEQUENTIAL_ROWS["505.mcf"].reexecuted_pct > 11
        assert PARALLEL_ROWS["radix"].avg_stall_cycles > 98


class TestProfiles:
    def test_every_row_has_a_profile(self):
        assert set(PROFILES) == set(all_rows())

    def test_get_profile(self):
        assert get_profile("barnes").suite == "parallel"
        assert get_profile("505.mcf").suite == "sequential"
        with pytest.raises(ValueError):
            get_profile("doom3")

    def test_stores_cover_forwarding(self):
        for profile in PROFILES.values():
            assert profile.stores_pct >= profile.forwarded_pct

    def test_mix_is_a_sane_fraction(self):
        for profile in PROFILES.values():
            total = (profile.loads_pct + profile.stores_pct
                     + profile.branch_pct)
            assert total < 95.0, profile.name


class TestGenerator:
    @pytest.mark.parametrize("name", ["barnes", "fft", "505.mcf", "radix"])
    def test_rates_close_to_targets(self, name):
        profile = get_profile(name)
        trace = generate_trace(profile, core_id=0, length=6000, seed=3)
        n = len(trace)
        loads = sum(1 for op in trace.ops if op.kind == isa.LOAD)
        stores = sum(1 for op in trace.ops if op.kind == isa.STORE)
        assert loads / n * 100 == pytest.approx(profile.loads_pct, abs=1.5)
        # Multi-argument forwarding idioms can overshoot the plain-store
        # target a little; forwarding coverage matters more.
        assert stores / n * 100 == pytest.approx(profile.stores_pct, abs=4.5)

    def test_traces_validate(self):
        for name in ("barnes", "x264", "ocean_cp", "502.gcc_1"):
            generate_trace(get_profile(name), 0, 2000, seed=0).validate()

    def test_deterministic_for_same_seed(self):
        profile = get_profile("barnes")
        a = generate_trace(profile, 0, 1000, seed=5)
        b = generate_trace(profile, 0, 1000, seed=5)
        assert a.ops == b.ops

    def test_different_cores_use_disjoint_private_regions(self):
        profile = get_profile("barnes")
        a = generate_trace(profile, 0, 1000, seed=5)
        b = generate_trace(profile, 1, 1000, seed=5)
        addrs_a = {op.addr for op in a.ops if op.is_mem}
        addrs_b = {op.addr for op in b.ops if op.is_mem}
        assert not (addrs_a & addrs_b)  # barnes has no shared region

    def test_parallel_profile_shares_memory(self):
        profile = get_profile("canneal")  # shared_fraction > 0
        a = generate_trace(profile, 0, 3000, seed=5)
        b = generate_trace(profile, 1, 3000, seed=5)
        addrs_a = {op.addr for op in a.ops if op.is_mem}
        addrs_b = {op.addr for op in b.ops if op.is_mem}
        assert addrs_a & addrs_b

    def test_generation_builds_no_op(self, monkeypatch):
        """The generator appends to the trace's columns: generating
        barnes 8 x 300 and its warm-up constructs zero ``Op`` objects
        (the count would see one)."""
        built = []
        real_init = isa.Op.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(isa.Op, "__init__", counting)
        assert isa.load(8) == isa.Op(isa.LOAD, 8) and len(built) == 2
        built.clear()
        profile = get_profile("barnes")
        traces = (generate_workload(profile, 8, 300)
                  + generate_warmup(profile, 8, 300))
        assert len(traces) == 16 and all(len(t) >= 300 for t in traces)
        assert built == []

    def test_memdep_hints_emitted(self):
        trace = generate_trace(get_profile("barnes"), 0, 500, seed=0)
        assert trace.memdep_hints

    def test_workload_shape(self):
        parallel = generate_workload(get_profile("barnes"), cores=4,
                                     length_per_core=500)
        assert len(parallel) == 4
        sequential = generate_workload(get_profile("505.mcf"), cores=4,
                                       length_per_core=500)
        assert len(sequential) == 1

    def test_warmup_streams_are_disjoint(self):
        profile = get_profile("radix")   # streaming stores
        measure = generate_workload(profile, cores=1, length_per_core=2000,
                                    seed=0)[0]
        warm = generate_warmup(profile, cores=1, length_per_core=2000,
                               seed=0)[0]
        stream_measure = {op.addr for op in measure.ops
                          if op.kind == isa.STORE
                          and op.addr >= 0x2000_0000_0000
                          and op.addr < 0x5000_0000_0000}
        stream_warm = {op.addr for op in warm.ops
                       if op.kind == isa.STORE
                       and op.addr >= 0x2000_0000_0000
                       and op.addr < 0x5000_0000_0000}
        assert stream_measure and stream_warm
        assert not (stream_measure & stream_warm)

    def test_contended_profile_touches_hot_line(self):
        profile = get_profile("x264")
        traces = generate_workload(profile, cores=2, length_per_core=4000,
                                   seed=0)
        hot = 0x6000_0000_0000
        for trace in traces:
            assert any(op.is_mem and op.addr == hot for op in trace.ops)


class TestRandbelow:
    """The builder's ``randrange`` stand-in makes the draws
    ``random.Random.randrange`` makes."""

    @staticmethod
    def _builder_ns():
        """Every large ``n`` the builder draws below: each profile's
        heap and hot-heap word counts, and the shared heap's."""
        ns = {_SHARED_BYTES // WORD}
        for profile in PROFILES.values():
            heap_words = max(1, profile.footprint_bytes // WORD)
            ns |= {heap_words, max(1, heap_words // 8)}
        return sorted(ns)

    @pytest.mark.parametrize("seed", [0, 1, 11, 7_777_777, 0xFFFFFFFF])
    def test_same_draws_as_randrange(self, seed):
        ns = list(range(1, 1025)) + self._builder_ns()
        reference = random.Random(seed)
        rng = random.Random(seed)
        randrange = _randbelow(rng.getrandbits)
        assert [randrange(n) for n in ns] == \
            [reference.randrange(n) for n in ns]
        assert rng.getstate() == reference.getstate()

    def test_empty_filler_range_is_refused(self):
        profile = get_profile("barnes").scaled(fwd_filler=(2, 1))
        with pytest.raises(ValueError, match="fwd_filler"):
            generate_trace(profile, 0, 100)
