"""Unit tests for ``repro.synth``: space, profile, search, and the
conformance check of what it finds."""

import pytest

from repro.litmus.program import canonical_key
from repro.litmus.tests import MP, N6, SB
from repro.models.axiomatic import classify, outcome_profile
from repro.models.conformance import battery_corpus, check, random_corpus
from repro.synth import (MODEL_PAIRS, SynthBounds, SynthResult,
                         count_programs, distinguishing_outcomes,
                         enumerate_programs, lattice_violations,
                         may_distinguish, merge_results, minimize_program,
                         pool_distinguishers, profile_diff, search)
from repro.synth.space import LATTICE

SMALL = SynthBounds(threads=2, max_ops=2, addresses=2)


# ----------------------------------------------------------------------
# Space enumeration
# ----------------------------------------------------------------------

class TestSpace:
    def test_count_matches_enumeration(self):
        assert count_programs(SMALL) == \
            sum(1 for _ in enumerate_programs(SMALL))

    def test_chunks_partition_the_space(self):
        whole = {index for index, _ in enumerate_programs(SMALL)}
        chunked = []
        for chunk in range(3):
            chunked.append({index for index, _ in
                            enumerate_programs(SMALL, chunk=chunk,
                                               chunks=3)})
        assert set.union(*chunked) == whole
        assert sum(len(c) for c in chunked) == len(whole)

    def test_indices_stable_across_partitions(self):
        whole = dict(enumerate_programs(SMALL))
        for chunk in range(4):
            for index, program in enumerate_programs(SMALL, chunk=chunk,
                                                     chunks=4):
                assert whole[index].threads == program.threads

    def test_max_total_caps_events(self):
        capped = SynthBounds(threads=3, max_ops=2, addresses=2,
                             max_total=4)
        for _, program in enumerate_programs(capped):
            assert sum(len(t) for t in program.threads) <= 4

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SynthBounds(threads=0)
        with pytest.raises(ValueError):
            SynthBounds(max_ops=9)
        with pytest.raises(ValueError):
            enumerate_programs(SMALL, chunk=2, chunks=2).__next__()
        # Wrong types: a float or a bool is not a count, and a string
        # is not a flag.
        for bad in ({"threads": 2.5}, {"threads": True},
                    {"max_total": 1.5}, {"addresses": "2"},
                    {"fences": "no"}, {"rmws": 1}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SynthBounds(**bad)
        with pytest.raises(ValueError, match="unknown bounds field.*max_op"):
            SynthBounds.from_dict({"threads": 2, "max_op": 3})

    def test_bounds_roundtrip(self):
        bounds = SynthBounds(threads=3, max_ops=2, addresses=3,
                             fences=True, max_total=5)
        assert SynthBounds.from_dict(bounds.to_dict()) == bounds

    def test_prefilter_is_sound_on_classics(self):
        # SB has the unfenced st->ld pair; MP has none.
        assert may_distinguish(SB, ("SC", "x86"))
        assert not may_distinguish(MP, ("SC", "x86"))
        # N6 has the same-address st->ld forwarding shape.
        assert may_distinguish(N6, ("370", "x86"))
        assert not may_distinguish(MP, ("370", "x86"))

    def test_prefilter_never_rejects_a_real_distinguisher(self):
        for _, program in enumerate_programs(SMALL):
            for pair in MODEL_PAIRS:
                if not may_distinguish(program, pair):
                    assert distinguishing_outcomes(program, pair) == ()

    def test_prefilter_sound_on_extended_vocabulary(self):
        # Exhaustive soundness proof over the full rmw + acquire/
        # release space: a program the prefilter rejects for a pair
        # must profile to identical outcome sets.  One 4-model profile
        # per program keeps the sweep fast.
        bounds = SynthBounds(threads=2, max_ops=2, addresses=1,
                             rmws=True, acqrel=True)
        for _, program in enumerate_programs(bounds):
            rejected = [pair for pair in MODEL_PAIRS
                        if not may_distinguish(program, pair)]
            if not rejected:
                continue
            profile = outcome_profile(program)
            for pair in rejected:
                assert profile_diff(profile, pair) == (), \
                    (program.name, pair)


# ----------------------------------------------------------------------
# Outcome profiling
# ----------------------------------------------------------------------

class TestProfile:
    """``outcome_profile`` judges on bitmask relations; ``classify``
    judges each model on its own with labelled edges and
    :func:`~repro.models.axiomatic.find_cycle`.  They must agree."""

    @pytest.mark.parametrize(
        "program", [case.program for case in battery_corpus()],
        ids=lambda p: p.name)
    def test_profile_matches_classify(self, program):
        profile = outcome_profile(program)
        for model in LATTICE:
            assert profile[model] == \
                frozenset(classify(program, model).allowed)

    def test_profile_matches_classify_on_random_programs(self):
        # Fences, xchg and cas (both of its paths), acquire loads and
        # release stores: every relation the judge builds.
        for program in random_corpus(40, 23, allow_fences=True,
                                     allow_rmws=True, allow_acqrel=True):
            profile = outcome_profile(program)
            for model in LATTICE:
                assert profile[model] == \
                    classify(program, model).allowed, (program.name, model)

    def test_lattice_containment_on_classics(self):
        for program in (SB, N6, MP):
            assert lattice_violations(outcome_profile(program)) == []

    def test_lattice_violation_detected(self):
        profile = outcome_profile(SB)
        # Fabricate a broken profile: SC allowing more than x86.
        broken = {"SC": profile["x86"], "370": profile["370"],
                  "x86": profile["SC"]}
        assert lattice_violations(broken)

    def test_profile_diff_on_n6(self):
        profile = outcome_profile(N6)
        assert profile_diff(profile, ("370", "x86"))
        assert not profile_diff(profile, ("SC", "SC"))  # degenerate


# ----------------------------------------------------------------------
# Search, minimization, dedupe
# ----------------------------------------------------------------------

class TestSearch:
    def test_search_rediscovers_sb(self):
        result = search(SMALL)
        keys = {key for (_, key) in result.distinguishers}
        assert canonical_key(SB) in keys
        assert result.lattice_errors == []

    def test_minimized_witnesses_are_local_minima(self):
        result = search(SMALL)
        for dist in result.distinguishers.values():
            smaller = minimize_program(dist.program, dist.pair)
            assert sum(len(t) for t in smaller.threads) == dist.events

    def test_minimize_preserves_distinction(self):
        small = minimize_program(N6, ("370", "x86"))
        assert distinguishing_outcomes(small, ("370", "x86"))
        # n6 is already minimal for its pair: nothing to delete.
        assert small.threads == N6.threads

    def test_known_keys_are_skipped(self):
        known = frozenset(key for (_, key)
                          in search(SMALL).distinguishers)
        rerun = search(SMALL, known=known)
        assert rerun.distinct == 0
        assert rerun.hits > 0

    def test_limit_stops_early(self):
        # The limit is checked per program, so one program hitting
        # several pairs can overshoot it — but the walk must stop.
        result = search(SMALL, limit=1)
        assert result.distinct >= 1
        assert result.enumerated < count_programs(SMALL)

    def test_result_json_roundtrip(self):
        result = search(SMALL)
        clone = SynthResult.from_dict(result.to_dict())
        assert clone.enumerated == result.enumerated
        assert clone.hits == result.hits
        assert set(clone.distinguishers) == set(result.distinguishers)
        for slot, dist in result.distinguishers.items():
            assert clone.distinguishers[slot].program.threads == \
                dist.program.threads

    def test_chunked_search_merges_to_serial(self):
        serial = search(SMALL)
        chunks = [search(SMALL, chunk=c, chunks=3) for c in range(3)]
        merged = merge_results(chunks)
        assert merged.enumerated == serial.enumerated
        assert merged.judged == serial.judged
        assert merged.hits == serial.hits
        assert set(merged.distinguishers) == set(serial.distinguishers)

    def test_pool_across_spaces_dedupes(self):
        result = search(SMALL)
        pooled = pool_distinguishers([result, result])
        assert len(pooled) == result.distinct


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

class TestOracle:
    @pytest.mark.parametrize("program", [SB, N6, MP],
                             ids=lambda p: p.name)
    def test_oracles_agree_on_classics(self, program):
        report = check([program])
        assert report.ok, "\n".join(report.problems)
        assert report.programs[0].counts["SC"] >= 1

    def test_check_many(self):
        report = check([SB, MP])
        assert report.ok and report.programs_checked == 2

    def test_synthesized_witnesses_pass_all_oracles(self):
        result = search(SMALL)
        report = check(d.program for d in result.distinguishers.values())
        assert report.ok, "\n".join(report.problems)
        assert report.programs_checked == result.distinct
