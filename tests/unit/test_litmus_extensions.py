"""Tests for the PC model, RMW instructions, the extended battery,
the sampler, and the happens-before explainer."""

import pytest

from repro.litmus import (EXTRA_CASES, FIG5, IRIW, MP, N6, PC, SB, WRC, X86,
                          allows, enumerate_outcomes, explain, sample)
from repro.litmus.battery import SB_BOTH_RMW, SB_ONE_RMW
from repro.litmus.program import Ld, Rmw, St, make_program
from repro.models import model_names
from repro.models.axiomatic import classify, outcome_profile
from repro.models.conformance import battery_corpus


class TestProcessorConsistency:
    """Paper Table I, third row: PC is not even write-atomic."""

    def test_iriw_allowed_under_pc_only(self):
        witness = dict(r0_rx=1, r0_ry=0, r1_ry=1, r1_rx=0)
        assert allows(IRIW, PC, **witness)
        assert not allows(IRIW, X86, **witness)

    def test_wrc_distinguishes_write_atomicity(self):
        witness = dict(r1_rx=1, r2_ry=1, r2_rx=0)
        assert allows(WRC, PC, **witness)
        assert not allows(WRC, X86, **witness)

    def test_pc_keeps_per_source_order(self):
        # mp stays forbidden: stores from one core propagate in order.
        assert not allows(MP, PC, r0_rx=1, r0_ry=0)

    def test_pc_keeps_per_location_coherence(self):
        program = make_program("coRR", [
            [St("x", 1)],
            [Ld("x", "r0"), Ld("x", "r1")],
        ])
        assert not allows(program, PC, r1_r0=1, r1_r1=0)

    @pytest.mark.parametrize("program", [MP, SB, N6, IRIW, FIG5],
                             ids=lambda p: p.name)
    def test_x86_subset_of_pc(self, program):
        assert enumerate_outcomes(program, X86) \
            <= enumerate_outcomes(program, PC)

    def test_pc_fence_restores_order(self):
        from repro.litmus.tests import SB_FENCED
        assert not allows(SB_FENCED, PC, r0_ry=0, r1_rx=0)


class TestRmw:
    def test_rmw_returns_old_value(self):
        program = make_program("xchg", [[St("x", 5), Rmw("x", 9, "r0")]])
        outcomes = enumerate_outcomes(program, X86)
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.reg(0, "r0") == 5
        assert outcome.mem("x") == 9

    def test_locked_rmw_closes_dekker(self):
        witness = dict(r0_ry=0, r1_rx=0)
        assert allows(SB_ONE_RMW, X86, **witness)     # one side locked
        assert not allows(SB_BOTH_RMW, X86, **witness)  # both locked

    def test_rmw_atomic_between_threads(self):
        """Two atomic exchanges on one location can never both read the
        initial value (they are globally ordered)."""
        program = make_program("xchg-race", [
            [Rmw("x", 1, "r0")],
            [Rmw("x", 2, "r1")],
        ])
        for outcome in enumerate_outcomes(program, X86):
            old0 = outcome.reg(0, "r0")
            old1 = outcome.reg(1, "r1")
            assert not (old0 == 0 and old1 == 0)

    def test_rmw_executes_on_pc_machine(self):
        """Locked ops bus-lock the PC machine: enabled only once all
        copies converged, written to every copy atomically — so the
        both-locked SB witness stays forbidden."""
        witness = dict(r0_ry=0, r1_rx=0)
        assert not allows(SB_BOTH_RMW, PC, **witness)
        assert allows(SB_ONE_RMW, PC, **witness)

    def test_rmw_modeled_by_axiomatic_checker(self):
        assert classify(SB_BOTH_RMW, X86).allowed \
            == enumerate_outcomes(SB_BOTH_RMW, X86)


class TestBattery:
    @pytest.mark.parametrize(
        "case", EXTRA_CASES, ids=[c.program.name for c in EXTRA_CASES])
    def test_expected_verdicts(self, case):
        for model, expected in case.expected:
            observed = allows(case.program, model, **case.witness_dict())
            assert observed == expected, (case.program.name, model)

    @pytest.mark.parametrize(
        "case", EXTRA_CASES, ids=[c.program.name for c in EXTRA_CASES])
    def test_battery_operational_equals_axiomatic(self, case):
        for model, allowed in outcome_profile(case.program).items():
            assert enumerate_outcomes(case.program, model) == allowed, \
                model


class TestSampler:
    def test_sample_covers_exact_outcome_set_eventually(self):
        report = sample(SB, X86, runs=3000, seed=1)
        assert set(report.histogram) == set(enumerate_outcomes(SB, X86))

    def test_sampled_outcomes_always_legal(self):
        for model in ("SC", "370", "x86", "PC"):
            report = sample(N6, model, runs=400, seed=2)
            legal = enumerate_outcomes(N6, model)
            assert set(report.histogram) <= legal, model

    def test_relaxed_outcome_is_rare_like_hardware(self):
        """The paper saw the n6 witness at ~1e-6 on hardware; under
        uniform random walking it is uncommon but present."""
        report = sample(N6, X86, runs=6000, seed=3)
        freq = report.frequency(r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)
        assert 0.0 < freq < 0.2

    def test_frequencies_sum_to_one(self):
        report = sample(MP, "370", runs=500, seed=4)
        assert sum(report.histogram.values()) == 500

    def test_summary_renders(self):
        report = sample(SB, X86, runs=200, seed=5)
        text = report.summary()
        assert "sb under x86" in text

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            sample(SB, "RMO", runs=10)


class TestExplain:
    def test_forbidden_outcome_gets_a_cycle(self):
        text = explain(N6, "370", r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)
        assert "FORBIDDEN" in text
        assert "--rfi-->" in text   # the paper's Figure 2 argument
        assert "--fr-->" in text
        assert "--co-->" in text

    def test_allowed_outcome_reported(self):
        text = explain(N6, "x86", r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)
        assert "ALLOWED" in text

    def test_unreachable_witness(self):
        text = explain(MP, "x86", r0_rx=7, r0_ry=7)
        assert "UNREACHABLE" in text

    def test_mp_cycle_uses_external_rf(self):
        text = explain(MP, "x86", r0_rx=1, r0_ry=0)
        assert "FORBIDDEN" in text
        assert "--rfe-->" in text

    def test_coherence_violation_explained(self):
        program = make_program("coRR", [
            [St("x", 1)],
            [Ld("x", "r0"), Ld("x", "r1")],
        ])
        text = explain(program, "x86", r1_r0=1, r1_r1=0)
        assert "FORBIDDEN" in text
        assert "po-loc" in text

    def test_explain_matches_enumeration_on_battery(self):
        # Every case, locked RMWs included, under every axiomatic model.
        # The verdict is the line after the header: the x86 note in a
        # FORBIDDEN body says "ALLOWED there" too.
        for case in battery_corpus():
            for model in model_names(axiomatic_only=True):
                text = explain(case.program, model, **case.witness_dict())
                verdict = text.splitlines()[1].split(":")[0].strip()
                expected = case.expected_dict()[model]
                assert verdict == ("ALLOWED" if expected
                                   else "FORBIDDEN"), \
                    (case.program.name, model, text)

    def test_pc_not_supported(self):
        with pytest.raises(ValueError):
            explain(MP, "PC", r0_rx=1)


class TestSamplerPC:
    def test_pc_walks_terminate_and_stay_legal(self):
        report = sample(IRIW, PC, runs=200, seed=9)
        legal = enumerate_outcomes(IRIW, PC)
        assert set(report.histogram) <= legal
        assert sum(report.histogram.values()) == 200
