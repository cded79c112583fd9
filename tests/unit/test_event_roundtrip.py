"""The extended event vocabulary, end to end.

Every new instruction kind — acquire loads, release stores, the
lightweight fence, ``xchg`` and ``cas`` — must round-trip through the
parser, keep a stable canonical form, sample to legal outcomes on
every machine, and produce exact agreement between the axiomatic engine
and the operational machines, both on hand-picked programs and on a
seeded random population.
"""

import random

import pytest

from repro.litmus.checker import random_program
from repro.litmus.operational import MODELS, enumerate_outcomes
from repro.litmus.parser import parse_litmus, render_litmus
from repro.litmus.program import (Cas, Fence, Ld, Rmw, St, canonical_form,
                                  canonical_key, make_program)
from repro.litmus.sampler import sample
from repro.models.conformance import check

VOCAB = make_program(
    "vocab",
    [
        [Ld("x", "r0", acquire=True), St("y", 1, release=True),
         Fence("lw")],
        [Rmw("y", 2, "r0"), Fence(), Cas("x", 0, 3, "r1")],
    ])

SMALL_PROGRAMS = [
    VOCAB,
    make_program("acq", [[Ld("x", "r0", acquire=True), Ld("y", "r1")],
                         [St("y", 1), St("x", 1, release=True)]]),
    make_program("lw", [[St("x", 1), Fence("lw"), Ld("y", "r0")],
                        [St("y", 1), Fence("lw"), Ld("x", "r0")]]),
    make_program("cas", [[Cas("x", 0, 1, "r0")],
                         [Cas("x", 0, 2, "r0")]]),
    make_program("xchg", [[Rmw("x", 1, "r0"), Ld("y", "r1")],
                          [St("y", 1), Ld("x", "r0")]]),
]
_IDS = [p.name for p in SMALL_PROGRAMS]


class TestParserRoundTrip:
    @pytest.mark.parametrize("program", SMALL_PROGRAMS, ids=_IDS)
    def test_render_parse_identity(self, program):
        parsed = parse_litmus(render_litmus(program))
        assert parsed.program.threads == program.threads
        assert parsed.program.initial == program.initial

    @pytest.mark.parametrize("program", SMALL_PROGRAMS, ids=_IDS)
    def test_canonical_form_survives_roundtrip(self, program):
        clone = parse_litmus(render_litmus(program)).program
        assert canonical_form(clone) == canonical_form(program)
        assert canonical_key(clone) == canonical_key(program)

    def test_annotations_are_canonical_not_cosmetic(self):
        plain = make_program("p", [[Ld("x", "r0")], [St("x", 1)]])
        acq = make_program("p", [[Ld("x", "r0", acquire=True)],
                                 [St("x", 1)]])
        rel = make_program("p", [[Ld("x", "r0")],
                                 [St("x", 1, release=True)]])
        keys = {canonical_key(plain), canonical_key(acq),
                canonical_key(rel)}
        assert len(keys) == 3


class TestSamplerRoundTrip:
    @pytest.mark.parametrize("program", SMALL_PROGRAMS, ids=_IDS)
    def test_sampled_outcomes_legal_on_every_machine(self, program):
        for model in MODELS:
            report = sample(program, model, runs=200, seed=4)
            legal = enumerate_outcomes(program, model)
            assert set(report.histogram) <= legal, (program.name, model)

    def test_sampler_covers_the_wmm_outcome_set(self):
        program = SMALL_PROGRAMS[1]     # acq: small enough to saturate
        report = sample(program, "WMM", runs=3000, seed=5)
        assert set(report.histogram) == \
            set(enumerate_outcomes(program, "WMM"))


class TestOracleAgreement:
    @pytest.mark.parametrize("program", SMALL_PROGRAMS, ids=_IDS)
    def test_hand_programs_agree_exactly(self, program):
        report = check([program])
        assert report.ok, "\n".join(report.problems)

    def test_random_population_agrees_exactly(self):
        rng = random.Random(11)
        saw_locked = saw_annotated = 0
        for i in range(40):
            program = random_program(rng, name=f"rt-{i}",
                                     allow_fences=True, allow_rmws=True,
                                     allow_acqrel=True)
            ops = [op for th in program.threads for op in th]
            saw_locked += any(isinstance(op, (Rmw, Cas)) for op in ops)
            saw_annotated += any(
                getattr(op, "acquire", False) or
                getattr(op, "release", False) or
                (isinstance(op, Fence) and op.kind == "lw")
                for op in ops)
            report = check([program])
            assert report.ok, "\n".join(report.problems)
        # The population must actually exercise the new vocabulary.
        assert saw_locked >= 5
        assert saw_annotated >= 5
