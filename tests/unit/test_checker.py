"""Tests for the ConsistencyChecker (paper footnote 1): ``find_races``,
held to the operational machines, and ``repro synth``'s discovery of
the programs it flags."""

import random

import pytest

from repro.litmus.checker import find_races, random_program
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.program import Ld, St, canonical_key
from repro.litmus.tests import FIG5, MP, N6
from repro.models.conformance import battery_corpus
from repro.synth import SynthBounds, search


def test_n6_reports_one_x86_only_behaviour():
    report = find_races(N6)
    assert len(report.races) == 1
    assert report.allowed_370 - report.allowed_x86 == frozenset()
    assert not report.multi_copy_atomic


def test_mp_is_equivalent_across_models():
    report = find_races(MP)
    assert report.multi_copy_atomic
    assert report.allowed_370 == report.allowed_x86


def test_store_atomicity_violations_helper():
    """``find_races`` is the one helper: fig5 has exactly one
    store-atomicity violation, mp none."""
    assert len(find_races(FIG5).races) == 1
    assert find_races(MP).races == []


def test_summary_mentions_counts():
    text = find_races(N6).summary()
    assert "n6" in text
    assert "only  x86:           1" in text
    assert "x86-only" in text
    assert "forwarding race, 370 cycle:" in text
    assert "T1:st x,2  --co-->  T0:st x,1" in text


@pytest.mark.parametrize("program",
                         [case.program for case in battery_corpus()],
                         ids=[case.program.name for case in battery_corpus()])
def test_races_equal_the_operational_difference(program):
    """The operational machines are the reference: the race outcomes
    are exactly what x86's machine reaches and 370's does not, the
    outcome sets are the machines', and every race's 370 cycle runs
    through a forwarding (rfi) edge."""
    report = find_races(program)
    x86 = enumerate_outcomes(program, "x86")
    m370 = enumerate_outcomes(program, "370")
    assert {race.outcome for race in report.races} == x86 - m370
    assert (report.allowed_370, report.allowed_x86) == (m370, x86)
    for race in report.races:
        assert race.witness.has_kind("rfi"), race.witness.kinds


def test_random_program_is_wellformed():
    rng = random.Random(0)
    for _ in range(20):
        program = random_program(rng, threads=2, max_ops=3)
        assert 1 <= len(program.threads) <= 2
        # store values globally unique
        values = [op.value for _, _, op in program.stores()]
        assert len(values) == len(set(values))


def test_discovery_mode_finds_known_violations():
    """Exhaustive discovery over every program of two threads, up to
    three events each, over two addresses finds exactly the paper's
    two store-atomicity violations, n6 and fig5 (the paper found such
    programs with its checker tool)."""
    result = search(SynthBounds(threads=2, max_ops=3, addresses=2),
                    pairs=[("370", "x86")])
    assert {key for _, key in result.distinguishers} == \
        {canonical_key(N6), canonical_key(FIG5)}
    for dist in result.distinguishers.values():
        assert find_races(dist.program).races
        # Some thread stores to an address it also loads: without
        # forwarding the two models are indistinguishable.
        assert any(
            {op.addr for op in thread if isinstance(op, St)}
            & {op.addr for op in thread if isinstance(op, Ld)}
            for thread in dist.program.threads), dist.program
