"""The promoted (generated) battery members, re-verified from scratch.

``src/repro/litmus/generated.py`` is committed output of ``repro synth
--promote``.  Trust nothing: every case here is re-checked by the
conformance check (axiomatic engine against the operational machines),
its witness verdicts are recomputed, its minimality is re-established,
and its structural novelty vs the hand-written battery is re-derived —
so a stale or hand-edited generated module fails loudly.
"""

import pytest

from repro.litmus.battery import EXTRA_CASES
from repro.litmus.generated import GENERATED_CASES
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.program import canonical_key
from repro.litmus.registry import litmus_registry
from repro.litmus.tests import ALL_CASES
from repro.models.axiomatic import outcome_profile
from repro.models.conformance import check
from repro.synth.space import LATTICE

_IDS = [case.program.name for case in GENERATED_CASES]


def test_at_least_five_promoted_cases():
    assert len(GENERATED_CASES) >= 5


def test_generated_cases_are_registered():
    registry = litmus_registry()
    for case in GENERATED_CASES:
        assert case.program.name in registry
        assert registry[case.program.name] is case.program


def test_generated_keys_distinct_and_novel():
    hand = {canonical_key(case.program): case.program.name
            for case in ALL_CASES + EXTRA_CASES}
    seen = set()
    for case in GENERATED_CASES:
        key = canonical_key(case.program)
        assert key not in hand, \
            f"{case.program.name} duplicates {hand.get(key)}"
        assert key not in seen, f"{case.program.name} repeats {key}"
        seen.add(key)
        # The promoted name embeds the canonical key prefix — a renamed
        # or re-keyed program means the module is stale.
        assert case.program.name.endswith(key[:8])


@pytest.mark.parametrize("case", GENERATED_CASES, ids=_IDS)
def test_three_oracles_agree_exactly(case):
    report = check([case.program])
    assert report.ok, "\n".join(report.problems)


@pytest.mark.parametrize("case", GENERATED_CASES, ids=_IDS)
def test_expected_verdicts_match_operational(case):
    from repro.litmus.operational import matching_outcomes
    for model, allowed in case.expected_dict().items():
        matches = matching_outcomes(case.program, model,
                                    **case.witness_dict())
        assert bool(matches) == allowed, \
            f"{case.program.name}: witness vs {model}"


@pytest.mark.parametrize("case", GENERATED_CASES, ids=_IDS)
def test_case_distinguishes_some_lattice_pair(case):
    expected = case.expected_dict()
    verdicts = [expected[model] for model in LATTICE]
    assert True in verdicts and False in verdicts, \
        f"{case.program.name} distinguishes nothing"


def _promoted_pair(case):
    # Names are "synth-{strong}-{weak}-{key8}" (lowercased).
    lower = {model.lower(): model for model in LATTICE}
    _, strong, weak, _ = case.program.name.split("-")
    return lower[strong], lower[weak]


@pytest.mark.parametrize("case", GENERATED_CASES, ids=_IDS)
def test_case_is_minimal(case):
    # Greedy re-minimization must not shrink a promoted witness for the
    # pair it was promoted under (it may shrink for *weaker* pairs —
    # e.g. a 370-vs-x86 witness can contain a smaller SC-vs-x86 one).
    from repro.synth import distinguishing_outcomes, minimize_program
    pair = _promoted_pair(case)
    expected = case.expected_dict()
    assert not expected[pair[0]] and expected[pair[1]]
    assert distinguishing_outcomes(case.program, pair)
    again = minimize_program(case.program, pair)
    assert again.threads == case.program.threads, \
        f"{case.program.name} not minimal for {pair}"


@pytest.mark.parametrize("case", GENERATED_CASES, ids=_IDS)
def test_sc_outcomes_nonempty_and_lattice_contained(case):
    profile = outcome_profile(case.program)
    assert profile["SC"], "every program has at least one SC outcome"
    assert profile["SC"] <= profile["370"] <= profile["x86"]
    for model in LATTICE:
        assert profile[model] == enumerate_outcomes(case.program, model)
