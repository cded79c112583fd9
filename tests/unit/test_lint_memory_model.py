"""The axiomatic relation engine against the operational machines,
plus the race classifier and the explain() chain rendering."""

from repro.litmus import FIG5, IRIW, MP, N6, SB, M370, SC, X86
from repro.litmus.checker import find_races, program_shapes
from repro.litmus.battery import EXTRA_CASES
from repro.litmus.explain import explain, explain_chain
from repro.litmus.program import Ld, St, make_program
from repro.litmus.tests import ALL_CASES
from repro.models.axiomatic import Edge, classify, find_cycle
from repro.models.conformance import check, random_corpus

# ----------------------------------------------------------------------
# Oracle agreement
# ----------------------------------------------------------------------

def test_battery_agrees_with_axiomatic_oracle():
    # The hand-written battery, locked-RMW cases included (the
    # generated cases are checked in test_models_registry.py).
    result = check(case.program for case in ALL_CASES + EXTRA_CASES)
    assert result.ok, "\n".join(result.problems)
    assert result.programs_checked == len(ALL_CASES + EXTRA_CASES)


def test_random_programs_agree_with_axiomatic_oracle():
    result = check(random_corpus(200, 20260805, allow_fences=True))
    assert result.ok, "\n".join(result.problems[:5])
    assert result.programs_checked == 200


def test_random_three_thread_programs_agree():
    result = check(random_corpus(40, 11, threads=3, max_ops=2,
                                 allow_fences=True))
    assert result.ok, "\n".join(result.problems[:5])


def test_single_program_check_reports_no_mismatch():
    assert check([N6, IRIW]).problems == []


# ----------------------------------------------------------------------
# Per-model classification
# ----------------------------------------------------------------------

def test_n6_witness_outcome_split_between_models():
    x86 = classify(N6, X86)
    m370 = classify(N6, M370)
    gap = x86.allowed - m370.allowed
    assert len(gap) == 1
    [outcome] = gap
    witness = m370.witness(outcome)
    assert witness is not None
    assert witness.has_kind("rfi"), witness.kinds


def test_sc_is_strictest():
    for program in (N6, FIG5, MP, SB, IRIW):
        sc = classify(program, SC).allowed
        m370 = classify(program, M370).allowed
        x86 = classify(program, X86).allowed
        assert sc <= m370 <= x86, program.name


def test_forbidden_outcomes_carry_witness_cycles():
    m370 = classify(N6, M370)
    for outcome in m370.forbidden:
        witness = m370.witness(outcome)
        assert witness is not None
        assert witness.axiom in ("sc-per-location", "ghb")
        assert len(witness.edges) >= 2
        # The edges must actually chain into a cycle.
        for first, second in zip(witness.edges,
                                 witness.edges[1:] + witness.edges[:1]):
            assert first.dst == second.src


# ----------------------------------------------------------------------
# Race analysis (non-MCA flagging)
# ----------------------------------------------------------------------

def test_forwarding_races_on_the_paper_cases():
    for program in (N6, FIG5):
        report = find_races(program)
        assert not report.multi_copy_atomic
        assert [race.shape for race in report.races] == ["forwarding"]
        for race in report.races:
            assert race.witness.has_kind("rfi")


def test_mp_sb_iriw_have_no_x86_vs_370_race():
    for program in (MP, SB, IRIW):
        report = find_races(program)
        assert report.multi_copy_atomic, program.name


def test_iriw_shape_detected_structurally():
    assert "iriw" in program_shapes(IRIW)
    assert program_shapes(MP) == frozenset()
    assert program_shapes(SB) == frozenset()


def test_wrc_shape_detected_structurally():
    wrc = make_program(
        "wrc-shape",
        [[St("x", 1)],
         [Ld("x", "r0"), St("y", 1)],
         [Ld("y", "r0"), Ld("x", "r1")]])
    assert "wrc" in program_shapes(wrc)


# ----------------------------------------------------------------------
# Cycle finder
# ----------------------------------------------------------------------

def test_cycle_finder_returns_none_on_acyclic_graph():
    edges = [Edge((0, 0), (0, 1), "po"), Edge((0, 1), (1, 0), "rf")]
    assert find_cycle(edges) is None


def test_cycle_finder_extracts_the_loop_not_the_tail():
    edges = [
        Edge((9, 9), (0, 0), "po"),            # tail into the cycle
        Edge((0, 0), (0, 1), "po"),
        Edge((0, 1), (1, 0), "fr"),
        Edge((1, 0), (0, 0), "co"),
    ]
    cycle = find_cycle(edges)
    assert cycle is not None
    assert len(cycle) == 3
    nodes = {edge.src for edge in cycle}
    assert (9, 9) not in nodes
    for first, second in zip(cycle, cycle[1:] + cycle[:1]):
        assert first.dst == second.src


# ----------------------------------------------------------------------
# explain() integration
# ----------------------------------------------------------------------

N6_WITNESS = dict(r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)


def test_explain_chain_emits_rf_fr_edges_and_x86_note():
    chain = explain_chain(N6, "370", **N6_WITNESS)
    assert chain is not None
    assert "--rfi-->" in chain
    assert "--fr-->" in chain
    assert "x86-TSO drops the forwarding edge" in chain
    assert "ALLOWED there" in chain


def test_explain_chain_none_when_outcome_allowed():
    assert explain_chain(N6, "x86", **N6_WITNESS) is None


def test_explain_appends_communication_chain():
    text = explain(N6, "370", **N6_WITNESS)
    assert "FORBIDDEN" in text
    assert "communication chain" in text
    assert "--rfi-->" in text


def test_explain_x86_reports_allowed_without_chain():
    text = explain(N6, "x86", **N6_WITNESS)
    assert "ALLOWED" in text
    assert "communication chain" not in text


def test_rmw_programs_are_classified():
    from repro.litmus import SB_BOTH_RMW
    from repro.litmus.operational import enumerate_outcomes
    verdict = classify(SB_BOTH_RMW, M370)
    assert verdict.allowed == enumerate_outcomes(SB_BOTH_RMW, M370)
    # The locked ops forbid the (0, 0) witness even under x86; a
    # forbidden-outcome chain renders without crashing.
    assert explain_chain(SB_BOTH_RMW, "x86", r0_ry=0, r1_rx=0) is not None
