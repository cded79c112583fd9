"""Tests for the litmus text-format parser."""

import pytest

from repro.litmus.operational import allows, enumerate_outcomes
from repro.litmus.parser import (LitmusParseError, parse_litmus,
                                 render_litmus)
from repro.litmus.program import Fence, Ld, Rmw, St
from repro.litmus.tests import ALL_CASES, MP

MP_SOURCE = """
name: mp
# message passing
T0:
  ld x -> rx
  ld y -> ry

T1:
  st y,1
  st x,1

exists: r0_rx=1 r0_ry=0
"""


def test_parse_mp():
    parsed = parse_litmus(MP_SOURCE)
    assert parsed.program.name == "mp"
    assert parsed.witness == {"r0_rx": 1, "r0_ry": 0}
    assert parsed.program == MP  # structural equality with the built-in


def test_parse_all_instruction_kinds():
    parsed = parse_litmus("""
name: kinds
init: y=5
T0:
  st x,1
  mfence
  ld x -> r0
  xchg y,2 -> r1
""")
    thread = parsed.program.threads[0]
    assert thread == (St("x", 1), Fence(), Ld("x", "r0"),
                      Rmw("y", 2, "r1"))
    assert parsed.program.initial_value("y") == 5


def test_parsed_program_runs():
    parsed = parse_litmus(MP_SOURCE)
    assert not allows(parsed.program, "x86", **parsed.witness)


def test_comments_and_blank_lines_ignored():
    parsed = parse_litmus("""
# a comment
name: c   # trailing comment? no: whole-line only before strip

T0:
  st x,1  # write flag
""")
    assert len(parsed.program.threads[0]) == 1


class TestErrors:
    def test_unparsable_instruction(self):
        with pytest.raises(LitmusParseError, match="cannot parse"):
            parse_litmus("T0:\n  mov x,1\n")

    def test_instruction_outside_thread(self):
        with pytest.raises(LitmusParseError, match="outside a thread"):
            parse_litmus("st x,1\n")

    def test_duplicate_thread(self):
        with pytest.raises(LitmusParseError, match="twice"):
            parse_litmus("T0:\n  st x,1\nT0:\n  st y,1\n")

    def test_non_contiguous_threads(self):
        with pytest.raises(LitmusParseError, match="contiguous"):
            parse_litmus("T0:\n  st x,1\nT2:\n  st y,1\n")

    def test_empty(self):
        with pytest.raises(LitmusParseError, match="no threads"):
            parse_litmus("name: empty\n")

    def test_bad_condition(self):
        with pytest.raises(LitmusParseError, match="key=value"):
            parse_litmus("T0:\n  st x,1\nexists: broken\n")

    @pytest.mark.parametrize("condition", ["r9_rq=1", "mem_q=1",
                                           "bogus=1", "r1_rx=1"])
    def test_witness_names_what_the_program_has(self, condition):
        """An ``exists:`` key names a register some op of that thread
        writes or a location the program uses; anything else is an
        error naming the line."""
        with pytest.raises(LitmusParseError, match="^line 3: "):
            parse_litmus(f"T0:\n  ld x -> rx\nexists: {condition}\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "case",
        [c for c in ALL_CASES],
        ids=lambda c: c.program.name)
    def test_builtin_cases_roundtrip(self, case):
        source = render_litmus(case.program, case.witness_dict())
        parsed = parse_litmus(source)
        # Names with characters outside \w can differ; compare structure.
        assert parsed.program.threads == case.program.threads
        assert parsed.program.initial == case.program.initial
        assert parsed.witness == case.witness_dict()

    def test_roundtrip_preserves_outcomes(self):
        source = render_litmus(MP)
        parsed = parse_litmus(source)
        for model in ("SC", "370", "x86"):
            assert enumerate_outcomes(parsed.program, model) \
                == enumerate_outcomes(MP, model)
