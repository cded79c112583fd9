"""Litmus tests and their operational engines: executors for every
registered model (SC / 370 / x86-TSO / PC / WMM — see
:mod:`repro.models`), exhaustive interleaving, happens-before
explanations, the paper's litmus tests, and the 370-vs-x86
ConsistencyChecker (:func:`find_races`)."""

from repro.litmus.battery import (CORR_CASE, EXTRA_CASES, LB, LB_CASE, N5,
                                  N5_CASE, RWC, RWC_CASE, SB_BOTH_RMW,
                                  SB_ONE_RMW, W22, W22_CASE, WRC, WRC_CASE)
from repro.litmus.checker import (Race, RaceReport, find_races,
                                  random_program)
from repro.litmus.explain import explain
from repro.litmus.parser import (LitmusParseError, ParsedLitmus,
                                 parse_litmus, parse_litmus_file,
                                 render_litmus)
from repro.litmus.pipeline_runner import run_once
from repro.litmus.operational import (M370, MODELS, PC, SC, WMM, X86,
                                      allows, enumerate_outcomes,
                                      machine_for, matching_outcomes)
from repro.litmus.registry import litmus_registry
from repro.litmus.sampler import SampleReport, sample
from repro.litmus.program import (Cas, Fence, Instruction, Ld, Outcome,
                                  Program, Rmw, St, make_program)
from repro.litmus.tests import (ALL_CASES, FIG5, FIG5_CASE, IRIW, IRIW_CASE,
                                MP, MP_CASE, N6, N6_CASE, PAPER_CASES, SB,
                                SB_CASE, SB_FENCED, SB_FENCED_CASE,
                                LitmusCase)

__all__ = ["Ld", "St", "Fence", "Rmw", "Cas", "Instruction", "Program",
           "Outcome",
           "make_program", "enumerate_outcomes", "matching_outcomes",
           "machine_for",
           "allows", "SC", "M370", "X86", "PC",
           "WMM", "MODELS", "sample", "SampleReport", "explain",
           "litmus_registry",
           "run_once",
           "parse_litmus", "parse_litmus_file", "render_litmus",
           "ParsedLitmus", "LitmusParseError",
           "EXTRA_CASES", "LB", "W22", "WRC", "RWC", "N5",
           "SB_ONE_RMW", "SB_BOTH_RMW",
           "LB_CASE", "W22_CASE", "WRC_CASE", "RWC_CASE", "N5_CASE",
           "CORR_CASE",
           "find_races", "Race", "RaceReport", "random_program",
           "LitmusCase",
           "MP", "N6", "IRIW", "FIG5", "SB", "SB_FENCED",
           "MP_CASE", "N6_CASE", "IRIW_CASE", "FIG5_CASE", "SB_CASE",
           "SB_FENCED_CASE", "ALL_CASES", "PAPER_CASES"]
