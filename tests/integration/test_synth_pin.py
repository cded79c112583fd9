"""Pinned synthesis and verdict digests: the axiomatic engine's output.

The sibling of ``test_stats_pin.py`` and ``test_trace_pin.py``.  The
synthesis search and every litmus verdict rest on one engine,
:mod:`repro.models.axiomatic`, so a change meant to make that engine
faster must leave what it decides exactly as it was:

* ``SEARCH_PINS`` pin the wire form of :func:`repro.synth.search` on
  seven chunks: every count, every minimized witness and its profile;
* ``PROFILE_PINS`` pin :func:`outcome_profile`, the all-models judge,
  on every battery program;
* ``VERDICT_PINS`` pin, on every battery program and under every
  axiomatic model, :func:`classify` with the rendered witness cycle of
  each forbidden outcome, and the verdict of each candidate execution
  in enumeration order.  That holds the candidate order and the cycle
  choice that ``repro explain`` and the lint race report print.

Each pin is the first 16 hex characters of SHA-256 over the canonical
JSON (:func:`repro.sweep.cache.content_key`) of the document the
helper below builds.  A change to what the engine decides updates the
pins in the same change and says so in CHANGES.md.
"""

import pytest

from repro.models.axiomatic import (MODELS, RelationAnalysis, classify,
                                    outcome_profile, render_cycle)
from repro.models.conformance import battery_corpus
from repro.sweep.cache import content_key
from repro.synth import SynthBounds, search

#: label -> (bounds, chunk, chunks, digest of the SynthResult wire form)
SEARCH_PINS = {
    "2x2x2": (SynthBounds(2, 2, 2), 0, 1, "3358bde344fbf5c6"),
    "2x3x2-0/264": (SynthBounds(2, 3, 2), 0, 264, "f6b77d2a7edf9e9e"),
    "2x3x2-131/264": (SynthBounds(2, 3, 2), 131, 264, "acd95cce7406da4c"),
    # The first serve-loop chunk whose result changes if rfi leaves
    # 370's ghb.
    "2x3x2-2/264": (SynthBounds(2, 3, 2), 2, 264, "fe968928b4075e2e"),
    "2x2x2+fences-0/4": (
        SynthBounds(2, 2, 2, fences=True), 0, 4, "76552ec3b4e18e69"),
    "2x2x1+rmws+acqrel-0/8": (
        SynthBounds(2, 2, 1, rmws=True, acqrel=True), 0, 8,
        "3b7a26d2b22d2a78"),
    "2x2x2+rmws+acqrel-0/64": (
        SynthBounds(2, 2, 2, rmws=True, acqrel=True), 0, 64,
        "bcf2575b3cd1d315"),
}

#: battery program -> digest of its outcome_profile
PROFILE_PINS = {
    "2+2w": "dfa0633ba85eabb8",
    "cas-race": "0e7f54f52486a939",
    "coRR": "3707a4d4708b8986",
    "fig5-sb-fwd": "a8ed405a035c40bb",
    "iriw": "8ead77821193960e",
    "lb": "61d3f3a05f043e00",
    "mp": "2399149bdfeba1b9",
    "mp+acqrel": "1218747d49954c86",
    "mp+lwfences": "1218747d49954c86",
    "n5": "54c352a0ddf1fb26",
    "n6": "281da81e8fd1073e",
    "rwc": "403db7fa7b5cc5f8",
    "sb": "82ce88ecaee8b99f",
    "sb+cas-fail": "7a65f23b9f60bd88",
    "sb+lwfences": "82ce88ecaee8b99f",
    "sb+mfences": "156e5b84d4c801c4",
    "sb+rmw-both": "5ac1692514e7c6cb",
    "sb+rmw-one": "46dbb8a8d1043568",
    "self-read": "b5116ca4ab449dae",
    "spectre-bcb": "6b8cb54a7f9c9b31",
    "spectre-slf": "7b58f24f85e53f2b",
    "synth-370-x86-46b5e529": "f7008ea99283f6fb",
    "synth-370-x86-7ff43fe0": "9b31cea815299807",
    "synth-370-x86-ef1ee2cc": "99a79d56df1613e2",
    "synth-sc-370-996448b9": "ee50dba223058dca",
    "synth-sc-370-ddc7c1b6": "909f39dcd62f68cb",
    "wrc": "22254371094fc0e4",
}

#: battery program -> digest of classify and of each candidate's verdict,
#: under every axiomatic model
VERDICT_PINS = {
    "2+2w": "d4cf52eb8013192c",
    "cas-race": "48f59d0896fcd25e",
    "coRR": "dbd244bb49f8d2e7",
    "fig5-sb-fwd": "fe6a7a5c04f4006f",
    "iriw": "d83eacfa6b3cff6c",
    "lb": "ab4d25cf67ce539a",
    "mp": "7a27b95e2c19de2f",
    "mp+acqrel": "3dcb8bf35c8e2198",
    "mp+lwfences": "ffd2232dd790c2d2",
    "n5": "c1c3b610bdbc2dc5",
    "n6": "deb9c78172540731",
    "rwc": "99bf7c8431dba84b",
    "sb": "824f05b75a5a6a84",
    "sb+cas-fail": "7c60ccf5379ddf01",
    "sb+lwfences": "824f05b75a5a6a84",
    "sb+mfences": "11bf114ecc1bd51b",
    "sb+rmw-both": "904c73bb499d47b0",
    "sb+rmw-one": "5ac68d4807e0ed0c",
    "self-read": "82b2349bd4677845",
    "spectre-bcb": "53871b96b4c56794",
    "spectre-slf": "72b098d317bf0536",
    "synth-370-x86-46b5e529": "c16f2338b611a567",
    "synth-370-x86-7ff43fe0": "a46f274af991792f",
    "synth-370-x86-ef1ee2cc": "93f8be1d6e2fd057",
    "synth-sc-370-996448b9": "3c545e87abd147b5",
    "synth-sc-370-ddc7c1b6": "6c31dddd464bdd31",
    "wrc": "c75cae021b27caec",
}

PROGRAMS = {case.program.name: case.program for case in battery_corpus()}


def digest(document):
    return content_key(document)[:16]


def profile_document(program):
    return {model: sorted(str(outcome) for outcome in allowed)
            for model, allowed in outcome_profile(program).items()}


def verdict_document(program):
    def render(witness):
        return [witness.axiom] + render_cycle(program, witness)

    document = {}
    for model in MODELS:
        verdict = classify(program, model)
        candidates = []
        for candidate in RelationAnalysis(program).candidates():
            witness = candidate.judge(model)
            candidates.append([str(candidate.outcome())] + (
                [] if witness is None else render(witness)))
        document[model] = {
            "allowed": sorted(str(outcome) for outcome in verdict.allowed),
            "forbidden": {str(outcome): render(verdict.witnesses[outcome])
                          for outcome in verdict.forbidden},
            "candidates": candidates,
        }
    return document


def test_every_battery_program_is_pinned():
    assert sorted(PROFILE_PINS) == sorted(PROGRAMS)
    assert sorted(VERDICT_PINS) == sorted(PROGRAMS)


@pytest.mark.parametrize("label", list(SEARCH_PINS))
def test_search_is_pinned(label):
    bounds, chunk, chunks, pin = SEARCH_PINS[label]
    result = search(bounds, chunk=chunk, chunks=chunks)
    assert digest(result.to_dict()) == pin


@pytest.mark.parametrize("name", sorted(PROFILE_PINS))
def test_profile_is_pinned(name):
    assert digest(profile_document(PROGRAMS[name])) == PROFILE_PINS[name]


@pytest.mark.parametrize("name", sorted(VERDICT_PINS))
def test_verdicts_and_witnesses_are_pinned(name):
    assert digest(verdict_document(PROGRAMS[name])) == VERDICT_PINS[name]
