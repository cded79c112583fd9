"""Smoke tests: every example script runs and tells the right story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run(script, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=timeout, check=True)


def test_quickstart():
    out = _run("quickstart.py").stdout
    assert "x86: ALLOWED" in out
    assert "370: forbidden" in out
    assert "370-SLFSoS-key" in out


def test_litmus_gallery():
    out = _run("litmus_gallery.py").stdout
    assert "AXIOM MISMATCH" not in out
    assert out.count("axioms agree") >= 21   # 7 cases x 3 models
    assert "x86 ONLY (case 1)" in out


def test_consistency_checker():
    out = _run("consistency_checker.py").stdout
    assert "x86 exhibits non-store-atomic behaviour here" in out
    assert "store atomicity cannot be observed violated" in out
    assert "found" in out


def test_contended_lock():
    out = _run("contended_lock.py").stdout
    lines = [l for l in out.splitlines()
             if l.startswith(("x86 ", "370-")) and l.split()[-1].isdigit()]
    assert len(lines) == 5
    x86_witnesses = int(lines[0].split()[-1])
    assert x86_witnesses > 0
    for line in lines[1:]:
        assert int(line.split()[-1]) == 0  # 370 configs witness nothing


def test_store_atomicity_cost():
    out = _run("store_atomicity_cost.py", "water_spatial", "2").stdout
    assert "370-SLFSoS-key detail" in out
    assert "paper" in out
    # All five configs appear in the sweep table.
    for policy in ("x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS",
                   "370-SLFSoS-key"):
        assert policy in out


def test_witness_hunt():
    out = _run("witness_hunt.py", "120").stdout
    lines = [l for l in out.splitlines() if l.startswith(("x86 ", "370-"))]
    assert len(lines) == 5
    x86_hits = int(lines[0].split()[2])
    assert x86_hits > 0, "x86 pipeline should witness n6"
    for line in lines[1:]:
        assert int(line.split()[2]) == 0, line


def test_dekker_lock():
    out = _run("dekker_lock.py").stdout
    assert "BROKEN" in out       # plain sb breaks on the pipeline
    assert out.count("safe") >= 6  # fences and locked xchg fix it
