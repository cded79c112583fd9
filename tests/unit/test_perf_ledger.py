"""The committed perf ledger: one JSON row per change that claims a
speedup, measured with ``perfbench/run.py`` in alternating pairs
against its parent commit (``BENCH_perf.jsonl`` at the repo root)."""

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER = ROOT / "BENCH_perf.jsonl"
WORKLOADS = {workload["name"] for workload in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}

ROW_KEYS = {"pr", "workload", "metric", "unit", "better", "seeds",
            "pairs", "wins", "parent", "change", "ratio", "runs", "host",
            "held_out_seeds", "stats_digests", "traced", "end_to_end"}
QUARTILE_KEYS = {"q1", "median", "q3"}
HOST_KEYS = {"cpu_count", "affinity", "python", "parent_commit",
             "change_commit"}
TRACED_KEYS = {"workloads.gen_s", "workloads.warmgen_s",
               "workloads.instr_per_s", "sim.build_s", "sim.run_s",
               "sim.events"}


def _rows():
    lines = LEDGER.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def test_ledger_has_rows():
    assert _rows()


@pytest.mark.parametrize("row", _rows(), ids=lambda row: f"pr{row['pr']}")
def test_row_is_complete_and_consistent(row):
    assert ROW_KEYS <= set(row)
    assert QUARTILE_KEYS <= set(row["parent"])
    assert QUARTILE_KEYS <= set(row["change"])
    assert HOST_KEYS <= set(row["host"])
    assert TRACED_KEYS <= set(row["traced"]["parent"])
    assert TRACED_KEYS <= set(row["traced"]["change"])
    assert len(row["seeds"]) == row["pairs"]
    assert 0 <= row["wins"] <= row["pairs"]
    assert row["ratio"] == pytest.approx(
        row["change"]["median"] / row["parent"]["median"], abs=5e-4)


def test_pr_numbers_increase_down_the_file():
    prs = [row["pr"] for row in _rows()]
    assert all(a < b for a, b in zip(prs, prs[1:])), prs


@pytest.mark.parametrize("row", _rows(), ids=lambda row: f"pr{row['pr']}")
def test_row_meets_the_claim_rule(row):
    """The rule a claimed gain must meet: the change wins at least 90%
    of the alternating pairs, its median beats the parent's by more
    than the parent's interquartile range, and the ratio lies on the
    metric's better side of 1.  Held-out seeds are among the measured
    ones, and the other workloads were run too."""
    lower = row["better"] == "lower"
    assert row["better"] in ("lower", "higher")
    parent, change = row["runs"]["parent"], row["runs"]["change"]
    assert len(parent) == len(change) == row["pairs"]
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(parent, change))
    assert row["wins"] == wins
    assert wins >= math.ceil(0.9 * row["pairs"])
    gap = abs(row["parent"]["median"] - row["change"]["median"])
    assert gap > row["parent"]["q3"] - row["parent"]["q1"]
    assert (row["ratio"] < 1) if lower else (row["ratio"] > 1)
    assert set(row["held_out_seeds"]) <= set(row["seeds"])
    assert WORKLOADS <= set(row["end_to_end"])
