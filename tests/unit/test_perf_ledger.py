"""The committed perf ledger: one JSON row per change that claims a
speedup, measured with ``perfbench/run.py`` in alternating pairs
against its parent commit (``BENCH_perf.jsonl`` at the repo root)."""

import json
import pathlib

import pytest

LEDGER = pathlib.Path(__file__).resolve().parents[2] / "BENCH_perf.jsonl"

ROW_KEYS = {"pr", "workload", "metric", "unit", "seeds", "pairs", "wins",
            "parent", "change", "ratio", "host", "stats_digests",
            "traced"}
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
