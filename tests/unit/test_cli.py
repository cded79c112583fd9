"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "n6" in out
    assert "barnes" in out
    assert "370-SLFSoS-key" in out


def test_litmus_enumeration(capsys):
    assert main(["litmus", "sb", "-m", "SC", "x86"]) == 0
    out = capsys.readouterr().out
    assert "SC: 3 outcomes" in out
    assert "x86: 4 outcomes" in out


def test_litmus_unknown_name():
    with pytest.raises(SystemExit):
        main(["litmus", "nope"])


def test_explain(capsys):
    assert main(["explain", "mp", "-m", "x86",
                 "-w", "r0_rx=1", "r0_ry=0"]) == 0
    out = capsys.readouterr().out
    assert "FORBIDDEN" in out
    assert "-->" in out


def test_explain_requires_witness():
    with pytest.raises(SystemExit):
        main(["explain", "mp", "-m", "x86"])


def test_explain_bad_witness():
    with pytest.raises(SystemExit):
        main(["explain", "mp", "-m", "x86", "-w", "rx"])


def test_compare(capsys):
    assert main(["compare", "n6"]) == 0
    out = capsys.readouterr().out
    assert "x86-only" in out


def test_sample(capsys):
    assert main(["sample", "sb", "-m", "x86", "-n", "300"]) == 0
    out = capsys.readouterr().out
    assert "300 runs" in out


def test_bench(capsys):
    assert main(["bench", "fft", "-c", "2", "-l", "600"]) == 0
    out = capsys.readouterr().out
    assert "fft under 370-SLFSoS-key" in out
    assert "forwarded" in out


def test_bench_json(capsys):
    assert main(["bench", "fft", "-c", "2", "-l", "600", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["execution_cycles"] > 0
    assert "per_core" in stats and "0" in stats["per_core"]


def test_bench_obs(capsys, tmp_path):
    out = tmp_path / "m.jsonl"
    assert main(["bench", "fft", "-c", "2", "-l", "600",
                 "--obs", "--obs-out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "top stalls" in text
    assert out.exists()
    records = [json.loads(line)
               for line in out.read_text().splitlines()]
    assert records[0]["type"] == "meta"


def test_trace(capsys, tmp_path):
    trace_path = tmp_path / "fft.trace.json"
    metrics_path = tmp_path / "fft.metrics.jsonl"
    assert main(["trace", "fft", "-c", "2", "-l", "600",
                 "-o", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "gate intervals" in out
    assert "top stalls" in out

    from repro.obs.validate import validate_chrome_trace_file
    counts = validate_chrome_trace_file(str(trace_path))
    trace = json.loads(trace_path.read_text())
    assert counts["gate_slices"] == trace["otherData"]["gate_closes"]
    assert metrics_path.exists()


def test_sweep(capsys):
    assert main(["sweep", "fft", "-c", "2", "-l", "600"]) == 0
    out = capsys.readouterr().out
    for policy in ("x86", "370-NoSpec", "370-SLFSoS-key"):
        assert policy in out


@pytest.mark.parametrize("argv", [
    ["bench", "nosuch"],
    ["bench", "fft", "-c", "0"],
    ["trace", "fft", "-c", "9"],
    ["record", "nosuch", "out.trace"],
    ["sweep", "fft", "-c", "9"],
], ids=["bench-name", "bench-cores-0", "trace-cores-9", "record-name",
        "sweep-cores-9"])
def test_bad_cell_is_a_usage_error(argv, capsys):
    """An unknown benchmark or a core count the simulated system lacks
    exits 2 with a one-line usage error, before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument " in err
    assert "Traceback" not in err


def test_rmw_litmus_runs_under_every_model(capsys):
    assert main(["litmus", "sb+rmw-both"]) == 0
    out = capsys.readouterr().out
    for model in ("SC", "370", "x86", "PC", "WMM"):
        assert f"\n{model}: " in out
    assert "not defined" not in out


def test_run_file(tmp_path, capsys):
    source = """name: filed
T0:
  st x,1
  ld y -> ry
T1:
  st y,1
  ld x -> rx
exists: r0_ry=0 r1_rx=0
"""
    path = tmp_path / "sb.litmus"
    path.write_text(source)
    assert main(["run-file", str(path), "-m", "SC", "x86"]) == 0
    out = capsys.readouterr().out
    assert "SC: 3 outcomes" in out
    assert "forbidden" in out   # SC forbids the sb witness
    assert "ALLOWED" in out     # x86 allows it


def test_run_file_missing(tmp_path):
    with pytest.raises(SystemExit):
        main(["run-file", str(tmp_path / "nope.litmus")])


def test_record_and_replay(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["record", "fft", str(path), "-c", "2", "-l", "500"]) == 0
    assert main(["replay", str(path), "-p", "x86"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert "replayed" in out and "fft" in out


def test_replay_json_and_obs(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["record", "fft", str(path), "-c", "2", "-l", "500"]) == 0
    capsys.readouterr()
    assert main(["replay", str(path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["execution_cycles"] > 0
    assert main(["replay", str(path), "--obs"]) == 0
    assert "top stalls" in capsys.readouterr().out


def test_record_defaults_to_the_bench_length(tmp_path, capsys, monkeypatch):
    """Without -l, record stores the length bench runs (the suite
    default scaled by REPRO_SCALE), so its replay is the bench run."""
    from repro.workloads.tracefile import load_workload
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    path = tmp_path / "w.json"
    assert main(["record", "505.mcf", str(path)]) == 0
    assert load_workload(path)[2]["length"] == 600
    capsys.readouterr()
    assert main(["replay", str(path), "--json"]) == 0
    replayed = capsys.readouterr().out
    assert main(["bench", "505.mcf", "--json"]) == 0
    assert replayed == capsys.readouterr().out


def test_replay_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["replay", str(tmp_path / "missing.json")])


def test_chaos_runs_the_whole_battery(tmp_path, capsys):
    from repro.models.conformance import battery_corpus
    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "--trials", "1", "-p", "x86", "--squash-period",
                 "0", "--json", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    skipped = {"sb+cas-fail", "cas-race"}
    assert set(report["skipped"]) == skipped
    expressible = [case.program.name for case in battery_corpus()
                   if case.program.name not in skipped]
    assert len(expressible) == 25
    assert [cell["case"] for cell in report["cells"]] == expressible
    assert {cell["policy"] for cell in report["cells"]} == {"x86"}
    assert report["ok"] is True
    assert report["spec"]["squash_period"] == 0
    assert report["injected"]["squash"] == 0
    assert "all outcomes allowed" in capsys.readouterr().out
