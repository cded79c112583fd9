"""Tests for the command-line interface."""

import json
import os
import pathlib
import signal
import subprocess
import sys

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


@pytest.mark.parametrize("argv", [
    ["mp", "-m", "x86", "-w", "rx"],
    ["n6", "-m", "370", "-w", "r0_rx=x"],
    ["n6", "-m", "370", "-w", "bogus=1"],
    ["n6", "-m", "370", "-w", "r9_rx=1"],
    ["n6", "-m", "370", "-w", "mem_q=1"],
], ids=["not-key-value", "not-an-integer", "bad-key", "no-such-thread",
        "no-such-location"])
def test_explain_bad_witness(argv):
    """A witness condition that is not ``key=value`` with an integer
    value naming a register some op of its thread writes or a location
    the program uses exits 1 with one line, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["explain"] + argv)
    assert isinstance(exc.value.code, str)
    assert "\n" not in exc.value.code


def test_compare(capsys):
    assert main(["compare", "n6"]) == 0
    out = capsys.readouterr().out
    assert "x86-only" in out
    assert "forwarding race, 370 cycle:" in out


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


def test_sweep_out_carries_each_cells_stats_key(tmp_path, capsys):
    """``sweep -o`` keys each cell's whole stats payload, so a reader
    can hold every statistic to the cell run alone."""
    from repro.sweep.cache import content_key
    from repro.sweep.runner import SweepJob, execute_job

    out = tmp_path / "sweep.json"
    assert main(["sweep", "fft", "-c", "2", "-l", "300", "--no-cache",
                 "-j", "1", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["stats_keys"]) == len(report["jobs"]) == 5
    for job, key in zip(report["jobs"], report["stats_keys"]):
        assert key == content_key(execute_job(SweepJob(**job))), job


@pytest.mark.parametrize("argv", [
    ["bench", "nosuch"],
    ["bench", "fft", "-c", "0"],
    ["trace", "fft", "-c", "9"],
    ["record", "nosuch", "out.trace"],
    ["sweep", "fft", "-c", "9"],
    ["bench", "fft", "-l", "0"],
    ["sweep", "fft", "-l", "-5"],
    ["record", "fft", "out.trace", "-l", "0"],
    ["trace", "fft", "-l", "0"],
], ids=["bench-name", "bench-cores-0", "trace-cores-9", "record-name",
        "sweep-cores-9", "bench-length-0", "sweep-length-neg",
        "record-length-0", "trace-length-0"])
def test_bad_cell_is_a_usage_error(argv, capsys):
    """An unknown benchmark, a core count the simulated system lacks or
    a length below 1 exits 2 with a one-line usage error, before
    anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["chaos", "--trials", "0"],
    ["chaos", "--trials", "-1"],
    ["trace", "fft", "-c", "2", "-l", "100", "--sample-interval", "0"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache", "-j", "0"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache", "-j", "-3"],
    ["zoo", "--random", "-1"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache",
     "--timeout", "-1"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache",
     "--timeout", "0"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache",
     "--timeout", "nan"],
    ["sweep", "fft", "-c", "2", "-l", "100", "--no-cache",
     "--retries", "-2"],
    ["sample", "sb", "-n", "-3"],
    ["sample", "sb", "-n", "0"],
    ["serve", "--port", "0", "--timeout", "-1"],
    ["serve", "--port", "0", "--timeout", "0"],
    ["serve", "--port", "0", "--retries", "-1"],
    ["serve", "--port", "0", "--shards", "0"],
    ["serve", "--port", "0", "--queue-limit", "0"],
    ["serve", "--port", "0", "--cache-max-bytes", "-1"],
    ["serve", "--port", "0", "--stuck-after", "-1"],
    ["synth", "--spaces", "2x2x2", "--limit", "-1"],
    ["synth", "--spaces", "2x2x2", "--url", "http://127.0.0.1:9",
     "--chunks", "0"],
    ["synth", "--spaces", "2x2x2", "--url", "http://127.0.0.1:9",
     "--chunks", "-2"],
    ["cache", "--max-bytes", "-1"],
    ["sample", "sb", "-n", "200", "--top", "-1"],
    ["sample", "sb", "-n", "200", "--top", "0"],
    ["trace", "fft", "-c", "2", "-l", "100", "--top", "-1"],
    ["trace", "fft", "-c", "2", "-l", "100", "--top", "0"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["chaos", "--trials", "1", "--evict-period", "-5"],
    ["chaos", "--trials", "1", "--squash-period", "-1"],
    ["chaos", "--trials", "1", "--noc-jitter-prob", "-0.5"],
    ["chaos", "--trials", "1", "--noc-jitter-prob", "1.5"],
    ["chaos", "--trials", "1", "--noc-jitter-prob", "nan"],
    ["chaos", "--trials", "1", "--sb-delay-prob", "7"],
    ["chaos", "--trials", "1", "--noc-jitter", "-1"],
    ["chaos", "--trials", "1", "--sb-delay", "-1"],
], ids=["chaos-trials-0", "chaos-trials-neg", "trace-sample-interval-0",
        "sweep-jobs-0", "sweep-jobs-neg", "zoo-random-neg",
        "sweep-timeout-neg", "sweep-timeout-0",
        "sweep-timeout-nan", "sweep-retries-neg",
        "sample-runs-neg", "sample-runs-0",
        "serve-timeout-neg", "serve-timeout-0", "serve-retries-neg",
        "serve-shards-0", "serve-queue-limit-0",
        "serve-cache-max-bytes-neg", "serve-stuck-after-neg",
        "synth-limit-neg", "synth-chunks-0", "synth-chunks-neg",
        "cache-max-bytes-neg", "sample-top-neg", "sample-top-0",
        "trace-top-neg", "trace-top-0", "serve-port-over",
        "serve-port-neg", "chaos-evict-period-neg",
        "chaos-squash-period-neg", "chaos-noc-jitter-prob-neg",
        "chaos-noc-jitter-prob-over", "chaos-noc-jitter-prob-nan",
        "chaos-sb-delay-prob-over", "chaos-noc-jitter-neg",
        "chaos-sb-delay-neg"])
def test_bad_count_is_a_usage_error(argv, capsys):
    """A count or budget that cannot mean what it asks for (no chaos
    trials, no workers, a zero sampling period, a negative number of
    random programs, a sweep or serve timeout or a serve watchdog
    period that is not a positive number of seconds, negative retries,
    no sampling runs, no serve shards or queue room, a negative store
    or cache bound, a negative synth witness limit, no synth chunks, no
    sampled outcomes or gate intervals to list, a TCP port outside
    0-65535, a negative chaos fault period or magnitude, a chaos fault
    probability outside [0, 1])
    exits 2 with a one-line usage error, before anything runs,
    instead of a vacuous pass, a silent fallback, a failure of every
    cell, a service that starts only to fail every job, or a
    traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument " in err
    assert "Traceback" not in err


def test_closed_stdout_reader_is_not_a_traceback(tmp_path):
    """``repro ... | head -1``: the reader takes the first line and
    closes the pipe, and the command's next write to stdout ends it
    with exit 1, not a BrokenPipeError traceback.  The service flushes
    its ready line at once and prints its stop line only on SIGTERM,
    so that write always comes after the reader has gone."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "1", "--cache-dir", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        try:
            assert "listening on http://" in proc.stdout.readline()
            proc.stdout.close()
            proc.send_signal(signal.SIGTERM)
            err = proc.communicate(timeout=60)[1]
            assert proc.returncode == 1
        finally:
            if proc.poll() is None:
                proc.kill()
    assert "Traceback" not in err, err
    assert "BrokenPipeError" not in err, err


def test_retired_checkpoint_flag_is_refused(capsys):
    """A sweep cell has one run mode (a retry reruns it from cycle 0),
    so a checkpoint period is an unknown argument, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fft", "-c", "2", "-l", "100", "--no-cache",
              "--checkpoint-every", "400"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --checkpoint-every 400" in err
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


def test_replay_refuses_more_cores_than_the_system(tmp_path):
    from repro.sim.config import SKYLAKE_LIKE
    from repro.workloads import generate_workload, get_profile
    from repro.workloads.tracefile import save_workload
    cores = SKYLAKE_LIKE.cores + 1
    path = tmp_path / "wide.json"
    save_workload(path, generate_workload(get_profile("fft"), cores, 50))
    with pytest.raises(SystemExit) as exc:
        main(["replay", str(path)])
    assert str(exc.value) == (f"{path}: {cores} cores, but the simulated "
                              f"system has {SKYLAKE_LIKE.cores}")


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
