"""CLI-level tests for ``repro lint``, including ``--changed`` mode."""

import json
import os
import subprocess
import textwrap

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "fixtures", "lint", "repro")
REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src", "repro")

BAD_SOURCE = textwrap.dedent("""\
    import time


    def stamp():
        return time.time()
""")

CLEAN_SOURCE = textwrap.dedent("""\
    def stamp(engine):
        return engine.now
""")


def test_lint_default_tree_is_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_lint_reports_fixture_violations(capsys):
    bad = os.path.join(FIXTURES, "sim", "hot_slots_bad.py")
    assert main(["lint", bad]) == 1
    out = capsys.readouterr().out
    assert "hot-slots" in out


def test_lint_json_report(tmp_path, capsys):
    bad = os.path.join(FIXTURES, "sim", "det_rng_bad.py")
    out_path = tmp_path / "report.json"
    assert main(["lint", bad, "--json", str(out_path)]) == 1
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is False
    assert any(v["rule"] == "det-rng" for v in payload["violations"])


def test_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("det-wallclock", "det-rng", "obs-resolve-once",
                    "obs-guarded-fire", "hot-slots", "mut-default",
                    "iter-set-order"):
        assert rule_id in out


def test_lint_rule_filter(capsys):
    bad = os.path.join(FIXTURES, "sim", "det_wallclock_bad.py")
    assert main(["lint", bad, "--rule", "hot-slots"]) == 0


def test_lint_strict_rejects_critical_suppressions(tmp_path, capsys):
    hot = tmp_path / "repro" / "sim"
    hot.mkdir(parents=True)
    (hot / "mod.py").write_text(
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()  # lint: ignore[det-wallclock]\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert main(["lint", str(tmp_path), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "strict" in out


def _git(cwd, *argv):
    subprocess.run(["git", *argv], cwd=cwd, check=True,
                   capture_output=True, text=True,
                   env={**os.environ,
                        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t",
                        "GIT_COMMITTER_EMAIL": "t@t"})


def test_lint_changed_restricts_to_differing_files(tmp_path, monkeypatch,
                                                   capsys):
    repo = tmp_path / "work"
    hot = repo / "repro" / "sim"
    hot.mkdir(parents=True)
    tracked = hot / "tracked.py"
    stable = hot / "stable.py"
    tracked.write_text(CLEAN_SOURCE)
    # A pre-existing violation in an *unchanged* file must not fail a
    # --changed run.
    stable.write_text(BAD_SOURCE)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")

    monkeypatch.chdir(repo)
    tracked.write_text(CLEAN_SOURCE + "\n\ndef more(engine):\n"
                       "    return engine.now + 1\n")
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 0
    out = capsys.readouterr().out
    assert "1 files" in out or "1 file" in out

    # Introduce a violation in the changed file: now it must fail.
    tracked.write_text(BAD_SOURCE)
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" in out
    assert "stable.py" not in out


def test_lint_changed_picks_up_untracked_files(tmp_path, monkeypatch,
                                               capsys):
    repo = tmp_path / "work"
    hot = repo / "repro" / "sim"
    hot.mkdir(parents=True)
    (hot / "seed.py").write_text(CLEAN_SOURCE)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")

    monkeypatch.chdir(repo)
    (hot / "fresh.py").write_text(BAD_SOURCE)
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out


def test_lint_changed_skips_renamed_and_deleted_files(tmp_path,
                                                      monkeypatch,
                                                      capsys):
    repo = tmp_path / "work"
    hot = repo / "repro" / "sim"
    hot.mkdir(parents=True)
    (hot / "old_name.py").write_text(CLEAN_SOURCE)
    # The deleted file holds a violation: after deletion it must be
    # skipped with a note, not linted (it is gone) and not an error.
    (hot / "doomed.py").write_text(BAD_SOURCE)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")

    monkeypatch.chdir(repo)
    _git(repo, "mv", "repro/sim/old_name.py", "repro/sim/new_name.py")
    _git(repo, "rm", "-q", "repro/sim/doomed.py")
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 0
    out = capsys.readouterr().out
    assert "skipping" in out
    assert "doomed.py" in out
    assert "renamed or deleted" in out
    # The renamed file's old path (when git reports it) and the deleted
    # file must not surface as violations or errors.
    assert "det-wallclock" not in out

    # The renamed-to file is still linted under its new name.
    (repo / "repro" / "sim" / "new_name.py").write_text(BAD_SOURCE)
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 1
    out = capsys.readouterr().out
    assert "new_name.py" in out


def test_lint_changed_resolves_names_from_subdirectory(tmp_path,
                                                       monkeypatch,
                                                       capsys):
    repo = tmp_path / "work"
    hot = repo / "repro" / "sim"
    hot.mkdir(parents=True)
    tracked = hot / "tracked.py"
    tracked.write_text(CLEAN_SOURCE)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")

    # git names files relative to the repo root; --changed must resolve
    # them against the root even when invoked from a subdirectory.
    monkeypatch.chdir(hot)
    tracked.write_text(BAD_SOURCE)
    assert main(["lint", str(repo), "--changed", "--base", "main"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" in out


def test_lint_changed_outside_git_exits_with_message(tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="--changed needs a git"):
        main(["lint", str(tmp_path), "--changed", "--base",
              "no-such-ref"])
