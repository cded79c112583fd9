"""The chaos gate: the pipeline check under injected faults.

Faults change *timing*, never *allowed outcomes* — every outcome a
faulted pipeline produces must still be in its model's allowed set, and
any run the faults manage to wedge must surface as a structured error,
not a hang.  The full gate runs in CI as
``repro chaos --seed 0 --trials 25 --json chaos-report.json``; these
tests are its quick kernel.
"""

import json

import pytest

from repro.litmus.tests import N6, SB
from repro.models.conformance import check_pipelines
from repro.resilience import DEFAULT_CHAOS, FaultSpec

QUICK_POLICIES = ("x86", "370-SLFSoS-key")


def test_quick_chaos_gate_is_clean():
    report = check_pipelines([N6, SB], QUICK_POLICIES, trials=3, seed=5)
    assert report.ok, report.summary()
    assert len(report.cells) == 2 * len(QUICK_POLICIES)
    # Every mechanism really injected something, or the gate tested
    # less than it claims.
    assert set(report.injected) == {"noc", "evict", "squash", "sb"}
    assert all(count > 0 for count in report.injected.values()), \
        report.injected
    assert "all outcomes allowed" in report.summary()


def test_chaos_report_is_json_safe():
    report = check_pipelines([SB], ("x86",), trials=1, seed=2)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["seed"] == 2
    assert payload["spec"] == DEFAULT_CHAOS.to_dict()
    assert payload["skipped"] == {}
    cell = payload["cells"][0]
    assert cell["case"] == "sb" and cell["policy"] == "x86"
    assert cell["trials"] == 1 and cell["violations"] == []
    assert cell["outcomes"] == 1 and cell["allowed"] == 4


def test_watchdog_sweeps_every_run():
    """The watchdog's period is shorter than a battery run, so three
    runs are swept at least three times; a period longer than the runs
    would sweep none."""
    report = check_pipelines([SB], ("370-SLFSoS-key",), trials=3, seed=0)
    assert report.ok, report.summary()
    assert report.invariant_checks >= 3
    assert report.to_dict()["invariant_checks"] == report.invariant_checks
    assert f"invariant_checks={report.invariant_checks}" in report.summary()


def test_chaos_records_errors_instead_of_dying():
    """An impossible cycle budget makes every trial fail; the gate must
    finish and report each failure as a structured payload."""
    report = check_pipelines([SB], ("x86",), trials=2, seed=0,
                             max_cycles=50)
    assert not report.ok
    assert len(report.errors) == 2
    for err in report.errors:
        assert err["type"] == "RuntimeError"
        assert "exceeded" in err["message"]
    assert "error(s)" in report.summary()


def test_chaos_is_deterministic():
    kwargs = dict(programs=[N6], policies=("370-SLFSoS-key",), trials=2,
                  seed=9)
    assert check_pipelines(**kwargs).to_dict() == \
        check_pipelines(**kwargs).to_dict()


@pytest.mark.parametrize("policy", QUICK_POLICIES)
def test_conformance_holds_under_custom_spec(policy):
    """Outcomes under a caller's fault spec, one plan per run, stay
    within the abstract model."""
    spec = FaultSpec(noc_jitter=8, noc_jitter_prob=0.4,
                     evict_period=200, squash_period=500,
                     sb_delay=6, sb_delay_prob=0.4)
    report = check_pipelines([N6], (policy,), trials=6, spec=spec)
    assert report.ok, report.summary()
    assert report.spec == spec
