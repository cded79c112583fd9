"""Pipeline-vs-model conformance sweep (end-to-end mechanism check).

Runs the paper's litmus tests *on the cycle-level pipeline* under all
five configurations with randomized timing, and reports (a) that every
observed architectural outcome is legal under the configuration's
abstract memory model, and (b) witness reachability: the x86 pipeline
exhibits the n6 / fig5 store-atomicity violations, the 370 pipelines
never do — the paper's claim, demonstrated on the implementation.
Every run goes through :func:`repro.models.conformance.check_pipelines`
without faults (``spec=FaultSpec()``): timing padding alone.
"""

import pytest
from conftest import add_report

from repro.analysis.report import format_table
from repro.core.policies import POLICY_ORDER
from repro.litmus.operational import _matches
from repro.litmus.tests import FIG5, MP, N6, SB
from repro.models.conformance import check_pipelines
from repro.resilience import FaultSpec

_WITNESSES = {
    "n6": (N6, dict(r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)),
    "fig5-sb-fwd": (FIG5, dict(r0_rx=1, r0_ry=0, r1_ry=1, r1_rx=0)),
}

_rows = []


def _probe(name, policy, trials):
    program, witness = _WITNESSES[name]
    report = check_pipelines([program], (policy,), trials=trials,
                             spec=FaultSpec())
    assert report.ok, report.summary()
    cell = report.cells[0]
    witnessed = any(_matches(o, witness) for o in cell.observed)
    return witnessed, len(cell.observed), len(cell.allowed)


@pytest.mark.parametrize("name", list(_WITNESSES))
def test_conformance_and_witness_reachability(name, once):
    def sweep():
        results = {}
        for policy in POLICY_ORDER:
            trials = 300 if policy == "x86" else 120
            results[policy] = _probe(name, policy, trials)
        return results

    results = once(sweep)
    # x86 must reach the violation; every 370 config must not.
    assert results["x86"][0] is True, "x86 pipeline never hit the window"
    for policy in POLICY_ORDER[1:]:
        assert results[policy][0] is False, policy
    for policy, (witnessed, n_obs, n_allowed) in results.items():
        _rows.append([name, policy,
                      "WITNESSED" if witnessed else "never",
                      f"{n_obs}/{n_allowed}"])


def test_basic_tests_conform(once):
    def sweep():
        report = check_pipelines([SB, MP], trials=30, spec=FaultSpec())
        assert report.ok, report.summary()
        return True

    assert once(sweep)


def test_conformance_report(once):
    once(lambda: None)
    if _rows:
        add_report("Pipeline conformance", format_table(
            ["litmus", "pipeline config", "violation witness",
             "outcomes obs/allowed"], _rows,
            title="Litmus on the pipeline: store-atomicity violation "
                  "reachability per configuration"))
