"""Pipeline-vs-model conformance: the reproduction's strongest check.

The cycle-level pipeline carries real data values; litmus programs are
compiled to micro-op traces (with randomized timing perturbation) and
executed under each of the five configurations.  Every architectural
outcome the pipeline produces must be allowed by the configuration's
abstract memory model — and the non-store-atomic witnesses must be
*reachable* on the x86 pipeline while every 370 configuration excludes
them (the paper's correctness claim, demonstrated end to end).

Every check here is :func:`repro.models.conformance.check_pipelines`
without faults (``spec=FaultSpec()``): timing padding alone.
"""

import pytest

from repro.core.policies import POLICY_ORDER
from repro.litmus.operational import _matches
from repro.litmus.pipeline_runner import compile_program, run_once
from repro.litmus.tests import FIG5, MP, N6, SB, SB_FENCED
from repro.models.conformance import check_pipelines
from repro.resilience import FaultSpec

LITMUS_TESTS = (SB, MP, N6, FIG5, SB_FENCED)


def _observed(program, policy, trials):
    """The outcomes of ``trials`` fault-free runs of one cell, which
    must all be allowed by the policy's model."""
    report = check_pipelines([program], (policy,), trials=trials,
                             spec=FaultSpec())
    assert report.ok, report.summary()
    return report.cells[0].observed


@pytest.mark.parametrize("policy", POLICY_ORDER)
@pytest.mark.parametrize("program", LITMUS_TESTS,
                         ids=lambda p: p.name)
def test_pipeline_conforms_to_model(program, policy):
    report = check_pipelines([program], (policy,), trials=25,
                             spec=FaultSpec())
    cell = report.cells[0]
    assert report.ok, (
        f"{policy} produced model-illegal outcomes on {program.name}: "
        f"{sorted(map(str, cell.observed - cell.allowed))}")
    assert cell.observed, "no outcomes observed"


class TestWitnessReachability:
    """The x86 pipeline can be caught violating store atomicity; the
    370 pipelines cannot."""

    N6_WITNESS = dict(r0_rx=1, r0_ry=0, mem_x=1, mem_y=2)
    FIG5_WITNESS = dict(r0_rx=1, r0_ry=0, r1_ry=1, r1_rx=0)

    def test_x86_exhibits_n6(self):
        observed = _observed(N6, "x86", 300)
        assert any(_matches(o, self.N6_WITNESS) for o in observed)

    def test_x86_exhibits_fig5_disagreement(self):
        observed = _observed(FIG5, "x86", 300)
        assert any(_matches(o, self.FIG5_WITNESS) for o in observed)

    @pytest.mark.parametrize("policy", POLICY_ORDER[1:])
    def test_370_pipelines_never_exhibit_n6(self, policy):
        observed = _observed(N6, policy, 150)
        assert not any(_matches(o, self.N6_WITNESS) for o in observed)

    @pytest.mark.parametrize("policy", POLICY_ORDER[1:])
    def test_370_pipelines_never_exhibit_fig5(self, policy):
        observed = _observed(FIG5, policy, 150)
        assert not any(_matches(o, self.FIG5_WITNESS) for o in observed)


class TestValueLayer:
    def test_single_run_is_deterministic(self):
        a = run_once(N6, "x86", seed=17)
        b = run_once(N6, "x86", seed=17)
        assert a == b

    def test_sequential_semantics_on_one_core(self):
        from repro.litmus.program import Ld, St, make_program
        program = make_program(
            "seq", [[St("x", 3), Ld("x", "r0"), St("x", 7),
                     Ld("x", "r1")]])
        for policy in POLICY_ORDER:
            outcome = run_once(program, policy, seed=1)
            assert outcome.reg(0, "r0") == 3, policy
            assert outcome.reg(0, "r1") == 7, policy
            assert outcome.mem("x") == 7, policy

    def test_fenced_sb_never_relaxes_on_pipeline(self):
        witness = dict(r0_ry=0, r1_rx=0)
        for policy in ("x86", "370-SLFSoS-key"):
            observed = _observed(SB_FENCED, policy, 60)
            assert not any(_matches(o, witness) for o in observed), policy

    def test_sb_relaxation_reachable_on_every_tso_pipeline(self):
        """The st->ld relaxation (both loads read 0) is the TSO
        behaviour all five configurations share — each pipeline should
        exhibit it with enough timing variation."""
        witness = dict(r0_ry=0, r1_rx=0)
        for policy in POLICY_ORDER:
            observed = _observed(SB, policy, 80)
            assert any(_matches(o, witness) for o in observed), policy

    def test_locked_rmw_conforms(self):
        """sb with both sides locked: the Dekker fix holds on the
        pipeline — both-zero is never observed, outcomes stay legal."""
        from repro.litmus.battery import SB_BOTH_RMW
        for policy in ("x86", "370-SLFSoS-key"):
            observed = _observed(SB_BOTH_RMW, policy, 30)
            assert not any(_matches(o, dict(r0_ry=0, r1_rx=0))
                           for o in observed), policy

    def test_cas_is_refused_not_dropped(self):
        """The pipeline has no conditional write: compiling ``cas``
        raises instead of silently dropping the op (and its register),
        and the pipeline check lists such programs as skipped."""
        from repro.litmus.battery import CAS_RACE, SB_CAS_FAIL
        with pytest.raises(ValueError, match="cannot compile Cas"):
            compile_program(SB_CAS_FAIL)
        report = check_pipelines([SB_CAS_FAIL, CAS_RACE, SB], ("x86",),
                                 trials=1, spec=FaultSpec())
        assert set(report.skipped) == {"sb+cas-fail", "cas-race"}
        assert [cell.case for cell in report.cells] == ["sb"]
