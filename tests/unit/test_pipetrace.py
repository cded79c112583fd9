"""Unit tests for the pipeline tracer."""

import pytest

from repro.core.policies import POLICY_ORDER
from repro.cpu.isa import Trace, alu, load, store
from repro.obs.bus import ProbeBus
from repro.obs.session import observe_run
from repro.sim.config import TINY
from repro.sim.pipetrace import PipeTracer


def _run(ops, policy="x86", cores=1, hints=((0x40, 0x30),)):
    traces = []
    for _ in range(cores):
        trace = Trace.from_ops(ops)
        trace.memdep_hints = list(hints)
        traces.append(trace)
    _stats, report, _system = observe_run(traces, policy, TINY,
                                          warm_caches=False,
                                          trace_pipeline=True)
    return report


class TestHookIntegration:
    def test_every_instruction_recorded_and_retired(self):
        report = _run([alu(), store(0x100, pc=0x30, value=1),
                       load(0x100, pc=0x40), alu()])
        tracer = report.tracer
        assert len(tracer.retired_records()) == 4
        assert tracer.squashed_records() == []

    def test_lifecycle_ordering(self):
        report = _run([store(0x100, pc=0x30, value=1),
                       load(0x100, pc=0x40)])
        for record in report.tracer.retired_records():
            assert record.dispatched is not None
            assert record.dispatched <= record.issued
            assert record.issued <= record.completed
            assert record.completed <= record.retired

    def test_slf_annotated(self):
        report = _run([store(0x100, pc=0x30, value=1),
                       load(0x100, pc=0x40)])
        tracer = report.tracer
        ld = tracer.record_for(1)
        assert ld.kind == "load"
        assert ld.slf is True

    def test_squash_creates_new_incarnation(self):
        # An unhinted store->load collision with slow address generation
        # squashes the load once.
        slow = alu(latency=3)
        ops = [slow, store(0x200, deps=(0,), pc=0x30, value=5),
               load(0x200, pc=0x40)]
        report = _run(ops, hints=())  # cold predictor: collision squashes
        tracer = report.tracer
        squashed = tracer.squashed_records()
        assert squashed, "expected a memdep squash"
        assert squashed[0].squash_reason == "memdep"
        final = tracer.record_for(2, incarnation=-1)
        assert final.retired is not None
        assert final.incarnation >= 1


class TestMultiIncarnation:
    """The squash/re-execution path, traced under every policy."""

    # Unhinted store->load collision with slow address generation: the
    # load issues early, the late store hits it, and the memdep squash
    # re-dispatches the load as a new incarnation.
    OPS = staticmethod(lambda: [
        alu(latency=3),
        store(0x200, deps=(0,), pc=0x30, value=5),
        load(0x200, pc=0x40),
    ])

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_squash_traced_under_every_policy(self, policy):
        report = _run(self.OPS(), policy=policy, hints=())
        tracer = report.tracer

        squashed = tracer.squashed_records()
        assert squashed, f"{policy}: expected a memdep squash"
        for record in squashed:
            assert record.squash_reason == "memdep"
            assert record.retired is None
            assert record.squashed is not None
            assert record.squashed >= record.dispatched

        # The killed and surviving incarnations are distinct records
        # with increasing incarnation numbers, and the last one retires.
        load_records = sorted(
            (r for r in tracer.records if r.seq == 2),
            key=lambda r: r.incarnation)
        assert len(load_records) >= 2
        incs = [r.incarnation for r in load_records]
        assert incs == sorted(set(incs))
        final = tracer.record_for(2, incarnation=-1)
        assert final.retired is not None
        assert final.incarnation >= 1

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_every_instruction_eventually_retires(self, policy):
        report = _run(self.OPS(), policy=policy, hints=())
        tracer = report.tracer
        retired_seqs = {r.seq for r in tracer.retired_records()}
        assert retired_seqs == {0, 1, 2}


class TestGateBlockedAnnotation:
    """SoS policies annotate loads that stall behind a closed gate."""

    # Back-to-back SLF pairs: each load closes the gate at retire, and
    # the next pair's load reaches the ROB head before the SB entry has
    # drained, so it must wait for the gate to reopen.
    OPS = staticmethod(lambda: [
        op
        for i in range(10)
        for op in (store(0x1000 + 64 * i, pc=0x30, value=i),
                   load(0x1000 + 64 * i, pc=0x40))
    ])

    @pytest.mark.parametrize("policy", ["370-SLFSoS", "370-SLFSoS-key"])
    def test_gate_blocked_cycles_recorded(self, policy):
        report = _run(self.OPS(), policy=policy, hints=())
        tracer = report.tracer
        blocked = [r for r in tracer.retired_records()
                   if r.gate_blocked_cycles]
        assert blocked, f"{policy}: expected a gate-blocked load"
        assert all(r.kind == "load" for r in blocked)
        assert all(r.gate_blocked_cycles > 0 for r in blocked)

    def test_x86_never_gate_blocked(self):
        report = _run(self.OPS(), policy="x86", hints=())
        tracer = report.tracer
        assert all(r.gate_blocked_cycles == 0
                   for r in tracer.retired_records())


class TestRendering:
    def test_render_contains_rows(self):
        report = _run([store(0x100, pc=0x30, value=1),
                       load(0x100, pc=0x40), alu()])
        text = report.tracer.render()
        assert "seq" in text
        assert "store" in text and "load" in text
        assert "SLF" in text

    def test_summary(self):
        report = _run([alu() for _ in range(10)])
        summary = report.tracer.summary()
        assert summary["retired"] == 10
        assert summary["avg_latency"] > 0

    def test_limit_respected(self):
        tracer = PipeTracer(ProbeBus(), limit=2)
        for seq in range(5):
            tracer.on_dispatch(0, seq, seq, 0)
        assert len(tracer.records) == 2


def test_tracer_off_by_default():
    traces = [Trace.from_ops([alu()])]
    report = observe_run(traces, "x86", TINY, warm_caches=False)[1]
    assert report.tracer is None


def test_cores_traced_apart():
    """One tracer serves every core: each record carries its core, and
    each core's seqs retire in its own records."""
    report = _run([store(0x100, pc=0x30, value=1),
                   load(0x100, pc=0x40), alu()], cores=2)
    tracer = report.tracer
    for core_id in (0, 1):
        retired = [r for r in tracer.retired_records()
                   if r.core_id == core_id]
        assert sorted(r.seq for r in retired) == [0, 1, 2]
        assert tracer.record_for(1, core_id=core_id).slf is True
    assert "load" in tracer.render(core_id=1)


def test_limit_is_per_core():
    tracer = PipeTracer(ProbeBus(), limit=2)
    for core_id in (0, 1):
        for seq in range(5):
            tracer.on_dispatch(core_id, seq, seq, 0)
    assert [r.core_id for r in tracer.records] == [0, 0, 1, 1]
