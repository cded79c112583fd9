"""Multicore system assembly and simulation driver.

:func:`simulate` is the main entry point of the performance model: give
it per-core traces and a consistency-model name, get back a
:class:`~repro.sim.stats.SystemStats` with the paper's metrics.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.sim.config import SKYLAKE_LIKE, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import SystemStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.isa import Trace
    from repro.cpu.pipeline import Core


class System:
    """A simulated multicore: N cores + coherent memory hierarchy."""

    __slots__ = ("config", "policy_name", "engine", "probe_bus", "memory",
                 "cores", "memory_data", "_unfinished", "faults")

    def __init__(self, traces: Sequence["Trace"], policy_name: str,
                 config: Optional[SystemConfig] = None,
                 detect_violations: bool = False,
                 warm_caches: object = True,
                 initial_memory: Optional[Dict[int, int]] = None,
                 trace_pipeline: bool = False,
                 probes=None, faults=None) -> None:
        from repro.coherence.mesi import CoherentMemorySystem
        from repro.coherence.warmup import warm_from_traces
        from repro.core.policies import make_policy
        from repro.cpu.pipeline import Core

        if not traces:
            raise ValueError("need at least one trace")
        base = config or SKYLAKE_LIKE
        if len(traces) > base.cores:
            raise ValueError(
                f"{len(traces)} traces but only {base.cores} cores")
        self.config = base.with_cores(max(len(traces), 1))
        self.policy_name = policy_name
        self.engine = Engine()
        self.probe_bus = probes  # None => every component uses NULL_BUS
        self.memory = CoherentMemorySystem(self.engine, self.config,
                                           probes=probes)
        if warm_caches:
            # The paper measures after a warm-up phase; install working
            # sets functionally before the cores exist (so no squash
            # listeners fire).  Pass a list of traces to warm from a
            # separate warm-up workload, or True to self-warm.
            warm = traces if warm_caches is True else warm_caches
            warm_from_traces(self.memory, warm)
        self.cores: List["Core"] = []
        # Shared functional memory image (value layer).
        self.memory_data: Dict[int, int] = dict(initial_memory or {})
        self._unfinished = 0
        for core_id, trace in enumerate(traces):
            policy = make_policy(policy_name)
            tracer = None
            if trace_pipeline:
                from repro.sim.pipetrace import PipeTracer
                tracer = PipeTracer()
            core = Core(self.engine, core_id, self.config, trace,
                        self.memory.controller(core_id), policy,
                        on_finish=self._core_finished,
                        detect_violations=detect_violations,
                        memory_data=self.memory_data, tracer=tracer,
                        probes=probes)
            self.cores.append(core)
            self._unfinished += 1
        # Deterministic fault injection (repro.resilience.faults): wire
        # the plan's hooks last, once every component exists.  None (the
        # default) leaves every hook site on its zero-cost path.
        self.faults = faults
        if faults is not None:
            faults.install(self)

    def _core_finished(self, core: "Core") -> None:
        self._unfinished -= 1
        if self._unfinished == 0:
            self.engine.stop()

    @staticmethod
    def _describe_core(core: "Core") -> str:
        ctrl = core.controller
        return (f"  core {core.core_id}: finished={core.finished} "
                f"sleeping={core._sleeping} fetch={core.fetch_idx}/"
                f"{len(core.trace)} rob={len(core.rob)} lq={len(core.lq)} "
                f"sb={len(core.sb)} ready={len(core.ready)} "
                f"barrier={core.barrier_seq} txns={list(ctrl.txns)} "
                f"txn_queue={len(ctrl.txn_queue)} "
                f"rob_head={core.rob.head()!r}")

    @property
    def done(self) -> bool:
        return self._unfinished == 0

    def _resume_after_checkpoint(self) -> None:
        """Unpause dispatch and wake every unfinished core.

        Called in exactly two places — after an in-process checkpoint
        capture and at the end of :func:`repro.snapshot.restore` — so a
        resumed run and a restored run issue the same wakes in the same
        order with the same engine seq numbers.

        Also purges squash residue: a squash leaves epoch-dead entries
        behind in ``ready`` / ``consumers`` / ``deferred_on_store`` /
        ``deferred_on_fence`` that the pipeline only discards lazily.
        With the ROB empty (guaranteed at a quiescent point) every such
        entry is dead, and a *restored* system starts without them —
        clearing them here keeps the continuing run bit-identical to a
        run resumed from the snapshot just captured.
        """
        for core in self.cores:
            core.dispatch_paused = False
            if core.rob.empty:
                core.ready.clear()
                core.consumers.clear()
                core.deferred_on_store.clear()
                core.deferred_on_fence.clear()
            if not core.finished:
                core._wake()

    def _run_checkpointed(self, max_cycles: int, checkpoint_every: int,
                          on_checkpoint) -> None:
        """Segmented run: every ``checkpoint_every`` cycles, pause
        dispatch, drain to a quiescent point, hand a snapshot to
        ``on_checkpoint``, resume.

        The drains perturb timing (a few bubble cycles per segment), so
        a checkpointed run is its *own* deterministic mode: two runs
        with the same ``checkpoint_every`` are byte-identical, and a
        crash resumed from any of the snapshots finishes with exactly
        the stats the uninterrupted checkpointed run produces — but the
        stats differ (slightly) from a ``checkpoint_every=None`` run.
        """
        from repro.snapshot import capture, is_quiescent
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        engine = self.engine
        deadline = engine.now + max_cycles
        while not self.done and engine.now < deadline:
            engine.run(max_cycles=min(checkpoint_every,
                                      deadline - engine.now))
            if self.done or engine.now >= deadline:
                break
            for core in self.cores:
                core.dispatch_paused = True
            engine.run(until=lambda: is_quiescent(self),
                       max_cycles=deadline - engine.now)
            if not self.done and is_quiescent(self):
                if on_checkpoint is not None:
                    on_checkpoint(capture(self))
                self._resume_after_checkpoint()
            else:
                for core in self.cores:
                    core.dispatch_paused = False

    def run(self, max_cycles: int = 500_000_000,
            checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> SystemStats:
        """Run to completion (every core retired its whole trace and
        drained its SB).  Raises on deadlock or cycle-budget overrun.

        With ``checkpoint_every=N``, the run drains to a quiescent
        point every ~N cycles and passes a
        :class:`~repro.snapshot.state.Snapshot` to ``on_checkpoint``
        (see :meth:`_run_checkpointed` for the determinism contract).
        """
        for core in self.cores:
            core.start()
        if checkpoint_every is not None:
            self._run_checkpointed(max_cycles, checkpoint_every,
                                   on_checkpoint)
        else:
            self.engine.run(max_cycles=max_cycles)
        if not self.done:
            if self.engine.pending == 0:
                raise RuntimeError(
                    f"deadlock: no pending events but "
                    f"{self._unfinished} cores unfinished "
                    f"(policy={self.policy_name})\n"
                    + "\n".join(self._describe_core(c) for c in self.cores))
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles "
                f"(policy={self.policy_name})")
        stats = SystemStats()
        stats.execution_cycles = max(c.stats.cycles for c in self.cores)
        for core in self.cores:
            stats.per_core[core.core_id] = core.stats
            gate = getattr(core.policy, "gate", None)
            if gate is not None:
                # Surface the RetireGate's own bookkeeping into the
                # core's stats and cross-check the pipeline-side count.
                if gate.closes != core.stats.gate_closes:
                    raise RuntimeError(
                        f"core {core.core_id}: RetireGate.closes="
                        f"{gate.closes} disagrees with stats.gate_closes="
                        f"{core.stats.gate_closes}")
                core.stats.gate_opens = gate.opens
                core.stats.gate_lock_cycles = gate.lock_cycles
                core.stats.gate_lock_by_key = dict(gate.lock_cycles_by_key)
        stats.invalidations_sent = self.memory.stats_invalidations
        stats.evictions = self.memory.stats_evictions
        stats.network_messages = dict(self.memory.network.stats.messages)
        if self.config.strict or \
                os.environ.get("REPRO_STRICT", "0") not in ("", "0"):
            # Strict mode: a full runtime invariant sweep at end of run
            # (the test suite's conftest enables it globally).
            from repro.resilience.invariants import check_system
            check_system(self)
        stats.validate()
        return stats


def simulate(traces: Sequence["Trace"], policy: str,
             config: Optional[SystemConfig] = None,
             detect_violations: bool = False,
             warm_caches: object = True,
             max_cycles: int = 500_000_000) -> SystemStats:
    """Build a system, run the traces under ``policy``, return stats.

    Args:
        traces: one instruction trace per core.
        policy: a configuration name from
            :data:`repro.core.policies.POLICY_ORDER`.
        config: system parameters (defaults to the paper's Table III).
        detect_violations: enable the store-atomicity violation witness
            (Section III); useful for x86 vs 370 comparisons.
        warm_caches: functionally pre-install the traces' working sets
            (models the paper's post-warm-up measurement window).
        max_cycles: safety bound.
    """
    return System(traces, policy, config, detect_violations,
                  warm_caches).run(max_cycles)


def compare_policies(traces: Sequence["Trace"],
                     policies: Optional[Sequence[str]] = None,
                     config: Optional[SystemConfig] = None
                     ) -> Dict[str, SystemStats]:
    """Run the same traces under several policies (default: all five of
    the paper) and return ``{policy_name: stats}``."""
    from repro.core.policies import POLICY_ORDER
    results: Dict[str, SystemStats] = {}
    for name in (policies or POLICY_ORDER):
        results[name] = simulate(traces, name, config)
    return results
