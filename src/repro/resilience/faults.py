"""Deterministic fault injection.

A :class:`FaultPlan` perturbs a simulation at four well-defined hook
points, all of which are *timing-only* — the coherence protocol and the
functional value layer already tolerate every injected event, so a
faulted run may be slower or squash more, but can never produce an
outcome the consistency model disallows:

``noc``     extra latency on interconnect messages (jitter).  Safe
            because the directory is blocking and every controller
            handler tolerates stale/reordered arrivals.
``evict``   forced evictions of random lines from random private
            hierarchies.  Safe because an eviction is an event the
            model already handles: speculative loads on the line are
            squashed, M/E lines write back.
``squash``  spurious pipeline squashes at a random live ROB entry.
            Safe because squash/re-execute is the pipeline's normal
            recovery path; only ``reexecuted_instructions`` grows.
``sb``      extra delay on owned-line SB→L1 store commits.  Completion
            order is kept monotone (TSO requires in-order memory-order
            insertion), so only the drain is slower.

Determinism: every mechanism draws from its own seeded stream, so runs
with the same ``(spec, seed)`` are byte-identical, and disabling one
mechanism does not shift the choices of another.  Zero overhead: a plan
whose spec is all-zero installs nothing — the hook attributes stay
``None`` and each hook site pays one attribute load + ``is not None``
(the probe-bus contract).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, and how hard.  All-zero (the default) disables
    every mechanism."""

    noc_jitter: int = 0          # max extra cycles added to one message
    noc_jitter_prob: float = 0.0  # fraction of messages jittered
    evict_period: int = 0        # force one private eviction every N cycles
    squash_period: int = 0       # force one spurious squash every N cycles
    sb_delay: int = 0            # max extra cycles on an owned SB commit
    sb_delay_prob: float = 0.0   # fraction of commits delayed

    @property
    def enabled(self) -> bool:
        return bool((self.noc_jitter and self.noc_jitter_prob > 0)
                    or self.evict_period > 0
                    or self.squash_period > 0
                    or (self.sb_delay and self.sb_delay_prob > 0))

    def to_dict(self) -> Dict:
        return asdict(self)


#: The default for litmus-scale runs.  Measured over the chaos gate's
#: 3,125 runs (``repro chaos --seed 0 --trials 25``), which last 219–929
#: cycles (median 508), a run sees on average 11.2 jittered messages,
#: 1.1 forced evictions, 1.4 spurious squashes and 1.5 delayed SB
#: commits.
DEFAULT_CHAOS = FaultSpec(noc_jitter=8, noc_jitter_prob=0.25,
                          evict_period=300, squash_period=150,
                          sb_delay=6, sb_delay_prob=0.25)


class FaultPlan:
    """A seeded, single-use injection schedule for one system run.

    Construct with a :class:`FaultSpec` and a seed, pass as
    ``System(..., faults=plan)`` (or ``run_once(..., faults=plan)``).
    After the run, :attr:`injected` holds per-mechanism counts for
    diagnostics.
    """

    def __init__(self, spec: FaultSpec = DEFAULT_CHAOS, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        # One independent stream per mechanism: string seeding hashes the
        # bytes, so the streams are unrelated and each is stable across
        # runs and Python versions.
        self._rng_noc = random.Random(f"{seed}:noc")
        self._rng_evict = random.Random(f"{seed}:evict")
        self._rng_squash = random.Random(f"{seed}:squash")
        self._rng_sb = random.Random(f"{seed}:sb")
        self.injected: Dict[str, int] = {"noc": 0, "evict": 0,
                                         "squash": 0, "sb": 0}
        self._system: "System" = None
        self._installed = False

    # ------------------------------------------------------------------

    def install(self, system: "System") -> None:
        """Wire the enabled mechanisms into ``system``.  A plan is
        single-use: its RNG streams advance with the run."""
        if self._installed:
            raise RuntimeError("a FaultPlan is single-use; make a new one "
                               "per run (its RNG streams are consumed)")
        self._installed = True
        spec = self.spec
        if not spec.enabled:
            return
        self._system = system
        if spec.noc_jitter and spec.noc_jitter_prob > 0:
            system.memory.network.fault_delay = self._noc_extra
        if spec.sb_delay and spec.sb_delay_prob > 0:
            for ctrl in system.memory.controllers:
                ctrl.fault_store_delay = self._sb_extra
        if spec.evict_period > 0:
            system.engine.schedule(spec.evict_period, self._evict_tick)
        if spec.squash_period > 0:
            system.engine.schedule(spec.squash_period, self._squash_tick)

    # -- hook callbacks -------------------------------------------------

    def _noc_extra(self, msg_class: str) -> int:
        rng = self._rng_noc
        if rng.random() >= self.spec.noc_jitter_prob:
            return 0
        self.injected["noc"] += 1
        return rng.randrange(1, self.spec.noc_jitter + 1)

    def _sb_extra(self) -> int:
        rng = self._rng_sb
        if rng.random() >= self.spec.sb_delay_prob:
            return 0
        self.injected["sb"] += 1
        return rng.randrange(1, self.spec.sb_delay + 1)

    def _evict_tick(self) -> None:
        system = self._system
        if system.done or system.engine.stopped:
            return
        rng = self._rng_evict
        controllers = system.memory.controllers
        ctrl = controllers[rng.randrange(len(controllers))]
        lines = list(ctrl.state)  # insertion order: deterministic
        if lines and ctrl.force_evict(lines[rng.randrange(len(lines))]):
            self.injected["evict"] += 1
        system.engine.schedule(self.spec.evict_period, self._evict_tick)

    def _squash_tick(self) -> None:
        system = self._system
        if system.done or system.engine.stopped:
            return
        rng = self._rng_squash
        cores = system.cores
        core = cores[rng.randrange(len(cores))]
        if not core.finished and len(core.rob):
            seqs = [entry.seq for entry in core.rob]
            core._squash(seqs[rng.randrange(len(seqs))], "fault")
            self.injected["squash"] += 1
        system.engine.schedule(self.spec.squash_period, self._squash_tick)

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "spec": self.spec.to_dict(),
                "injected": dict(self.injected)}
