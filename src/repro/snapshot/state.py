"""Capture and restore full simulator state.

A :class:`Snapshot` is a pure-data (JSON-safe) image of a quiescent
:class:`~repro.sim.system.System`: engine clock + seq counter + the
classified queue residue, every core's architectural and predictor
state, the cache arrays and directory, the functional memory image, and
the fault plan's RNG streams.  Because it contains no closures and no
object graphs, it serializes with :meth:`Snapshot.to_bytes` (versioned,
compressed JSON) and survives process boundaries — the crash-resume
path of :mod:`repro.sweep.runner` ships these blobs through the sweep
cache.

Two operations:

:func:`capture`
    System -> Snapshot.  Raises
    :class:`~repro.snapshot.quiescence.NotQuiescent` unless every
    pipeline and coherence transaction has drained.

:func:`restore`
    Snapshot + the same traces -> a fresh System continuing exactly
    where the captured one stopped.  Byte-identical: running the
    restored system yields the same :class:`SystemStats` the captured
    run would have produced.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.snapshot.quiescence import check_quiescent
from repro.snapshot.schema import SNAPSHOT_VERSION

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.isa import Trace
    from repro.sim.system import System

#: Magic prefix of the binary form (versioned separately from the JSON
#: payload's own ``version`` field so a foreign blob fails fast).
_MAGIC = b"RSNAP1\x00"


class SnapshotError(RuntimeError):
    """A snapshot cannot be taken, decoded, or reinstalled."""


# ----------------------------------------------------------------------
# Per-structure capture/install helpers (pure data in, pure data out)
# ----------------------------------------------------------------------

def _cache_state(arr) -> Dict:
    # Sets are stored sparsely (index, resident lines) — most arrays in
    # a warmed system still have many empty or never-created (None)
    # sets, and a restore installs a snapshot into dozens of arrays per
    # system, so skipping empties is a measurable win on both capture
    # and install.
    return {
        "num_sets": arr.num_sets,
        "sets": [[i, list(lines)] for i, lines in enumerate(arr._sets)
                 if lines],
        "hits": arr.hits, "misses": arr.misses, "evictions": arr.evictions,
    }


def _install_cache(arr, data: Dict) -> None:
    from collections import OrderedDict
    num_sets = data["num_sets"]
    if num_sets != arr.num_sets:
        raise SnapshotError(
            f"cache geometry mismatch: snapshot has {num_sets} sets, "
            f"target has {arr.num_sets}")
    # Install helpers only ever run on freshly constructed systems
    # (inside restore()), so every set starts uncreated and only the
    # sparse non-empty entries need to be built.
    sets = arr._sets
    for i, lines in data["sets"]:
        sets[i] = OrderedDict((line, None) for line in lines)
    arr.hits = data["hits"]
    arr.misses = data["misses"]
    arr.evictions = data["evictions"]


def _tage_state(bp) -> Dict:
    # Each tagged table as its non-zero [idx, tag, counter, useful]
    # entries.
    tables = [[[idx, tag, counter, useful]
               for idx, (tag, counter, useful)
               in enumerate(zip(tags, counters, usefuls))
               if tag or counter or useful]
              for tags, counters, usefuls
              in zip(bp.tags, bp.counters, bp.useful)]
    return {
        "base": [[idx, val] for idx, val in enumerate(bp.base)
                 if val != 1],
        "tables": tables,
        "history": bp.history,
        "updates": bp._updates,
        "predictions": bp.predictions,
        "mispredictions": bp.mispredictions,
    }


def _install_tage(bp, data: Dict) -> None:
    for idx, val in data["base"]:
        bp.base[idx] = val
    for tags, counters, usefuls, entries in zip(
            bp.tags, bp.counters, bp.useful, data["tables"]):
        for idx, tag, counter, useful in entries:
            tags[idx] = tag
            counters[idx] = counter
            usefuls[idx] = useful
    bp.history = data["history"]
    bp._folds = bp._refold()
    bp._updates = data["updates"]
    bp.predictions = data["predictions"]
    bp.mispredictions = data["mispredictions"]


def _prefetcher_state(pf) -> Dict:
    return {
        "table": [[pc, st.last_addr, st.stride, st.confidence]
                  for pc, st in pf._table.items()],
        "issued": pf.prefetches_issued,
    }


def _install_prefetcher(pf, data: Dict) -> None:
    from collections import OrderedDict
    from repro.memory.prefetch import _StrideState
    table = OrderedDict()
    for pc, last_addr, stride, confidence in data["table"]:
        st = _StrideState(last_addr)
        st.stride = stride
        st.confidence = confidence
        table[pc] = st
    pf._table = table
    pf.prefetches_issued = data["issued"]


def _rng_state(rng) -> List:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _install_rng(rng, data: List) -> None:
    rng.setstate((data[0], tuple(data[1]), data[2]))


def _core_state(core) -> Dict:
    gate = getattr(core.policy, "gate", None)
    forwardings = getattr(core.policy, "active_forwardings", None)
    return {
        "fetch_idx": core.fetch_idx,
        "finished": core.finished,
        "done": bytes(core.done).hex(),
        "stats": core.stats.to_dict(),
        "retired_load_values": sorted(core.retired_load_values.items()),
        "sleeping": core._sleeping,
        "sleep_since": core._sleep_since,
        "sleep_stall": core._sleep_stall,
        "tick_scheduled": core._tick_scheduled,
        "sb": {"bits": list(core.sb._bits), "head": core.sb._head,
               "tail": core.sb._tail},
        "storeset": {
            "ssit": sorted(core.storeset._ssit.items()),
            "lfst": sorted(core.storeset._lfst.items()),
            "next_ssid": core.storeset._next_ssid,
            "accesses": core.storeset._accesses,
            "violations_trained": core.storeset.violations_trained,
        },
        "tage": None if core.branch_predictor is None
                else _tage_state(core.branch_predictor),
        "prefetcher": None if core.prefetcher is None
                      else _prefetcher_state(core.prefetcher),
        "gate": None if gate is None else {
            "closed_at": gate._closed_at,
            "closes": gate.closes,
            "opens": gate.opens,
            "lock_cycles": gate.lock_cycles,
            "lock_by_key": sorted(gate.lock_cycles_by_key.items()),
        },
        "active_forwardings": None if forwardings is None
                              else sorted(forwardings.items()),
    }


def _install_core(core, data: Dict) -> None:
    from repro.sim.stats import CoreStats

    core.fetch_idx = data["fetch_idx"]
    core.finished = data["finished"]
    core.done = bytearray(bytes.fromhex(data["done"]))
    core.stats = CoreStats.from_dict(data["stats"])
    core.retired_load_values = {seq: value for seq, value
                                in data["retired_load_values"]}
    core._sleeping = data["sleeping"]
    core._sleep_since = data["sleep_since"]
    core._sleep_stall = data["sleep_stall"]
    core._tick_scheduled = data["tick_scheduled"]

    sb = data["sb"]
    core.sb._bits = list(sb["bits"])
    core.sb._head = sb["head"]
    core.sb._tail = sb["tail"]

    ss = data["storeset"]
    core.storeset._ssit = {pc: ssid for pc, ssid in ss["ssit"]}
    core.storeset._lfst = {ssid: seq for ssid, seq in ss["lfst"]}
    core.storeset._next_ssid = ss["next_ssid"]
    core.storeset._accesses = ss["accesses"]
    core.storeset.violations_trained = ss["violations_trained"]

    if data["tage"] is not None:
        if core.branch_predictor is None:
            raise SnapshotError(
                f"core {core.core_id}: snapshot has branch-predictor "
                f"state but the target core has none")
        _install_tage(core.branch_predictor, data["tage"])
    if data["prefetcher"] is not None:
        if core.prefetcher is None:
            raise SnapshotError(
                f"core {core.core_id}: snapshot has prefetcher state "
                f"but the target core has none")
        _install_prefetcher(core.prefetcher, data["prefetcher"])

    gate = getattr(core.policy, "gate", None)
    if data["gate"] is not None and gate is not None:
        g = data["gate"]
        gate._closed_at = g["closed_at"]
        gate.closes = g["closes"]
        gate.opens = g["opens"]
        gate.lock_cycles = g["lock_cycles"]
        gate.lock_cycles_by_key = {key: cyc for key, cyc
                                   in g["lock_by_key"]}
    forwardings = getattr(core.policy, "active_forwardings", None)
    if data["active_forwardings"] is not None and forwardings is not None:
        forwardings.clear()
        forwardings.update({key: seq for key, seq
                            in data["active_forwardings"]})


def _controller_state(ctrl) -> Dict:
    return {
        # Insertion order, NOT sorted: fault eviction picks its victim
        # by index into ``list(ctrl.state)``, so a restored run must see
        # the exact same ordering or the eviction stream diverges.
        "state": list(ctrl.state.items()),
        "fault_store_horizon": ctrl._fault_store_horizon,
        "l1": _cache_state(ctrl.hierarchy.l1),
        "l2": _cache_state(ctrl.hierarchy.l2),
    }


def _install_controller(ctrl, data: Dict) -> None:
    ctrl.state = {line: st for line, st in data["state"]}
    ctrl._fault_store_horizon = data["fault_store_horizon"]
    _install_cache(ctrl.hierarchy.l1, data["l1"])
    _install_cache(ctrl.hierarchy.l2, data["l2"])


def _bank_state(bank) -> Dict:
    return {
        "owner": sorted(bank.owner.items()),
        "sharers": [[line, sorted(cores)]
                    for line, cores in sorted(bank.sharers.items())],
        "stale_putm": [[list(key) if isinstance(key, tuple) else key,
                        value]
                       for key, value in sorted(bank.stale_putm.items())],
        "l3": _cache_state(bank.l3),
    }


def _install_bank(bank, data: Dict) -> None:
    bank.owner = {line: core for line, core in data["owner"]}
    bank.sharers = {line: set(cores) for line, cores in data["sharers"]}
    bank.stale_putm = {tuple(key) if isinstance(key, list) else key: value
                      for key, value in data["stale_putm"]}
    _install_cache(bank.l3, data["l3"])


def _faults_state(plan) -> Optional[Dict]:
    if plan is None:
        return None
    return {
        "spec": plan.spec.to_dict(),
        "seed": plan.seed,
        "injected": dict(plan.injected),
        "rng": {
            "noc": _rng_state(plan._rng_noc),
            "evict": _rng_state(plan._rng_evict),
            "squash": _rng_state(plan._rng_squash),
            "sb": _rng_state(plan._rng_sb),
        },
    }


def _build_faults(data: Optional[Dict]):
    if data is None:
        return None
    from repro.resilience.faults import FaultPlan, FaultSpec
    plan = FaultPlan(FaultSpec(**data["spec"]), data["seed"])
    plan.injected = dict(data["injected"])
    _install_rng(plan._rng_noc, data["rng"]["noc"])
    _install_rng(plan._rng_evict, data["rng"]["evict"])
    _install_rng(plan._rng_squash, data["rng"]["squash"])
    _install_rng(plan._rng_sb, data["rng"]["sb"])
    return plan


# ----------------------------------------------------------------------
# The snapshot object
# ----------------------------------------------------------------------

class Snapshot:
    """A pure-data image of a quiescent system (see module docstring)."""

    __slots__ = ("data",)

    def __init__(self, data: Dict) -> None:
        self.data = data

    @property
    def version(self) -> int:
        return self.data["version"]

    @property
    def policy(self) -> str:
        return self.data["policy"]

    @property
    def cycle(self) -> int:
        return self.data["engine"]["now"]

    @property
    def pristine(self) -> bool:
        """True for a cycle-0 (pre-run) snapshot; :func:`restore` wakes
        the cores of any other kind as a checkpoint resume does."""
        eng = self.data["engine"]
        return (eng["now"] == 0 and eng["seq"] == 0
                and not eng["events"] and eng["dispatched"] == 0)

    def to_dict(self) -> Dict:
        return self.data

    @classmethod
    def from_dict(cls, data: Dict) -> "Snapshot":
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version!r} "
                f"(this build reads version {SNAPSHOT_VERSION})")
        return cls(data)

    def to_bytes(self) -> bytes:
        payload = json.dumps(self.data, sort_keys=True,
                             separators=(",", ":")).encode()
        return _MAGIC + zlib.compress(payload, 6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Snapshot":
        if not blob.startswith(_MAGIC):
            raise SnapshotError("not a snapshot blob (bad magic)")
        try:
            payload = zlib.decompress(blob[len(_MAGIC):])
            data = json.loads(payload)
        except (zlib.error, ValueError) as exc:
            raise SnapshotError(f"corrupt snapshot blob: {exc}")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# capture / restore
# ----------------------------------------------------------------------

def capture(system: "System") -> Snapshot:
    """Snapshot a quiescent system.  Raises
    :class:`~repro.snapshot.quiescence.NotQuiescent` if any pipeline,
    store buffer, or coherence transaction is still in flight, and
    :class:`SnapshotError` for attached observers a snapshot cannot
    carry (probes, tracers, violation detectors)."""
    if system.probe_bus is not None:
        raise SnapshotError("cannot snapshot a system with probes "
                            "attached (observer state is not captured)")
    residue = check_quiescent(system)
    engine = system.engine
    data = {
        "version": SNAPSHOT_VERSION,
        "policy": system.policy_name,
        "config": repr(system.config),
        "trace_lens": [len(core.trace) for core in system.cores],
        "engine": {
            "now": engine.now,
            "seq": engine._seq,
            "dispatched": engine.events_dispatched,
            "events": [[time, seq, list(descriptor)]
                       for time, seq, descriptor in residue],
        },
        "unfinished": system._unfinished,
        "memory_data": sorted(system.memory_data.items()),
        "mem_stats": {
            "invalidations": system.memory.stats_invalidations,
            "evictions": system.memory.stats_evictions,
        },
        "network_messages": dict(system.memory.network.stats.messages),
        "cores": [_core_state(core) for core in system.cores],
        "controllers": [_controller_state(ctrl)
                        for ctrl in system.memory.controllers],
        "banks": [_bank_state(bank) for bank in system.memory.banks],
        "faults": _faults_state(system.faults),
    }
    return Snapshot(data)


def _rebuild_events(system: "System", events: List) -> List:
    rebuilt = []
    for time, seq, descriptor in events:
        kind = descriptor[0]
        if kind == "core_tick":
            fn = system.cores[descriptor[1]]._tick
        elif kind == "fault_evict":
            fn = system.faults._evict_tick
        elif kind == "fault_squash":
            fn = system.faults._squash_tick
        else:
            raise SnapshotError(f"unknown event descriptor {descriptor!r}")
        rebuilt.append((time, seq, fn, ()))
    return rebuilt


def restore(snapshot: Snapshot, traces: Sequence["Trace"],
            config=None) -> "System":
    """Rebuild a runnable system from ``snapshot``.

    ``traces`` must be the exact traces of the captured run (they are
    regenerated deterministically rather than serialized); ``config``
    likewise (None uses the default, as System does).  Call ``run()`` on
    the result to continue; for a mid-run snapshot, pass the same
    ``checkpoint_every`` the captured run used so the drain points line
    up.
    """
    from repro.sim.system import System

    data = snapshot.data
    if [len(t) for t in traces] != data["trace_lens"]:
        raise SnapshotError(
            f"trace shape mismatch: snapshot was captured over traces "
            f"of lengths {data['trace_lens']}, got "
            f"{[len(t) for t in traces]}")

    system = System(traces, data["policy"], config=config,
                    detect_violations=False, warm_caches=False)
    if repr(system.config) != data["config"]:
        raise SnapshotError(
            "system configuration mismatch: the restored system must be "
            "built with the captured run's config")

    system.memory_data.clear()
    system.memory_data.update({addr: val for addr, val
                               in data["memory_data"]})
    for core, core_data in zip(system.cores, data["cores"]):
        _install_core(core, core_data)
    for ctrl, ctrl_data in zip(system.memory.controllers,
                               data["controllers"]):
        _install_controller(ctrl, ctrl_data)
    for bank, bank_data in zip(system.memory.banks, data["banks"]):
        _install_bank(bank, bank_data)
    system.memory.stats_invalidations = data["mem_stats"]["invalidations"]
    system.memory.stats_evictions = data["mem_stats"]["evictions"]
    system.memory.network.stats.messages = dict(data["network_messages"])

    plan = _build_faults(data["faults"])
    if plan is not None:
        plan.install_restored(system)
    system._unfinished = sum(1 for core in system.cores
                             if not core.finished)
    if system._unfinished != data["unfinished"]:
        raise SnapshotError(
            f"unfinished-core count mismatch after restore: "
            f"{system._unfinished} != {data['unfinished']}")

    eng = data["engine"]
    system.engine.restore_queue(eng["now"], eng["seq"],
                                _rebuild_events(system, eng["events"]))
    system.engine.events_dispatched = eng["dispatched"]
    if not snapshot.pristine:
        # Mid-run snapshot: wake the drained cores exactly the way the
        # captured run's checkpoint resume did, so the seq streams (and
        # hence all future event ordering) line up byte-for-byte.
        system._resume_after_checkpoint()
    return system
