"""The snapshot coverage schema: which attributes of each simulator
class a snapshot must account for.

Every class that participates in :func:`repro.snapshot.capture` has an
entry here partitioning its ``__slots__`` into three buckets:

``covered``
    Serialized into the snapshot and reinstalled on restore.

``empty``
    Must be at its empty/default value at a quiescent point; the
    quiescence checker enforces this, so the snapshot never needs to
    serialize it (and *could not* — these hold closures, in-flight
    transactions, or live pipeline entries).

``transient``
    Rebuilt by the constructor on restore: configuration, engine /
    controller / policy bindings, probe resolutions, derived geometry.

The partition is the snapshot format's source of truth *and* a lint
contract: the ``snap-coverage`` discipline rule
(:mod:`repro.lint.discipline`) flags any ``__slots__`` attribute added
to one of these classes that no bucket mentions, so new mutable state
cannot silently escape the snapshot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Bump when the serialized layout changes incompatibly.
SNAPSHOT_VERSION = 1


def _entry(covered=(), empty=(), transient=()) -> Dict[str, FrozenSet[str]]:
    return {"covered": frozenset(covered), "empty": frozenset(empty),
            "transient": frozenset(transient)}


#: class name -> {"covered" | "empty" | "transient": frozenset of slots}.
SNAPSHOT_SCHEMA: Dict[str, Dict[str, FrozenSet[str]]] = {
    "Engine": _entry(
        covered=("now", "_seq", "events_dispatched", "_queue",
                 "_bucket_now", "_bucket_next"),
        empty=("_stopped", "event_hook"),
    ),
    "System": _entry(
        covered=("memory_data", "_unfinished", "engine", "memory", "cores",
                 "faults"),
        transient=("config", "policy_name", "probe_bus"),
    ),
    "Core": _entry(
        covered=("stats", "sb", "storeset", "prefetcher",
                 "branch_predictor", "memory_data", "retired_load_values",
                 "fetch_idx", "done", "finished", "_sleeping",
                 "_sleep_since", "_sleep_stall", "_tick_scheduled"),
        empty=("rob", "lq", "load_of", "store_of", "consumers", "ready",
               "deferred_on_store", "pending_fences", "deferred_on_fence",
               "barrier_seq", "_sb_inflight", "_sb_miss_inflight",
               "_rfo_pending", "detector", "tracer", "dispatch_paused"),
        transient=("engine", "core_id", "config", "trace", "_trace_ops",
                   "_trace_len", "_issue_width", "_retire_width",
                   "_rfo_scan_at", "controller", "policy", "on_finish",
                   "probe_bus", "_p_slf_forward", "_p_sb_write",
                   "_p_gate_stall", "_p_squash", "_p_load_perform"),
    ),
    "StoreBuffer": _entry(
        covered=("_bits", "_head", "_tail"),
        empty=("_slots", "_count", "_by_addr"),
        transient=("capacity",),
    ),
    "StoreSetPredictor": _entry(
        covered=("_ssit", "_lfst", "_next_ssid", "_accesses",
                 "violations_trained"),
        transient=("ssit_size", "lfst_size", "clear_interval"),
    ),
    "TagePredictor": _entry(
        covered=("base", "tags", "counters", "useful", "history",
                 "_updates", "predictions", "mispredictions"),
        transient=("base_size", "tagged_size", "tag_mask",
                   "useful_reset_interval", "_folds"),
    ),
    "StridePrefetcher": _entry(
        covered=("_table", "prefetches_issued"),
        transient=("_issue", "line_bytes", "degree", "table_size"),
    ),
    "_StrideState": _entry(covered=("last_addr", "stride", "confidence")),
    "RetireGate": _entry(
        covered=("_closed_at", "closes", "opens", "lock_cycles",
                 "lock_cycles_by_key"),
        empty=("_closed", "_key"),
    ),
    "_SoSBase": _entry(
        covered=("gate", "active_forwardings"),
        transient=("_p_gate_close", "_p_gate_open", "_engine"),
    ),
    "CacheArray": _entry(
        covered=("_sets", "hits", "misses", "evictions"),
        transient=("config", "line_bytes", "num_sets", "ways", "_pow2",
                   "_line_mask", "_line_shift", "_set_mask"),
    ),
    "PrivateHierarchy": _entry(
        covered=("l1", "l2"),
        transient=("line_bytes", "l1_evict_listener"),
    ),
    "PrivateController": _entry(
        covered=("state", "hierarchy", "_fault_store_horizon"),
        empty=("txns", "txn_queue", "wb_buffer"),
        transient=("system", "core_id", "removal_listener", "mshrs",
                   "txns_finished", "fault_store_delay", "_p_inval",
                   "_p_evict", "_p_fill", "_p_prefetch",
                   "line_bytes", "_line_pow2", "_line_mask"),
    ),
    "DirectoryBank": _entry(
        covered=("l3", "owner", "sharers", "stale_putm"),
        empty=("busy", "waiting"),
        transient=("system", "index"),
    ),
    "CoherentMemorySystem": _entry(
        covered=("stats_invalidations", "stats_evictions", "banks",
                 "controllers"),
        transient=("engine", "system_config", "config", "network",
                   "core_mshrs", "probe_bus", "line_bytes"),
    ),
    "Network": _entry(
        covered=("stats",),
        transient=("engine", "config", "fault_delay", "_p_msg"),
    ),
    "TrafficStats": _entry(covered=("messages",)),
}

#: Which module each schema class must be defined in — the lint rule
#: only applies an entry to its home module, so an unrelated class that
#: happens to share a name is never misflagged.
SCHEMA_MODULES: Dict[str, str] = {
    "Engine": "repro/sim/engine.py",
    "System": "repro/sim/system.py",
    "Core": "repro/cpu/pipeline.py",
    "StoreBuffer": "repro/cpu/store_buffer.py",
    "StoreSetPredictor": "repro/cpu/storeset.py",
    "TagePredictor": "repro/cpu/branch.py",
    "StridePrefetcher": "repro/memory/prefetch.py",
    "_StrideState": "repro/memory/prefetch.py",
    "RetireGate": "repro/core/gate.py",
    "_SoSBase": "repro/core/policies.py",
    "CacheArray": "repro/coherence/cache.py",
    "PrivateHierarchy": "repro/coherence/cache.py",
    "PrivateController": "repro/coherence/mesi.py",
    "DirectoryBank": "repro/coherence/mesi.py",
    "CoherentMemorySystem": "repro/coherence/mesi.py",
    "Network": "repro/noc/network.py",
    "TrafficStats": "repro/noc/network.py",
}


def schema_buckets(class_name: str) -> FrozenSet[str]:
    """Union of all bucket members for ``class_name`` (empty if the
    class is not snapshot-covered)."""
    entry = SNAPSHOT_SCHEMA.get(class_name)
    if entry is None:
        return frozenset()
    return entry["covered"] | entry["empty"] | entry["transient"]
