"""Serializable, versioned snapshots of full simulator state.

Public surface::

    from repro.snapshot import capture, restore, Snapshot

    snap = capture(system)          # quiescent System -> Snapshot
    blob = snap.to_bytes()          # versioned, compressed, durable
    system2 = restore(Snapshot.from_bytes(blob), traces)

See :mod:`repro.snapshot.state` for the operations,
:mod:`repro.snapshot.quiescence` for when a system is snapshottable,
and :mod:`repro.snapshot.schema` for the per-class coverage contract
(enforced by the ``snap-coverage`` lint rule).
"""

from repro.snapshot.quiescence import (NotQuiescent, check_quiescent,
                                       is_quiescent,
                                       structurally_quiescent)
from repro.snapshot.schema import (SNAPSHOT_SCHEMA, SNAPSHOT_VERSION,
                                   schema_buckets)
from repro.snapshot.state import Snapshot, SnapshotError, capture, restore

__all__ = [
    "NotQuiescent", "SNAPSHOT_SCHEMA", "SNAPSHOT_VERSION", "Snapshot",
    "SnapshotError", "capture", "check_quiescent", "is_quiescent",
    "restore", "schema_buckets", "structurally_quiescent",
]
