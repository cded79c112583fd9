"""A warmed memory system as pure data.

The paper measures after a warm-up phase.  The sweep walks a trace
unit's warm-up once per cache geometry, images the warmed memory with
:func:`capture_memory`, and installs the image into each cell with
:func:`install_memory` (what ``System(..., warm_caches=image)`` calls)
instead of walking again::

    from repro.snapshot import capture_memory

    image = capture_memory(warmed_memory)
    System(traces, policy, warm_caches=image)

An image holds every private controller's line states and L1/L2 arrays
and every directory bank's owners, sharers and L3 slice.  A warm-up
leaves nothing else behind.  :class:`SnapshotError` refuses an image
whose core or bank count, or whose cache geometry (sets, ways, line
bytes) at any level, differs from the target's.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict


class SnapshotError(RuntimeError):
    """A memory image cannot be installed into the target."""


def _cache_state(arr) -> Dict:
    # Sets are stored sparsely (index, resident lines): most arrays in
    # a warmed system still have many empty or never-created (None)
    # sets, and a sweep installs an image into dozens of arrays per
    # cell, so skipping empties is a measurable win on both capture
    # and install.
    return {
        "num_sets": arr.num_sets, "ways": arr.ways,
        "line_bytes": arr.line_bytes,
        "sets": [[i, list(lines)] for i, lines in enumerate(arr._sets)
                 if lines],
        "hits": arr.hits, "misses": arr.misses, "evictions": arr.evictions,
    }


def _install_cache(arr, data: Dict) -> None:
    geometry = data["num_sets"], data["ways"], data["line_bytes"]
    target = arr.num_sets, arr.ways, arr.line_bytes
    if geometry != target:
        raise SnapshotError(
            f"cache geometry mismatch: image has (sets, ways, line "
            f"bytes) {geometry}, target has {target}")
    # Images are only installed into freshly constructed memory
    # systems, so every set starts uncreated and only the sparse
    # non-empty entries need to be built; ``fromkeys`` keeps the LRU
    # order at the cost of a plain copy.
    sets = arr._sets
    fromkeys = OrderedDict.fromkeys
    for i, lines in data["sets"]:
        sets[i] = fromkeys(lines)
    arr.hits = data["hits"]
    arr.misses = data["misses"]
    arr.evictions = data["evictions"]


def _controller_state(ctrl) -> Dict:
    return {
        # Insertion order, NOT sorted: fault eviction picks its victim
        # by index into ``list(ctrl.state)``, so a cell on an installed
        # image must see the walk's exact ordering or the eviction
        # stream diverges.
        "state": list(ctrl.state.items()),
        "fault_store_horizon": ctrl._fault_store_horizon,
        "l1": _cache_state(ctrl.hierarchy.l1),
        "l2": _cache_state(ctrl.hierarchy.l2),
    }


def _install_controller(ctrl, data: Dict) -> None:
    ctrl.state = dict(data["state"])
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
    bank.owner = dict(data["owner"])
    bank.sharers = {line: set(cores) for line, cores in data["sharers"]}
    bank.stale_putm = {tuple(key) if isinstance(key, list) else key: value
                       for key, value in data["stale_putm"]}
    _install_cache(bank.l3, data["l3"])


def capture_memory(memory) -> Dict:
    """Every private controller's line states and L1/L2 arrays, every
    directory bank and its L3 slice, as pure data: an image of a warmed
    :class:`~repro.coherence.mesi.CoherentMemorySystem` stands in for
    the walk (``System(..., warm_caches=image)``)."""
    return {
        "controllers": [_controller_state(ctrl)
                        for ctrl in memory.controllers],
        "banks": [_bank_state(bank) for bank in memory.banks],
    }


def install_memory(memory, image: Dict) -> None:
    """Inverse of :func:`capture_memory`, into a freshly built memory
    system of the same shape (core count, bank count, cache geometry)."""
    controllers, banks = image["controllers"], image["banks"]
    if (len(controllers), len(banks)) != (len(memory.controllers),
                                          len(memory.banks)):
        raise SnapshotError(
            f"memory shape mismatch: image has {len(controllers)} "
            f"controllers and {len(banks)} banks, target has "
            f"{len(memory.controllers)} and {len(memory.banks)}")
    for ctrl, ctrl_data in zip(memory.controllers, controllers):
        _install_controller(ctrl, ctrl_data)
    for bank, bank_data in zip(memory.banks, banks):
        _install_bank(bank, bank_data)
