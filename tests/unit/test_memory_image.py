"""A captured memory image stands in for the cache warm-up walk.

``repro.snapshot.capture_memory`` images a warmed memory system and
``install_memory`` (what ``System(..., warm_caches=image)`` calls)
rebuilds it in a fresh one.  The sweep installs one image into every
cell of a trace unit, so the installed memory must equal the walked one
in everything a run can observe: line-state insertion order (fault
eviction picks its victim by index into ``list(ctrl.state)``), every
cache set in LRU order with its counters, and the directory.
"""

import dataclasses
from collections import Counter

import pytest

from repro.coherence.mesi import S, CoherentMemorySystem
from repro.coherence.warmup import warm_from_traces
from repro.sim.config import SKYLAKE_LIKE, TINY, CacheConfig
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.snapshot import SnapshotError, capture_memory, install_memory
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_warmup, generate_workload

# x264 has a contended line and canneal a 4 MB shared heap; 505.mcf is
# a sequential profile that overflows its L2 (1,515 evictions).
CASES = [("x264", 4, 1500), ("canneal", 4, 1500), ("505.mcf", 1, 12000)]


def _array_view(arr):
    """Non-empty sets by index, each in LRU order, and the counters."""
    sets = [(index, list(lines)) for index, lines in enumerate(arr._sets)
            if lines]
    return sets, arr.hits, arr.misses, arr.evictions


def _memory_view(memory):
    """Everything a warm-up leaves behind, read straight off the
    objects (not through capture_memory)."""
    controllers = [(list(ctrl.state.items()),
                    _array_view(ctrl.hierarchy.l1),
                    _array_view(ctrl.hierarchy.l2))
                   for ctrl in memory.controllers]
    banks = [(dict(bank.owner), dict(bank.sharers), dict(bank.stale_putm),
              _array_view(bank.l3))
             for bank in memory.banks]
    return controllers, banks


def _walked(config, warm):
    memory = CoherentMemorySystem(Engine(), config)
    warm_from_traces(memory, warm)
    return memory


@pytest.mark.parametrize("name,cores,length", CASES,
                         ids=[case[0] for case in CASES])
def test_installed_image_equals_the_walk(name, cores, length):
    config = SKYLAKE_LIKE.with_cores(cores)
    warm = generate_warmup(get_profile(name), cores, length, 0)
    walked = _walked(config, warm)
    fresh = CoherentMemorySystem(Engine(), config)
    install_memory(fresh, capture_memory(walked))
    assert _memory_view(fresh) == _memory_view(walked)

    # The walk reached the paths the image has to carry: L1 castouts,
    # hierarchy evictions on one core, lines shared by several cores.
    assert sum(ctrl.hierarchy.l1.evictions
               for ctrl in walked.controllers) > 0
    if cores == 1:
        assert walked.controllers[0].hierarchy.l2.evictions > 0
    else:
        held_shared = Counter(line for ctrl in walked.controllers
                              for line, state in ctrl.state.items()
                              if state == S)
        assert max(held_shared.values()) > 1


@pytest.mark.parametrize("policy", ["x86", "370-SLFSoS-key"])
def test_cell_on_an_image_equals_the_cell_that_walks(policy):
    """A whole cell: the same stats, and the same memory at cycle 0."""
    profile = get_profile("x264")
    traces = generate_workload(profile, 4, 600, 3)
    warm = generate_warmup(profile, 4, 600, 3)
    image = capture_memory(_walked(SKYLAKE_LIKE.with_cores(4), warm))
    walking = System(traces, policy, warm_caches=warm)
    installed = System(traces, policy, warm_caches=image)
    assert _memory_view(installed.memory) == _memory_view(walking.memory)
    assert installed.run().to_dict() == walking.run().to_dict()


# The default's set count at every level in another geometry: a 16 KB
# 4-way L1, and every level at half the size on 32-byte lines.
SAME_SETS = [dict(l1=CacheConfig(16 * 1024, 4, 4)),
             dict(l1=CacheConfig(16 * 1024, 8, 4, 32),
                  l2=CacheConfig(64 * 1024, 8, 12, 32),
                  l3_bank=CacheConfig(512 * 1024, 8, 35, 32))]


def test_install_refuses_another_shape():
    warm = generate_warmup(get_profile("fft"), 2, 300, 0)
    image = capture_memory(_walked(TINY, warm))
    with pytest.raises(SnapshotError, match="memory shape mismatch"):
        install_memory(CoherentMemorySystem(Engine(), TINY.with_cores(1)),
                       image)
    with pytest.raises(SnapshotError, match="cache geometry mismatch"):
        install_memory(CoherentMemorySystem(Engine(),
                                            SKYLAKE_LIKE.with_cores(2)),
                       {"controllers": image["controllers"],
                        "banks": image["banks"] * 4})

    config = SKYLAKE_LIKE.with_cores(2)
    image = capture_memory(_walked(config, warm))
    for caches in SAME_SETS:
        target = CoherentMemorySystem(Engine(), dataclasses.replace(
            config, memory=dataclasses.replace(config.memory, **caches)))
        assert target.controllers[0].hierarchy.l1.num_sets == 64
        with pytest.raises(SnapshotError, match="cache geometry mismatch"):
            install_memory(target, image)
