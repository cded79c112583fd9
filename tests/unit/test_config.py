"""Unit tests for the system configuration (paper Table III)."""

import pytest

from repro.sim.config import (SKYLAKE_LIKE, TINY, CacheConfig, CoreConfig,
                              MemoryConfig, NetworkConfig, SystemConfig)


class TestTableIII:
    """The default configuration must match the paper's Table III."""

    def test_processor_parameters(self):
        core = SKYLAKE_LIKE.core
        assert core.issue_width == 5
        assert core.retire_width == 5
        assert core.rob_entries == 224
        assert core.lq_entries == 72
        assert core.sq_sb_entries == 56

    def test_memory_parameters(self):
        mem = SKYLAKE_LIKE.memory
        assert mem.l1.size_bytes == 32 * 1024
        assert mem.l1.ways == 8
        assert mem.l1.hit_latency == 4
        assert mem.l2.size_bytes == 128 * 1024
        assert mem.l2.hit_latency == 12
        assert mem.l3_bank.size_bytes == 1024 * 1024
        assert mem.l3_bank.hit_latency == 35
        assert mem.l3_banks == 8
        assert mem.memory_latency == 160

    def test_network_parameters(self):
        net = SKYLAKE_LIKE.network
        assert net.switch_latency == 6
        assert net.data_flits == 5
        assert net.control_flits == 1
        assert net.data_latency == 11
        assert net.control_latency == 7

    def test_eight_cores(self):
        assert SKYLAKE_LIKE.cores == 8


class TestCacheConfig:
    def test_sets_computation(self):
        cache = CacheConfig(32 * 1024, 8, 4)
        assert cache.sets == 64  # 32KB / (8 ways * 64B)

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(64, 8, 4).sets


def test_with_cores_returns_new_config():
    config = SKYLAKE_LIKE.with_cores(2)
    assert config.cores == 2
    assert SKYLAKE_LIKE.cores == 8
    assert config.core == SKYLAKE_LIKE.core


def test_tiny_config_is_consistent():
    assert TINY.cores == 2
    assert TINY.memory.l1.sets > 0
    assert TINY.memory.l2.sets > 0
    assert TINY.core.sq_sb_entries < SKYLAKE_LIKE.core.sq_sb_entries


def test_configs_are_frozen():
    with pytest.raises(Exception):
        SKYLAKE_LIKE.cores = 4


def test_zero_cycle_store_commit_is_refused():
    """A 0-cycle commit lands the L1 write after the core's tick in the
    same cycle, so the retire gate reopens after its blocked head tried
    to retire: a radix 370-SLFSoS cell then fails
    ``SystemStats.validate`` (gate stall cycles above lock cycles).
    The config refuses it; one cycle is the least commit it takes."""
    with pytest.raises(ValueError, match="store_commit_latency"):
        SystemConfig(memory=MemoryConfig(store_commit_latency=0))
    assert MemoryConfig(store_commit_latency=1).store_commit_latency == 1
