"""System configuration (paper Table III).

The default :data:`SKYLAKE_LIKE` configuration mirrors the simulated
system of the paper: 8 Skylake-like out-of-order cores, private L1/L2,
a shared banked L3 with a full-map directory, and a fully-connected
interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table III, 'Processor')."""

    issue_width: int = 5
    retire_width: int = 5
    rob_entries: int = 224
    lq_entries: int = 72
    sq_sb_entries: int = 56          # combined store queue + store buffer
    mispredict_penalty: int = 14     # front-end redirect cycles
    branch_predictor: bool = True    # TAGE (L-TAGE-style) predictor
    mshrs: int = 16                  # outstanding load misses per core
    forward_latency: int = 4         # store-to-load forward, ~= L1 hit
    storeset_size: int = 4096        # StoreSet SSIT entries [Chrysos & Emer]
    storeset_lfst: int = 128
    # Squash speculative loads on L1 castouts too (not just hierarchy
    # evictions).  The paper's eviction rule (Section IV) needs only the
    # coherence-visibility level; L1-level squashing is provided as an
    # ablation (see benchmarks/bench_ablations.py).
    l1_evict_squash: bool = False


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """A single set-associative cache level."""

    size_bytes: int
    ways: int
    hit_latency: int
    line_bytes: int = 64

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its associativity")
        return sets


@dataclass(frozen=True, slots=True)
class MemoryConfig:
    """Memory hierarchy parameters (paper Table III, 'Memory')."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024, 8, 12))
    l3_bank: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 8, 35))
    l3_banks: int = 8
    memory_latency: int = 160
    # SB-drain bandwidth: cycles to commit a store whose line is already
    # owned (M/E) — one L1 write access, as in the paper's GEMS model.
    # Coherence misses still pay the full protocol latency on top.
    store_commit_latency: int = 4
    prefetcher: bool = True          # stride L1 prefetcher
    prefetch_degree: int = 2


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Interconnect parameters (paper Table III, 'Network').

    The topology is fully connected, so a message is one switch-to-switch
    hop plus serialization of its flits.
    """

    switch_latency: int = 6
    data_flits: int = 5
    control_flits: int = 1

    @property
    def control_latency(self) -> int:
        return self.switch_latency + self.control_flits

    @property
    def data_latency(self) -> int:
        return self.switch_latency + self.data_flits


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Complete simulated-system configuration."""

    cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def with_cores(self, n: int) -> "SystemConfig":
        return replace(self, cores=n)


#: The paper's simulated system (Table III).
SKYLAKE_LIKE = SystemConfig()

#: A small configuration for fast unit tests.
TINY = SystemConfig(
    cores=2,
    core=CoreConfig(rob_entries=32, lq_entries=12, sq_sb_entries=8,
                    mshrs=4),
    memory=MemoryConfig(
        l1=CacheConfig(4 * 1024, 2, 4),
        l2=CacheConfig(16 * 1024, 4, 12),
        l3_bank=CacheConfig(64 * 1024, 8, 35),
        l3_banks=2,
        prefetcher=False,
    ),
)
