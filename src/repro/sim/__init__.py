"""Simulation kernel: event engine, system configuration, statistics."""

from repro.sim.config import SKYLAKE_LIKE, TINY, SystemConfig
from repro.sim.engine import Engine
from repro.sim.pipetrace import PipeTracer
from repro.sim.stats import CoreStats, SystemStats
from repro.sim.system import System, simulate

__all__ = ["Engine", "PipeTracer", "SystemConfig", "SKYLAKE_LIKE", "TINY", "CoreStats",
           "SystemStats", "System", "simulate"]
