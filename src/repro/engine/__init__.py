"""Execution-driven simulation engine.

Interleaves per-thread access streams over the machine model, drives the
fault pipeline, the MESI hierarchy and the SPCD kernel threads in virtual
time, and produces the paper's metrics: execution time, L2/L3 MPKI,
cache-to-cache transactions, processor and DRAM energy, and SPCD overheads.
"""

from repro.engine.cache import ResultCache, code_version
from repro.engine.energy import EnergyModel, EnergyParams
from repro.engine.gridrunner import CellFailure, GridResult, run_grid
from repro.engine.metrics import TimeModel, TimeParams
from repro.engine.runner import MetricStats, summarize
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator

__all__ = [
    "CellFailure",
    "EnergyModel",
    "EnergyParams",
    "EngineConfig",
    "GridResult",
    "MetricStats",
    "ResultCache",
    "RunSettings",
    "SimulationResult",
    "Simulator",
    "TimeModel",
    "TimeParams",
    "code_version",
    "run_grid",
    "summarize",
]
