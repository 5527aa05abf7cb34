"""Deterministic simulator for hardware-assisted synchronization in
near-data-processing systems.

The package models a system of memory units, each with simple in-order
cores and a per-unit synchronization engine, and compares the hierarchical
hardware scheme against flat, server-based (central/hier) and ideal
baselines on microbenchmarks and lock-based data structures.
"""

from .topology import SystemConfig, master_se_of
from .messages import Message, Opcode, encode, decode, CodecError
from .sync_table import SynchronizationTable, IndexingCounters, TableFull
from .errors import ConfigError, ProtocolError, SimulationDeadlock
from .sim import LatencyModel, EnergyModel, Stats

__all__ = [
    "SystemConfig", "master_se_of",
    "Message", "Opcode", "encode", "decode", "CodecError",
    "SynchronizationTable", "IndexingCounters", "TableFull",
    "ConfigError", "ProtocolError", "SimulationDeadlock",
    "LatencyModel", "EnergyModel", "Stats",
    "RunConfig", "run_once",
]


def __getattr__(name):
    # Loaded on first use, so that `python -m ndpsync.cli` does not find the
    # module already imported by its own package.
    if name in ("RunConfig", "run_once"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
