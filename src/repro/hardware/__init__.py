"""Simulated NUMA hardware: topology, memory system, TLBs, counters, IBS.

Everything the paper measures with model-specific registers on AMD
Opterons is produced here from the simulated memory-access streams.
"""

from repro.hardware.topology import NumaNode, NumaTopology
from repro.hardware.machines import machine_a, machine_b, machine_by_name
from repro.hardware.mem_controller import MemoryControllerModel
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.caches import CacheModel
from repro.hardware.tlb import TlbSpec, TlbModel
from repro.hardware.counters import CounterBank, EpochCounters
from repro.hardware.ibs import IbsEngine, IbsSamples

__all__ = [
    "NumaNode",
    "NumaTopology",
    "machine_a",
    "machine_b",
    "machine_by_name",
    "MemoryControllerModel",
    "InterconnectModel",
    "CacheModel",
    "TlbSpec",
    "TlbModel",
    "CounterBank",
    "EpochCounters",
    "IbsEngine",
    "IbsSamples",
]
