"""The Manticore machine model: configuration, cache, the cycle-accurate
lockstep grid with global stall, the bootloader binary format, and the
host runtime."""

from .batch import BatchRunner, rebind_reg_inits, run_batch
from .boot import deserialize, serialize
from .debug import TraceRecorder
from .cache import Cache, CacheStats
from .codegen import CodegenUnsupported
from .config import PROTOTYPE, TINY, MachineConfig
from .fastpath import FastpathUnsupported
from .grid import (BATCH_KERNEL_ENGINES, COMPILED_ENGINES, ENGINES,
                   Machine, MachineResult, PerfCounters)
from .runtime import SimulationRun, simulate_on_manticore
from .waveform import Probe, WaveformCollector, trace_map_for

__all__ = [
    "BATCH_KERNEL_ENGINES", "BatchRunner", "Cache", "CacheStats",
    "CodegenUnsupported", "COMPILED_ENGINES", "ENGINES",
    "FastpathUnsupported", "Machine", "MachineConfig", "MachineResult",
    "PerfCounters", "PROTOTYPE", "Probe", "SimulationRun", "TINY",
    "TraceRecorder", "WaveformCollector", "deserialize",
    "rebind_reg_inits", "run_batch", "serialize",
    "simulate_on_manticore", "trace_map_for",
]
