"""Differential fuzzing subsystem: the correctness backstop.

Manticore's value proposition is that the compiler produces bit-identical
behaviour to the RTL semantics across every engine and compiler
configuration.  This package turns the ad-hoc differential tests that
guarded that claim into a first-class tool:

* :mod:`repro.fuzz.generator` - seeded random circuits covering the full
  netlist IR surface (registers, memories, dynamic shifts, wide
  arithmetic, mux trees, custom-function-eligible bitwise clusters);
* :mod:`repro.fuzz.oracle` - a differential harness running each circuit
  through a configurable matrix of oracles (golden interpreter, serial
  baseline, the Manticore machine under strict/fast/codegen engines x
  compiler-option variants) and reporting the first divergence with its
  cycle number and signal name;
* :mod:`repro.fuzz.shrink` - a delta-debugging minimizer reducing a
  failing circuit to a minimal repro;
* :mod:`repro.fuzz.corpus` - replayable corpus files (seed + generator
  params + reduced IR) behind ``python -m repro fuzz --replay``;
* :mod:`repro.fuzz.faults` - fault injection used to prove the harness
  catches real semantic divergences.

Everyday entry point: ``python -m repro fuzz --seeds 0:200``.
"""

from .corpus import CorpusEntry, load_entry, replay_entry, save_entry
from .generator import (
    GeneratorParams,
    accumulator_circuit,
    counter_circuit,
    generate,
    lane_init_overrides,
    logic_heavy_circuit,
    memory_circuit,
    random_circuit,
    random_memory_circuit,
    variant_circuit,
)
from .oracle import (
    BatchSeedReport,
    Divergence,
    FUZZ_CONFIG,
    MATRICES,
    OracleError,
    OracleSpec,
    SeedReport,
    fuzz_seed,
    fuzz_seed_batch,
    matrix_oracles,
    run_matrix,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "BatchSeedReport",
    "CorpusEntry",
    "Divergence",
    "FUZZ_CONFIG",
    "GeneratorParams",
    "MATRICES",
    "OracleError",
    "OracleSpec",
    "SeedReport",
    "ShrinkResult",
    "accumulator_circuit",
    "counter_circuit",
    "fuzz_seed",
    "fuzz_seed_batch",
    "generate",
    "lane_init_overrides",
    "load_entry",
    "logic_heavy_circuit",
    "matrix_oracles",
    "memory_circuit",
    "random_circuit",
    "random_memory_circuit",
    "replay_entry",
    "run_matrix",
    "save_entry",
    "shrink",
    "variant_circuit",
]
