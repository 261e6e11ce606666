"""The Manticore compiler: netlist optimizations, 16-bit lowering,
split/merge partitioning, custom-function synthesis, scheduling, and
register allocation (paper SS6)."""

from .cache import (
    CacheStats,
    CompileCache,
    compile_cache_key,
    default_cache_dir,
    options_fingerprint,
)
from .custom import CustomSynthesisResult, synthesize_custom_functions
from .driver import (
    CompileReport,
    CompileResult,
    CompilerOptions,
    PhaseTimes,
    compile_circuit,
)
from .lower import CompilerError, LowerOptions, lower_circuit
from .merge import build_processes, merge_balanced, merge_lpt
from .schedule import ScheduledProgram, schedule
from .split import PartitionedProgram, split
from .verify import VerificationError, verify_program
from .transforms import (
    common_subexpression_elimination,
    constant_fold,
    dead_code_elimination,
    optimize,
)

__all__ = [
    "CacheStats", "CompileCache", "CompileReport", "CompileResult",
    "CompilerError", "CompilerOptions", "CustomSynthesisResult",
    "LowerOptions", "PartitionedProgram", "PhaseTimes",
    "ScheduledProgram", "build_processes", "compile_cache_key",
    "compile_circuit",
    "common_subexpression_elimination", "constant_fold",
    "dead_code_elimination", "default_cache_dir", "lower_circuit",
    "merge_balanced", "merge_lpt", "optimize", "options_fingerprint",
    "schedule", "split",
    "synthesize_custom_functions", "VerificationError", "verify_program",
]
