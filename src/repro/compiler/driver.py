"""Compiler driver: the ``compile_circuit`` entry point (paper Fig. 4).

Pipeline::

    netlist --optimize--> netlist --lower--> monolithic lower assembly
      --split--> maximal processes --merge(B|L)--> <= cores processes
      --custom functions--> fused processes --schedule--> Vcycle schedule
      --register allocation--> MachineProgram (binary)

Every phase is timed; the :class:`CompileReport` feeds Table 8 / Fig. 14
(compile-time breakdown), Fig. 7 (VCPL scaling), Fig. 9/Table 4
(partitioning comparison), and Fig. 10 (custom-function savings).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..isa.program import MachineProgram, ProgramImage
from ..machine.config import MachineConfig, PROTOTYPE
from ..netlist.ir import Circuit
from ..obs.trace import span as _span
from . import transforms
from .custom import CustomSynthesisResult, synthesize_custom_functions
from .lower import CompilerError, LowerOptions, lower_circuit
from .mem2reg import memory_to_registers
from .merge import build_processes, merge_balanced, merge_lpt
from .regalloc import allocate
from .schedule import ScheduledProgram, schedule
from .split import split
from .verify import verify_program


@dataclass
class CompilerOptions:
    """User-facing compiler knobs."""

    config: MachineConfig = field(default_factory=lambda: PROTOTYPE)
    max_cores: int | None = None        # default: whole grid
    merge_strategy: str = "balanced"    # "balanced" (B) or "lpt" (L)
    enable_custom_functions: bool = True
    optimize_netlist: bool = True
    #: memories at most this many 16-bit words flatten to registers
    #: (0 disables the mem2reg pass)
    mem2reg_max_words: int = 512
    #: current/next register coalescing (paper SS6.3, [49]); ablation knob
    coalesce_state: bool = True
    #: custom-function cone selection: "milp" (exact) or "greedy"
    custom_selector: str = "milp"
    lower_options: LowerOptions = field(default_factory=LowerOptions)

    # ------------------------------------------------------------------
    # Non-semantic knobs (never change the produced binary; excluded
    # from the compile-cache key, see cache.NON_SEMANTIC_OPTIONS).
    # ------------------------------------------------------------------
    #: directory of the content-addressed compile cache; ``None``
    #: disables caching (the library default - the CLI and benchmark
    #: harness opt in).
    cache_dir: str | None = None
    #: LRU size cap of the cache directory, in bytes.
    cache_max_bytes: int = 256 * 1024 * 1024


@dataclass
class PhaseTimes:
    """Seconds spent per compiler phase (Fig. 14 categories)."""

    opt: float = 0.0
    lower: float = 0.0
    parallelize: float = 0.0
    custom: float = 0.0
    schedule: float = 0.0
    regalloc: float = 0.0
    #: compile-cache overhead: key derivation + lookup (+ store on miss)
    cache: float = 0.0

    @property
    def total(self) -> float:
        return (self.opt + self.lower + self.parallelize + self.custom
                + self.schedule + self.regalloc + self.cache)

    def as_dict(self) -> dict[str, float]:
        return {
            "opt": self.opt, "lower": self.lower,
            "parallelize": self.parallelize, "custom": self.custom,
            "schedule": self.schedule, "regalloc": self.regalloc,
            "cache": self.cache, "total": self.total,
        }


@dataclass
class CompileReport:
    """Everything the evaluation section needs about one compilation."""

    name: str
    vcpl: int
    cores_used: int
    send_count: int
    split_processes: int        # |V| of the split graph (Table 8)
    split_edges: int            # |E| of the split graph (Table 8)
    netlist_ops: int
    lowered_instructions: int
    breakdown: dict[str, int]   # straggler Vcycle: compute/send/nop/custom
    custom: CustomSynthesisResult | None
    times: PhaseTimes
    max_imem: int
    #: compile-cache outcome for this compilation: status ("hit"/"miss"),
    #: key, and the cache instance's hit/miss/store/eviction counters.
    #: ``None`` when caching was disabled.
    cache: dict | None = None

    def simulated_rate_khz(self, frequency_mhz: float) -> float:
        """RTL cycles per second at the given machine frequency."""
        return frequency_mhz * 1e3 / self.vcpl

    def as_dict(self) -> dict:
        """JSON-serializable view (benchmarks, CLI ``--json``)."""
        custom = None
        if self.custom is not None:
            custom = {
                "instructions_before": self.custom.instructions_before,
                "instructions_after": self.custom.instructions_after,
                "reduction_percent": self.custom.reduction_percent,
            }
        return {
            "name": self.name,
            "vcpl": self.vcpl,
            "cores_used": self.cores_used,
            "send_count": self.send_count,
            "split_processes": self.split_processes,
            "split_edges": self.split_edges,
            "netlist_ops": self.netlist_ops,
            "lowered_instructions": self.lowered_instructions,
            "breakdown": dict(self.breakdown),
            "custom": custom,
            "times": self.times.as_dict(),
            "max_imem": self.max_imem,
            "cache": self.cache,
        }


@dataclass
class CompileResult:
    program: MachineProgram
    image: ProgramImage
    scheduled: ScheduledProgram
    report: CompileReport


def compile_circuit(circuit: Circuit,
                    options: CompilerOptions | None = None) -> CompileResult:
    """Compile a netlist circuit into a Manticore binary.

    When ``options.cache_dir`` is set, the content-addressed compile
    cache (:mod:`repro.compiler.cache`) is consulted first: a hit
    returns the stored artifact (bit-identical ``MachineProgram``)
    without running any phase; a miss compiles and stores.
    """
    from .cache import cache_from_options

    options = options or CompilerOptions()
    with _span("compile", design=circuit.name):
        return _compile_traced(circuit, options, cache_from_options(options))


def _compile_traced(circuit: Circuit, options: CompilerOptions,
                    cache) -> CompileResult:
    if cache is None:
        return _compile_uncached(circuit, options)

    t0 = time.perf_counter()
    with _span("compile.cache.lookup"):
        key = cache.key(circuit, options)
        cached = cache.get(key)
    if cached is not None:
        cached.report.times.cache = time.perf_counter() - t0
        cached.report.cache = cache.describe("hit", key)
        return cached
    lookup = time.perf_counter() - t0

    result = _compile_uncached(circuit, options)

    t0 = time.perf_counter()
    with _span("compile.cache.store"):
        cache.put(key, result)
    result.report.times.cache = lookup + (time.perf_counter() - t0)
    result.report.cache = cache.describe("miss", key)
    return result


def _compile_uncached(circuit: Circuit,
                      options: CompilerOptions) -> CompileResult:
    """The full pipeline, no cache consultation."""
    config = options.config
    max_cores = options.max_cores or config.num_cores
    if max_cores > config.num_cores:
        raise CompilerError(
            f"max_cores={max_cores} exceeds grid ({config.num_cores})"
        )
    times = PhaseTimes()

    t0 = time.perf_counter()
    with _span("compile.opt"):
        if options.mem2reg_max_words:
            circuit = memory_to_registers(circuit,
                                          options.mem2reg_max_words)
        if options.optimize_netlist:
            circuit = transforms.optimize(circuit)
    times.opt = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _span("compile.lower"):
        design = lower_circuit(circuit, options.lower_options)
    times.lower = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _span("compile.parallelize"):
        prog = split(design)
        split_count = len(prog.partitions)
        split_edges = sum(len(v) for v in
                          prog.communication_graph().values()) // 2
        if options.merge_strategy == "balanced":
            merged = merge_balanced(prog, max_cores)
        elif options.merge_strategy == "lpt":
            merged = merge_lpt(prog, max_cores)
        else:
            raise CompilerError(
                f"unknown merge strategy {options.merge_strategy!r}"
            )
        image = build_processes(merged)
    times.parallelize = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _span("compile.custom"):
        custom_result = None
        if options.enable_custom_functions:
            custom_result = synthesize_custom_functions(
                image, use_milp=(options.custom_selector == "milp"))
    times.custom = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _span("compile.schedule"):
        scheduled = schedule(image, config,
                             coalesce_state=options.coalesce_state)
    times.schedule = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _span("compile.regalloc"):
        program = allocate(scheduled)
        verify_program(program, config)
    times.regalloc = time.perf_counter() - t0

    report = CompileReport(
        name=circuit.name,
        vcpl=scheduled.vcpl,
        cores_used=len(scheduled.cores),
        send_count=scheduled.send_count,
        split_processes=split_count,
        split_edges=split_edges,
        netlist_ops=len(circuit.ops),
        lowered_instructions=len(design.body),
        breakdown=scheduled.breakdown(),
        custom=custom_result,
        times=times,
        max_imem=program.max_instruction_footprint(),
    )
    return CompileResult(program, image, scheduled, report)
