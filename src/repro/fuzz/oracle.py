"""Multi-oracle differential harness.

Every oracle is one way of executing a circuit that must agree with the
golden strict interpreter bit-for-bit: the interpreter's own compiled
engine, the Verilator-like serial baseline, and the Manticore toolchain
(compile + machine model) under strict/fast/codegen engines and a
matrix of :class:`~repro.compiler.CompilerOptions` variants (merge
strategy, mem2reg, state coalescing, custom-function selector, compile
cache on/off).

:func:`run_matrix` executes a circuit through a list of oracles and
reports each disagreement as a :class:`Divergence` naming the first
mismatching cycle and signal - parsed from the generator's per-cycle
``@<cycle> <name>=<hex> ...`` trace lines.  Compilations are shared
between oracles that differ only in machine engine, so the full matrix
costs one compile per *option* variant, not per oracle.
"""

from __future__ import annotations

import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..machine.config import MachineConfig
from ..netlist.ir import Circuit
from .faults import fault_context
from .generator import GeneratorParams, generate

#: Machine/compiler configuration used by the fuzzing harness: a small
#: grid keeps per-seed compiles fast while still forcing multi-core
#: schedules, sends, and the global-stall protocol.
FUZZ_CONFIG = MachineConfig(grid_x=3, grid_y=3, result_latency=6)


@dataclass(frozen=True)
class OracleSpec:
    """One execution strategy that must match the golden interpreter."""

    name: str
    kind: str                     # "interp" | "baseline" | "machine"
    engine: str = "strict"
    #: CompilerOptions overrides, as a hashable item tuple; oracles with
    #: equal ``options`` share one compilation per :func:`run_matrix`.
    options: tuple[tuple[str, object], ...] = ()
    #: Named fault from :mod:`repro.fuzz.faults` injected for the run
    #: (test-only oracles; never part of the standard matrices).
    fault: str | None = None
    #: Round-trip the compilation through a fresh compile cache and run
    #: the artifact the *cache* returned (catches serialization bugs).
    through_cache: bool = False
    #: Attach a :class:`repro.obs.Profiler` to the machine run and
    #: cross-check its counters against the machine's ``PerfCounters``.
    #: Any behaviour change or invariant violation becomes a divergence
    #: (observation must never perturb - tests/test_obs_perturbation.py).
    profiled: bool = False
    #: Snapshot the machine mid-run through the checkpoint wire format
    #: (encode -> decode -> restore into a fresh machine) and finish on
    #: the restored machine.  Any state the snapshot loses or distorts
    #: shows up as a divergence from the golden interpreter.
    checkpoint: bool = False
    #: Override ``MachineConfig.fastpath_verify_vcycles`` for the
    #: machine run (machine oracles only).  ``0`` makes a compiled
    #: engine trust its kernel from Vcycle one with no strict
    #: verification - the harshest differential test of emitted code.
    verify_vcycles: int | None = None
    #: Round-trip the circuit through the Verilog emitter and frontend
    #: (:mod:`repro.netlist.verilog_emit` -> ``parse_verilog``) before
    #: compiling, and check the re-parse reaches a structural fixed
    #: point - differential coverage for every emitted grammar form.
    verilog_roundtrip: bool = False
    #: Run every trusted Vcycle on the codegen engine's native C tier
    #: (:mod:`repro.machine.native`), built synchronously before the
    #: first one instead of after ``NATIVE_AFTER_VCYCLES`` in the
    #: background; without a C compiler the Python kernel runs.
    native: bool = False

    def describe(self) -> str:
        parts = [self.kind, self.engine]
        parts += [f"{k}={v}" for k, v in self.options]
        if self.through_cache:
            parts.append("cached")
        if self.profiled:
            parts.append("profiled")
        if self.checkpoint:
            parts.append("checkpointed")
        if self.verify_vcycles is not None:
            parts.append(f"verify={self.verify_vcycles}")
        if self.verilog_roundtrip:
            parts.append("verilog-roundtrip")
        if self.native:
            parts.append("native")
        if self.fault:
            parts.append(f"fault={self.fault}")
        return f"{self.name} ({', '.join(parts)})"


def _machine(name: str, engine: str = "strict", fault: str | None = None,
             through_cache: bool = False, profiled: bool = False,
             checkpoint: bool = False, verify_vcycles: int | None = None,
             verilog_roundtrip: bool = False, native: bool = False,
             **options) -> OracleSpec:
    return OracleSpec(name, "machine", engine,
                      tuple(sorted(options.items())), fault, through_cache,
                      profiled, checkpoint, verify_vcycles,
                      verilog_roundtrip, native)


#: Registry of every known oracle.  ``golden`` (the strict interpreter)
#: is the implicit reference all of these are compared against.
ORACLES: dict[str, OracleSpec] = {
    spec.name: spec for spec in [
        OracleSpec("interp-fast", "interp", "fast"),
        OracleSpec("baseline-serial", "baseline", "fast"),
        _machine("machine-strict"),
        _machine("machine-fast", engine="fast"),
        _machine("machine-strict-nomem2reg", mem2reg_max_words=0),
        _machine("machine-strict-nocoalesce", coalesce_state=False),
        _machine("machine-strict-lpt", merge_strategy="lpt"),
        _machine("machine-strict-greedy", custom_selector="greedy"),
        _machine("machine-strict-nocustom", enable_custom_functions=False),
        _machine("machine-strict-cached", through_cache=True),
        _machine("machine-fast-nomem2reg", engine="fast",
                 mem2reg_max_words=0),
        _machine("machine-fast-profiled", engine="fast", profiled=True),
        _machine("machine-fast-ckpt", engine="fast", checkpoint=True),
        _machine("machine-codegen", engine="codegen"),
        _machine("machine-codegen-trust0", engine="codegen",
                 verify_vcycles=0),
        _machine("machine-codegen-ckpt", engine="codegen",
                 checkpoint=True),
        _machine("machine-codegen-native", engine="codegen", native=True),
        _machine("machine-verilog-roundtrip", verilog_roundtrip=True),
        # Fault-injection oracles: deliberately wrong semantics used by
        # the self-tests and as live demos of a failing replay.
        OracleSpec("golden-buggy-sub", "interp", "strict",
                   fault="netlist-sub-conditional"),
        _machine("machine-buggy-xor", fault="alu-xor-sticky-bit"),
    ]
}

#: Named oracle matrices for ``repro fuzz --matrix``.
MATRICES: dict[str, tuple[str, ...]] = {
    "quick": ("interp-fast", "baseline-serial", "machine-strict"),
    "engines": ("interp-fast", "baseline-serial", "machine-strict",
                "machine-fast", "machine-fast-profiled",
                "machine-fast-ckpt", "machine-codegen",
                "machine-codegen-trust0", "machine-codegen-ckpt",
                "machine-codegen-native"),
    "full": ("interp-fast", "baseline-serial", "machine-strict",
             "machine-fast", "machine-strict-nomem2reg",
             "machine-strict-nocoalesce", "machine-strict-lpt",
             "machine-strict-greedy", "machine-strict-nocustom",
             "machine-strict-cached",
             "machine-fast-nomem2reg", "machine-fast-profiled",
             "machine-fast-ckpt", "machine-codegen",
             "machine-codegen-trust0", "machine-codegen-ckpt",
             "machine-verilog-roundtrip"),
}


def matrix_oracles(matrix: str) -> list[OracleSpec]:
    """Resolve a matrix name or comma-separated oracle list to specs."""
    names: tuple[str, ...] = ()
    for item in matrix.split(","):
        item = item.strip()
        if not item:
            continue
        # Preset names expand in place, so "quick,golden-buggy-sub"
        # appends a fault oracle to the quick matrix.
        expansion = MATRICES.get(item, (item,))
        names += tuple(n for n in expansion if n not in names)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise OracleError(
            f"unknown oracle(s) {', '.join(unknown)}; known: "
            f"{', '.join(sorted(ORACLES))}; matrices: "
            f"{', '.join(sorted(MATRICES))}")
    return [ORACLES[n] for n in names]


class OracleError(Exception):
    """Raised for harness misconfiguration (not for divergences)."""


@dataclass
class OracleResult:
    """Observable outcome of one oracle run."""

    displays: list[str] = field(default_factory=list)
    cycles: int = 0
    finished: bool = False
    error: str | None = None


@dataclass
class Divergence:
    """First observed disagreement between an oracle and the reference."""

    oracle: str
    cycle: int | None
    signal: str | None
    expected: str
    actual: str
    line_index: int | None = None
    detail: str = ""

    def describe(self) -> str:
        where = []
        if self.cycle is not None:
            where.append(f"cycle {self.cycle}")
        if self.signal is not None:
            where.append(f"signal {self.signal}")
        loc = ", ".join(where) or "end of run"
        text = (f"{self.oracle}: first divergence at {loc}: "
                f"expected {self.expected}, got {self.actual}")
        if self.detail:
            text += f" [{self.detail}]"
        return text

    def as_dict(self) -> dict:
        return {
            "oracle": self.oracle, "cycle": self.cycle,
            "signal": self.signal, "expected": self.expected,
            "actual": self.actual, "line_index": self.line_index,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Divergence":
        return cls(**data)


# ---------------------------------------------------------------------------
# Trace-line parsing: "@<cycle> <name>=<hex> ..." (generator format).
# ---------------------------------------------------------------------------

def _parse_trace(line: str):
    cycle = None
    rest = line
    if line.startswith("@"):
        head, _, tail = line.partition(" ")
        try:
            cycle = int(head[1:])
            rest = tail
        except ValueError:
            pass
    tokens = []
    for piece in rest.split():
        name, eq, value = piece.partition("=")
        if not eq or not name:
            return cycle, []
        tokens.append((name, value))
    return cycle, tokens


def _line_divergence(oracle: str, index: int, expected_line: str,
                     actual_line: str) -> Divergence:
    ref_cycle, ref_tokens = _parse_trace(expected_line)
    obs_cycle, obs_tokens = _parse_trace(actual_line)
    cycle = ref_cycle if ref_cycle is not None else obs_cycle
    if ref_cycle == obs_cycle and ref_tokens and obs_tokens:
        for (rn, rv), (on, ov) in zip(ref_tokens, obs_tokens):
            if rn != on or rv != ov:
                return Divergence(
                    oracle, cycle, rn, f"{rn}={rv}",
                    f"{on}={ov}" if on == rn else f"{on}={ov} (token)",
                    line_index=index,
                    detail=f"line {index}: {actual_line!r}")
        # Same prefix but different token counts.
        return Divergence(oracle, cycle, "$display", expected_line,
                          actual_line, line_index=index)
    if ref_cycle is not None and obs_cycle is not None \
            and ref_cycle != obs_cycle:
        return Divergence(oracle, min(ref_cycle, obs_cycle), "$cycle",
                          f"@{ref_cycle}", f"@{obs_cycle}",
                          line_index=index)
    return Divergence(oracle, cycle, "$display", expected_line,
                      actual_line, line_index=index)


def compare_results(oracle: str, reference: OracleResult,
                    observed: OracleResult) -> Divergence | None:
    """First divergence between reference and observed runs, or None."""
    if observed.error is not None:
        return Divergence(oracle, None, "$error", "clean run",
                          observed.error)
    for i, (a, b) in enumerate(zip(reference.displays, observed.displays)):
        if a != b:
            return _line_divergence(oracle, i, a, b)
    if len(reference.displays) != len(observed.displays):
        longer = (reference.displays if len(reference.displays)
                  > len(observed.displays) else observed.displays)
        cut = min(len(reference.displays), len(observed.displays))
        cycle, _ = _parse_trace(longer[cut])
        return Divergence(
            oracle, cycle, "$display-stream",
            f"{len(reference.displays)} display lines",
            f"{len(observed.displays)} display lines", line_index=cut,
            detail=f"first unmatched: {longer[cut]!r}")
    if reference.cycles != observed.cycles \
            or reference.finished != observed.finished:
        return Divergence(
            oracle, min(reference.cycles, observed.cycles), "$finish",
            f"cycles={reference.cycles} finished={reference.finished}",
            f"cycles={observed.cycles} finished={observed.finished}")
    return None


# ---------------------------------------------------------------------------
# Oracle execution.
# ---------------------------------------------------------------------------

class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _context_for(spec: OracleSpec):
    if spec.native:
        from ..machine.native import forced
        return forced()
    if spec.fault is None:
        return _NullContext()
    from ..machine.grid import COMPILED_ENGINES
    if spec.engine in COMPILED_ENGINES:
        raise OracleError(
            f"oracle {spec.name}: faults require a strict engine "
            f"(compiled engines resolve semantics at construction)")
    return fault_context(spec.fault)


def _roundtrip_maker(make_circuit: Callable[[], Circuit],
                     ) -> Callable[[], Circuit]:
    """Wrap a circuit factory in an emit->parse Verilog round trip.

    The returned factory yields ``parse_verilog(emit_verilog(c))`` - so
    the machine oracle compiles and runs the *re-ingested* circuit
    against the original's golden reference.  It also asserts the
    round trip reaches a structural fixed point: a second emit/parse
    must reproduce the same fingerprint as a third (the first pass may
    normalize, after that the mapping must be stable).
    """
    def make() -> Circuit:
        from ..netlist.verilog import parse_verilog
        from ..netlist.verilog_emit import emit_verilog
        first = parse_verilog(emit_verilog(make_circuit()))
        second = parse_verilog(emit_verilog(first))
        third = parse_verilog(emit_verilog(second))
        if second.fingerprint() != third.fingerprint():
            # RuntimeError (not OracleError) so the failure surfaces as
            # a replayable divergence instead of aborting the matrix.
            raise RuntimeError(
                "verilog emit/parse round trip is not idempotent: "
                f"{second.fingerprint()[:16]} != "
                f"{third.fingerprint()[:16]}")
        return first
    return make


def run_reference(circuit: Circuit, cycles: int) -> OracleResult:
    """Golden strict-interpreter run (the reference side)."""
    from ..netlist.interp import NetlistInterpreter
    interp = NetlistInterpreter(circuit)
    res = interp.run(cycles)
    return OracleResult(list(res.displays), res.cycles, res.finished)


def _compile_for(spec: OracleSpec, circuit: Circuit, config: MachineConfig,
                 compiled: dict):
    """Compile (or reuse) the program for a machine oracle."""
    from ..compiler import CompilerOptions, compile_circuit
    from ..machine.boot import serialize

    # The round-tripped circuit is a different artifact: it must not
    # share a binary with same-option oracles running the original.
    key = (spec.options, spec.through_cache, spec.verilog_roundtrip)
    if key in compiled:
        return compiled[key]
    options = CompilerOptions(config=config,
                              **{k: v for k, v in spec.options})
    if not spec.through_cache:
        result = compile_circuit(circuit, options)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as d:
            options.cache_dir = d
            cold = compile_circuit(circuit, options)
            warm = compile_circuit(circuit, options)
            if warm.report.cache is None \
                    or warm.report.cache["status"] != "hit":
                raise OracleError(
                    f"compile cache did not hit on identical input "
                    f"(status={warm.report.cache})")
            if serialize(cold.program) != serialize(warm.program):
                raise OracleError(
                    "compile cache returned a different binary")
            result = warm
    compiled[key] = result
    return result


def check_profile_invariants(profiler, mres) -> str | None:
    """First violated profiler/machine counter invariant, or ``None``.

    The ``machine-fast-profiled`` oracle runs this after every fuzz
    seed: per-core counters must sum to the machine-wide
    ``PerfCounters``, link hops to the hop total, and the per-Vcycle
    samples to the run totals.
    """
    totals = profiler.totals()
    counters = mres.counters
    pairs = [
        ("instructions", totals["instructions"], counters.instructions),
        ("sends vs messages", totals["sends"], counters.messages),
        ("exceptions", totals["exceptions"], counters.exceptions),
        ("stall attribution", totals["stall_caused"],
         counters.stall_cycles),
        ("link hops", sum(profiler.links.values()), profiler.total_hops),
        ("sample vcycles", sum(s.width for s in profiler.samples),
         mres.vcycles),
        ("sample instructions",
         sum(s.instructions for s in profiler.samples),
         counters.instructions),
        ("sample messages", sum(s.messages for s in profiler.samples),
         counters.messages),
        ("stall causes", profiler.stall_causes.get("total", 0),
         counters.stall_cycles),
    ]
    for name, got, want in pairs:
        if got != want:
            return f"{name}: profiler={got} machine={want}"
    return None


def run_oracle(spec: OracleSpec, make_circuit: Callable[[], Circuit],
               cycles: int, config: MachineConfig = FUZZ_CONFIG,
               compiled: dict | None = None) -> OracleResult:
    """Run one oracle; never raises for behaviour differences - errors
    are captured in ``OracleResult.error`` and become divergences."""
    compiled = compiled if compiled is not None else {}
    if spec.verilog_roundtrip:
        make_circuit = _roundtrip_maker(make_circuit)
    try:
        with _context_for(spec):
            if spec.kind == "interp":
                from ..netlist.interp import NetlistInterpreter
                res = NetlistInterpreter(make_circuit(),
                                         engine=spec.engine).run(cycles)
                return OracleResult(list(res.displays), res.cycles,
                                    res.finished)
            if spec.kind == "baseline":
                from ..baseline.serial import SerialSimulator
                res = SerialSimulator(make_circuit(),
                                      engine=spec.engine).run(cycles)
                return OracleResult(list(res.displays), res.cycles,
                                    res.finished)
            if spec.kind == "machine":
                import dataclasses

                from ..machine import Machine
                result = _compile_for(spec, make_circuit(), config,
                                      compiled)
                profiler = None
                if spec.profiled:
                    from ..obs import Profiler
                    profiler = Profiler()
                if spec.verify_vcycles is not None:
                    # Machine-side override only: the compiled binary is
                    # shared with the other oracles for this option set.
                    config = dataclasses.replace(
                        config,
                        fastpath_verify_vcycles=spec.verify_vcycles)
                machine = Machine(result.program, config,
                                  engine=spec.engine, profiler=profiler)
                if spec.checkpoint:
                    from .. import checkpoint as ckpt
                    machine.run(max(1, cycles // 2))
                    snap = ckpt.decode_snapshot(
                        ckpt.encode_snapshot(ckpt.capture(machine)))
                    machine = ckpt.restore(snap, program=result.program,
                                           config=config,
                                           profiler=profiler)
                mres = machine.run(cycles)
                if profiler is not None:
                    problem = check_profile_invariants(profiler, mres)
                    if problem is not None:
                        return OracleResult(
                            error=f"profiler invariant violated "
                                  f"({problem})")
                return OracleResult(list(mres.displays), mres.vcycles,
                                    mres.finished)
            raise OracleError(f"unknown oracle kind {spec.kind!r}")
    except OracleError:
        raise
    except Exception as exc:  # captured as a divergence, not a crash
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return OracleResult(error=f"{type(exc).__name__}: {exc} "
                                  f"({detail})")


def run_matrix(make_circuit: Callable[[], Circuit],
               oracles: Sequence[OracleSpec], cycles: int,
               config: MachineConfig = FUZZ_CONFIG,
               ) -> tuple[OracleResult, list[Divergence]]:
    """Run the reference plus every oracle; return all divergences.

    Machine-oracle compilations are shared across specs with identical
    compiler options (engines reuse the same binary, as in production).
    """
    reference = run_reference(make_circuit(), cycles)
    compiled: dict = {}
    divergences: list[Divergence] = []
    for spec in oracles:
        observed = run_oracle(spec, make_circuit, cycles, config, compiled)
        div = compare_results(spec.name, reference, observed)
        if div is not None:
            divergences.append(div)
    return reference, divergences


# ---------------------------------------------------------------------------
# Seed-level driver.
# ---------------------------------------------------------------------------

@dataclass
class SeedReport:
    """Outcome of fuzzing one seed through one oracle matrix."""

    seed: int
    params: GeneratorParams
    oracles: tuple[str, ...]
    divergences: list[Divergence]
    cycles_run: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.divergences


def fuzz_seed(seed: int, params: GeneratorParams | None = None,
              matrix: str = "quick", cycles: int | None = None,
              config: MachineConfig = FUZZ_CONFIG) -> SeedReport:
    """Generate the circuit for ``seed`` and differential-test it."""
    params = params or GeneratorParams()
    oracles = matrix_oracles(matrix)
    budget = cycles if cycles is not None else params.cycles + 8
    start = time.perf_counter()
    reference, divergences = run_matrix(
        lambda: generate(seed, params), oracles, budget, config)
    return SeedReport(seed, params, tuple(s.name for s in oracles),
                      divergences, reference.cycles,
                      time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Batched oracle: B stimuli of one seed in one machine pass.
# ---------------------------------------------------------------------------

@dataclass
class BatchSeedReport:
    """Outcome of batch-fuzzing one seed: ``width`` init variants of the
    seed's circuit, each checked against its own golden reference."""

    seed: int
    width: int
    params: GeneratorParams
    lanes: tuple[str, ...]
    divergences: list[Divergence]
    cycles_run: int
    elapsed: float
    #: True when the rebind self-check failed and every lane was
    #: compiled fresh instead (itself a signal worth watching: it means
    #: compilation observed a boot value).
    rebind_fallback: bool

    @property
    def ok(self) -> bool:
        return not self.divergences


def fuzz_seed_batch(seed: int, width: int = 8,
                    params: GeneratorParams | None = None,
                    cycles: int | None = None,
                    config: MachineConfig = FUZZ_CONFIG,
                    engine: str = "codegen") -> BatchSeedReport:
    """Differential-test ``width`` stimuli of ``seed``'s circuit from one
    compile.

    Lane 0 is the seed's own circuit; lanes 1..B-1 rebind the generated
    data registers to fresh per-lane boot values
    (:func:`~repro.fuzz.generator.lane_init_overrides`).  Each lane is
    compared - displays, cycle count, finish status - against its own
    golden strict-interpreter run, so one pass checks B seeds' worth of
    stimulus for the price of one compile plus B machine runs that share
    one kernel.

    The compile is shared across lanes via :func:`~repro.machine.batch.
    rebind_reg_inits`; one rebound lane is byte-compared against a
    fresh compile of its variant circuit, and on any mismatch every
    lane falls back to its own fresh compile (recorded in
    ``rebind_fallback``).
    """
    from ..compiler import CompilerOptions, compile_circuit
    from ..machine.batch import BatchRunner, rebind_reg_inits
    from ..machine.boot import serialize
    from .generator import lane_init_overrides, variant_circuit

    params = params or GeneratorParams()
    budget = cycles if cycles is not None else params.cycles + 8
    start = time.perf_counter()

    base = generate(seed, params)
    overrides = [lane_init_overrides(base, seed, lane)
                 for lane in range(width)]
    goldens = [
        run_reference(variant_circuit(generate(seed, params), ov), budget)
        for ov in overrides]

    options = CompilerOptions(config=config)
    result = compile_circuit(base, options)
    rebind_fallback = False
    programs = [rebind_reg_inits(result, ov) if ov else result.program
                for ov in overrides]
    check = next((lane for lane, ov in enumerate(overrides) if ov), None)
    if check is not None:
        fresh = compile_circuit(
            variant_circuit(generate(seed, params), overrides[check]),
            options)
        if serialize(programs[check]) != serialize(fresh.program):
            rebind_fallback = True
            programs = [
                compile_circuit(
                    variant_circuit(generate(seed, params), ov),
                    options).program if ov else result.program
                for ov in overrides]

    runner = BatchRunner(programs, config, engine=engine)
    outs = runner.run(budget)
    lane_names = []
    divergences: list[Divergence] = []
    for lane, (golden, out) in enumerate(zip(goldens, outs)):
        name = f"machine-{engine}-batch{width}[lane {lane}]"
        lane_names.append(name)
        if runner.errors[lane] is not None:
            observed = OracleResult(error=runner.errors[lane])
        else:
            observed = OracleResult(list(out.displays), out.vcycles,
                                    out.finished)
        div = compare_results(name, golden, observed)
        if div is not None:
            divergences.append(div)
    return BatchSeedReport(seed, width, params, tuple(lane_names),
                           divergences, goldens[0].cycles,
                           time.perf_counter() - start, rebind_fallback)
