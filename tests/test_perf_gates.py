"""Speed ratios the design depends on, measured in one sitting.

Each gate is a ratio of two wall-clock measurements taken back to back
in the same process, so it holds on slow and fast machines alike; the
absolute rates are the end-to-end benchmark's business
(``BENCHMARK.json``, ``benchmarks/e2e/``).

* Compile cache: compiling the nine designs for the prototype grid
  through a warm cache is >= 10x faster than through an empty one, and
  the hit is bit-identical to the miss.
* Engines: after two warm-up Vcycles on a fresh machine, ``fast`` runs
  >= 3x ``strict`` on two thirds of the designs, and ``codegen`` >= 10x
  ``fast`` on at least five.
* Batched fuzzing: one compile shared by 64 init-variant lanes pushes
  >= 4x the lane-seeds per second of the scalar ``engines`` matrix.

Under a line tracer (a coverage run, a debugger) the ratios measure the
tracer, so the module skips itself there.
"""

from __future__ import annotations

import gc
import sys
import time

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.fuzz import fuzz_seed, fuzz_seed_batch
from repro.machine import PROTOTYPE, Machine, MachineConfig
from repro.machine.boot import serialize

pytestmark = pytest.mark.skipif(
    sys.gettrace() is not None,
    reason="wall-clock ratios under a line tracer measure the tracer")

NAMES = sorted(DESIGNS)
WARM_CACHE_SPEEDUP = 10.0
FAST_OVER_STRICT = 3.0
CODEGEN_OVER_FAST = 10.0
CODEGEN_DESIGNS_NEEDED = 5
WARMUP_VCYCLES = 2
#: ``codegen`` runs last milliseconds, so they are timed best of three;
#: ``strict`` and ``fast`` runs are long enough to time once.
CODEGEN_REPEATS = 3
BATCH_WIDTH = 64
BATCH_SPEEDUP = 4.0
FUZZ_SEEDS = range(2)


@pytest.fixture(autouse=True)
def _fresh_heap():
    """Measure as a fresh process would.  The objects earlier tests left
    alive are frozen out of the collector's reach; otherwise every
    full collection inside a timed region rescans them (a warm compile
    took 1.15 s instead of 0.17 s after the rest of the suite)."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_warm_compile_cache_gate(tmp_path):
    circuits = {name: DESIGNS[name].build() for name in NAMES}
    total_cold = total_warm = 0.0
    for name, circuit in circuits.items():
        options = CompilerOptions(config=PROTOTYPE,
                                  cache_dir=str(tmp_path / name))
        cold_s, cold = _timed(lambda: compile_circuit(circuit, options))
        warm_s, warm = _timed(lambda: compile_circuit(circuit, options))
        assert cold.report.cache["status"] == "miss", name
        assert warm.report.cache["status"] == "hit", name
        assert serialize(warm.program) == serialize(cold.program), name
        total_cold += cold_s
        total_warm += warm_s
    speedup = total_cold / total_warm
    assert speedup >= WARM_CACHE_SPEEDUP, (
        f"warm-cache speedup {speedup:.1f}x < {WARM_CACHE_SPEEDUP}x "
        f"(cold {total_cold:.2f}s, warm {total_warm:.3f}s)")


def _rate(program, config, engine: str, budget: int) -> tuple[float, int]:
    """Post-warm-up Vcycles/s of one fresh machine, and its Vcycles."""
    machine = Machine(program, config, engine=engine)
    for _ in range(WARMUP_VCYCLES):
        machine.step_vcycle()
    elapsed, result = _timed(lambda: machine.run(budget))
    return (result.vcycles - WARMUP_VCYCLES) / elapsed, result.vcycles


def test_engine_speed_gates():
    config = MachineConfig(grid_x=8, grid_y=8)
    options = CompilerOptions(config=config)
    fast_x, codegen_x = {}, {}
    for name in NAMES:
        program = compile_circuit(DESIGNS[name].build(), options).program
        budget = DESIGNS[name].cycles + 300
        strict, vcycles = _rate(program, config, "strict", budget)
        runs = [_rate(program, config, "fast", budget)]
        fast = runs[0][0]
        runs += [_rate(program, config, "codegen", budget)
                 for _ in range(CODEGEN_REPEATS)]
        codegen = max(rate for rate, _ran in runs[1:])
        assert {ran for _rate_, ran in runs} == {vcycles}, name
        fast_x[name] = fast / strict
        codegen_x[name] = codegen / fast
    detail = {n: (round(fast_x[n], 2), round(codegen_x[n], 2))
              for n in NAMES}
    fast_ok = sum(x >= FAST_OVER_STRICT for x in fast_x.values())
    assert fast_ok >= (2 * len(NAMES) + 2) // 3, detail
    codegen_ok = sum(x >= CODEGEN_OVER_FAST for x in codegen_x.values())
    assert codegen_ok >= CODEGEN_DESIGNS_NEEDED, detail


def test_batched_fuzz_gate():
    def scalar():
        for seed in FUZZ_SEEDS:
            report = fuzz_seed(seed, matrix="engines")
            assert report.ok, report.divergences[0].describe()

    def batched():
        for seed in FUZZ_SEEDS:
            report = fuzz_seed_batch(seed, width=BATCH_WIDTH)
            assert report.ok, report.divergences[0].describe()
            assert not report.rebind_fallback, seed

    scalar_s, _ = _timed(scalar)
    batched_s, _ = _timed(batched)
    # lane-seeds/s of the batch over seeds/s of the scalar matrix
    speedup = BATCH_WIDTH * scalar_s / batched_s
    assert speedup >= BATCH_SPEEDUP, (
        f"batched fuzz {speedup:.1f}x the engines matrix < "
        f"{BATCH_SPEEDUP}x ({scalar_s:.2f}s scalar, {batched_s:.2f}s "
        f"batched)")
