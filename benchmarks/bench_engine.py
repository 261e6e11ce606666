"""Execution-engine benchmark: strict vs fast vs codegen.

Times the cycle-accurate machine model under every registered engine on
the full nine-design registry on an 8x8 grid and writes
``BENCH_engine.json`` with Vcycles/second per engine plus the two
speedups that gate the engine roadmap (fast over strict, codegen over
fast).  Not a pytest file on purpose: wall-clock numbers belong in a
standalone run, not in the correctness suite.

Methodology - sustained post-warmup throughput, uniform for all
engines: each (design, engine) measurement uses a *fresh* machine,
steps two warmup Vcycles first, then times ``run`` to ``$finish`` or
the design budget.  For the compiled engines the warmup absorbs the
strict verification Vcycle, the trust hand-off, and (for codegen)
source emission / exec-module compilation, so the timed region is the
steady state a long simulation actually spends its life in.  A full-run
measurement would instead be dominated by the one-time verification
Vcycle on short designs (a single strict Vcycle costs more wall-clock
than the entire 10x codegen budget on several of them), which measures
startup, not simulation.  Best of ``REPEATS`` runs is reported.  All
engines execute the exact same Vcycle count - they are bit-identical,
which ``tests/test_engine_equivalence.py`` and
``tests/test_codegen_equivalence.py`` enforce separately.

Run with::

    PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BENCH_ORDER, machine_for, precompile  # noqa: E402

from repro.designs import DESIGNS  # noqa: E402
from repro.machine import ENGINES  # noqa: E402

BENCH_DESIGNS = tuple(BENCH_ORDER)   # the full nine-design registry
GRID_SIDE = 8
WARMUP_VCYCLES = 2
REPEATS = int(os.environ.get("BENCH_ENGINE_REPEATS", "5"))
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _measure(name: str, engine: str) -> tuple[float, int]:
    """Best Vcycles/second over REPEATS fresh runs, and the Vcycle count."""
    budget = DESIGNS[name].cycles + 300
    best = 0.0
    vcycles = 0
    for _ in range(REPEATS):
        machine = machine_for(name, engine=engine, grid_side=GRID_SIDE)
        for _w in range(WARMUP_VCYCLES):
            machine.step_vcycle()
        start = time.perf_counter()
        machine.run(budget)
        elapsed = time.perf_counter() - start
        timed = machine.counters.vcycles - WARMUP_VCYCLES
        vcycles = machine.counters.vcycles
        if elapsed > 0:
            best = max(best, timed / elapsed)
    return best, vcycles


def main() -> int:
    # One concurrent compile_many fan-out instead of nine serial compiles.
    precompile(BENCH_DESIGNS, grid_side=GRID_SIDE)
    results: dict[str, dict] = {}
    for name in BENCH_DESIGNS:
        rates: dict[str, float] = {}
        vcycles = None
        for engine in ENGINES:
            vps, ran = _measure(name, engine)
            rates[engine] = vps
            if vcycles is None:
                vcycles = ran
            else:
                assert ran == vcycles, (
                    f"{name}: engines ran different Vcycle counts "
                    f"({vcycles} vs {ran} under {engine})")
        speedup = rates["fast"] / rates["strict"] if rates["strict"] else 0.0
        codegen_vs_fast = (rates["codegen"] / rates["fast"]
                           if rates["fast"] else 0.0)
        results[name] = {
            "vcycles": vcycles,
            "strict_vcycles_per_sec": round(rates["strict"], 2),
            "fast_vcycles_per_sec": round(rates["fast"], 2),
            "codegen_vcycles_per_sec": round(rates["codegen"], 2),
            "speedup": round(speedup, 2),
            "codegen_speedup_vs_fast": round(codegen_vs_fast, 2),
        }
        print(f"{name:>6}: strict {rates['strict']:9.1f} Vc/s   "
              f"fast {rates['fast']:9.1f} Vc/s ({speedup:5.2f}x)   "
              f"codegen {rates['codegen']:10.1f} Vc/s "
              f"({codegen_vs_fast:5.2f}x vs fast)")

    speedups = [r["speedup"] for r in results.values()]
    codegen_speedups = [r["codegen_speedup_vs_fast"] for r in results.values()]
    payload = {
        "grid": f"{GRID_SIDE}x{GRID_SIDE}",
        "warmup_vcycles": WARMUP_VCYCLES,
        "repeats": REPEATS,
        "designs": results,
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "min_codegen_speedup_vs_fast": min(codegen_speedups),
        "max_codegen_speedup_vs_fast": max(codegen_speedups),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    failed = False
    at_least_3x = sum(1 for s in speedups if s >= 3.0)
    needed = (2 * len(speedups) + 2) // 3   # two-thirds of the suite
    if at_least_3x < needed:
        print(f"FAIL: only {at_least_3x}/{len(speedups)} designs reached "
              f"3x fast-over-strict (need {needed})", file=sys.stderr)
        failed = True
    at_least_10x = sum(1 for s in codegen_speedups if s >= 10.0)
    if at_least_10x < 5:
        print(f"FAIL: only {at_least_10x}/{len(codegen_speedups)} designs "
              f"reached 10x codegen-over-fast (need 5)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
