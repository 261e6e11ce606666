"""Compile-time benchmark: cold vs warm compile cache.

The compile-side companion of ``bench_engine.py`` (the paper reports
compile time as a first-class metric, Table 8 / Fig. 14).  For every
design in the registry this measures, on the prototype grid:

* ``serial_s``   - plain ``compile_circuit``, no cache;
* ``cold_s``     - compile through an empty content-addressed cache
  (includes key derivation and the artifact store);
* ``warm_s``     - the same compile again: a cache hit (key derivation +
  unpickle, no pipeline phase runs; bit-identity asserted).

Best of ``REPEATS`` runs is reported; each cold repeat uses a fresh
cache directory.  The run fails unless the overall warm-cache speedup
(total cold / total warm) is >= 10x.

Run with::

    PYTHONPATH=src python benchmarks/bench_compile.py

Environment knobs: ``BENCH_COMPILE_REPEATS`` (default 3; CI smoke uses
1), ``BENCH_COMPILE_DESIGNS`` (comma-separated subset).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BENCH_ORDER, circuit_of, _prototype_options  # noqa: E402

from repro.machine.boot import serialize  # noqa: E402
from repro.compiler import compile_circuit  # noqa: E402

REPEATS = int(os.environ.get("BENCH_COMPILE_REPEATS", "3"))
DESIGN_SET = [n for n in
              os.environ.get("BENCH_COMPILE_DESIGNS", ",".join(BENCH_ORDER))
              .split(",") if n]
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
WARM_GATE = 10.0


def _best(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure(name: str, scratch: Path) -> dict:
    base = _prototype_options()

    serial_s, serial = _best(
        lambda: compile_circuit(circuit_of(name), base))
    ref = serialize(serial.program)

    # Cold: every repeat sees an empty cache directory.
    cold_s = float("inf")
    cold = None
    for i in range(REPEATS):
        cache_dir = scratch / f"{name}-cold{i}"
        opts = replace(base, cache_dir=str(cache_dir))
        start = time.perf_counter()
        cold = compile_circuit(circuit_of(name), opts)
        cold_s = min(cold_s, time.perf_counter() - start)
        assert cold.report.cache["status"] == "miss"

    # Warm: hits against the last cold directory.
    warm_opts = replace(base, cache_dir=str(scratch /
                                            f"{name}-cold{REPEATS - 1}"))
    warm_s, warm = _best(
        lambda: compile_circuit(circuit_of(name), warm_opts))
    assert warm.report.cache["status"] == "hit"
    assert serialize(warm.program) == ref, (
        f"{name}: warm-cache binary differs from cold compile")

    return {
        "serial_s": round(serial_s, 4),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "bit_identical": True,
    }


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="bench-compile-"))
    results: dict[str, dict] = {}
    try:
        for name in DESIGN_SET:
            results[name] = _measure(name, scratch)
            r = results[name]
            print(f"{name:>6}: serial {r['serial_s']:7.3f}s   "
                  f"cold {r['cold_s']:7.3f}s   warm {r['warm_s']:7.4f}s "
                  f"({r['warm_speedup']:6.1f}x)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    total_cold = sum(r["cold_s"] for r in results.values())
    total_warm = sum(r["warm_s"] for r in results.values())
    overall = total_cold / total_warm if total_warm else 0.0
    payload = {
        "grid": "15x15",
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "designs": results,
        "total_cold_s": round(total_cold, 3),
        "total_warm_s": round(total_warm, 4),
        "overall_warm_speedup": round(overall, 1),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}  (overall warm speedup {overall:.1f}x)")

    if overall < WARM_GATE:
        print(f"FAIL: overall warm-cache speedup {overall:.1f}x < "
              f"{WARM_GATE}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
