"""Fuzzing-throughput benchmark: seeds per minute through each matrix.

The differential fuzzer's practical value scales with how many seeds it
can push through the oracle matrix per unit time.  This measures, over a
fixed seed block:

* ``quick_sps``   - seeds/s through the quick matrix (golden interpreter,
  serial baseline, strict machine);
* ``engines_sps`` - seeds/s adding the fast and codegen engines;
* ``full_sps``    - seeds/s through every fault-free oracle of the full matrix
  (compiler-option variants share compilations where options agree);
* ``shrink_s``    - wall time to minimize one seeded-fault repro
  (``golden-buggy-sub``) below 10 IR ops;
* ``batched``     - lane-seeds/s through the batched oracle
  (``fuzz_seed_batch``: one compile, B init-variant lanes per seed, one
  golden per lane), per vector lowering, with the speedup over the
  ``engines`` scalar matrix (the ISSUE 7 gate: >= 4x at B=64).

Run with::

    PYTHONPATH=src python benchmarks/bench_fuzz.py

Environment knobs: ``BENCH_FUZZ_SEEDS`` (seeds per matrix, default 5),
``BENCH_FUZZ_MATRICES`` (comma-separated subset), ``BENCH_FUZZ_BATCH``
(batch width, default 64; 0 skips the batched section).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz import fuzz_seed, fuzz_seed_batch, generate, shrink  # noqa: E402
from repro.fuzz.shrink import oracle_predicate  # noqa: E402
from repro.machine.batch_codegen import have_numpy  # noqa: E402

N_SEEDS = int(os.environ.get("BENCH_FUZZ_SEEDS", "5"))
MATRICES = [m for m in os.environ.get(
    "BENCH_FUZZ_MATRICES", "quick,engines,full").split(",") if m]
BATCH_WIDTH = int(os.environ.get("BENCH_FUZZ_BATCH", "64"))
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
SHRINK_SEED = 7          # known golden-buggy-sub trigger
SHRINK_BOUND = 10        # acceptance bound on minimized repro size


def _matrix_rate(matrix: str) -> dict:
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        report = fuzz_seed(seed, matrix=matrix)
        assert report.ok, report.divergences[0].describe()
    elapsed = time.perf_counter() - start
    return {
        "seeds": N_SEEDS,
        "elapsed_s": round(elapsed, 3),
        "seeds_per_s": round(N_SEEDS / elapsed, 3),
    }


def _batched_rate(lowering: str, engines_sps: float | None) -> dict:
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        report = fuzz_seed_batch(seed, width=BATCH_WIDTH,
                                 lowering=lowering)
        assert report.ok, report.divergences[0].describe()
        assert not report.rebind_fallback, f"seed {seed} rebind fallback"
    elapsed = time.perf_counter() - start
    lane_sps = N_SEEDS * BATCH_WIDTH / elapsed
    out = {
        "seeds": N_SEEDS,
        "width": BATCH_WIDTH,
        "elapsed_s": round(elapsed, 3),
        "lane_seeds_per_s": round(lane_sps, 3),
    }
    if engines_sps:
        out["speedup_vs_engines_x"] = round(lane_sps / engines_sps, 2)
    return out


def main() -> int:
    results: dict[str, dict] = {}
    for matrix in MATRICES:
        results[matrix] = _matrix_rate(matrix)
        r = results[matrix]
        print(f"{matrix:>8}: {r['seeds']} seeds in {r['elapsed_s']:7.2f}s "
              f"({r['seeds_per_s']:5.2f} seeds/s)")

    engines_sps = results.get("engines", {}).get("seeds_per_s")
    batched: dict[str, dict] = {}
    if BATCH_WIDTH:
        lowerings = ["list"] + (["numpy"] if have_numpy() else [])
        for lowering in lowerings:
            batched[lowering] = _batched_rate(lowering, engines_sps)
            b = batched[lowering]
            speed = (f", {b['speedup_vs_engines_x']:.1f}x vs engines"
                     if "speedup_vs_engines_x" in b else "")
            print(f"batch-{lowering:>5}: {b['seeds']} seeds x "
                  f"{b['width']} lanes in {b['elapsed_s']:7.2f}s "
                  f"({b['lane_seeds_per_s']:6.2f} lane-seeds/s{speed})")

    circuit = generate(SHRINK_SEED)
    predicate = oracle_predicate("golden-buggy-sub", 24)
    start = time.perf_counter()
    shrunk = shrink(circuit, predicate)
    shrink_s = time.perf_counter() - start
    print(f"  shrink: {shrunk.initial_ops} -> {shrunk.final_ops} IR ops "
          f"in {shrink_s:.2f}s ({shrunk.tests} oracle runs)")

    payload = {
        "seeds_per_matrix": N_SEEDS,
        "matrices": results,
        "batched": batched,
        "shrink": {
            "seed": SHRINK_SEED,
            "initial_ops": shrunk.initial_ops,
            "final_ops": shrunk.final_ops,
            "oracle_runs": shrunk.tests,
            "elapsed_s": round(shrink_s, 3),
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    if shrunk.final_ops > SHRINK_BOUND:
        print(f"FAIL: shrunk repro has {shrunk.final_ops} IR ops > "
              f"{SHRINK_BOUND}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
