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
  golden per lane), with the speedup over the ``engines`` scalar
  matrix.  Gate: when the ``engines`` matrix ran, the batched oracle
  must be >= 4x faster per seed (exit 1 otherwise).

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

N_SEEDS = int(os.environ.get("BENCH_FUZZ_SEEDS", "5"))
MATRICES = [m for m in os.environ.get(
    "BENCH_FUZZ_MATRICES", "quick,engines,full").split(",") if m]
BATCH_WIDTH = int(os.environ.get("BENCH_FUZZ_BATCH", "64"))
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
SHRINK_SEED = 7          # known golden-buggy-sub trigger
SHRINK_BOUND = 10        # acceptance bound on minimized repro size
BATCH_SPEEDUP_BOUND = 4.0  # batched lane-seeds/s over engines seeds/s


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


def _batched_rate(engines_sps: float | None) -> dict:
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        report = fuzz_seed_batch(seed, width=BATCH_WIDTH)
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
    batched = _batched_rate(engines_sps) if BATCH_WIDTH else {}
    speedup = batched.get("speedup_vs_engines_x")
    if batched:
        speed = f", {speedup:.1f}x vs engines" if speedup else ""
        print(f" batched: {batched['seeds']} seeds x {batched['width']} "
              f"lanes in {batched['elapsed_s']:7.2f}s "
              f"({batched['lane_seeds_per_s']:6.2f} lane-seeds/s{speed})")

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

    status = 0
    if shrunk.final_ops > SHRINK_BOUND:
        print(f"FAIL: shrunk repro has {shrunk.final_ops} IR ops > "
              f"{SHRINK_BOUND}", file=sys.stderr)
        status = 1
    if speedup is not None and speedup < BATCH_SPEEDUP_BOUND:
        print(f"FAIL: batched oracle is {speedup:.2f}x the engines "
              f"matrix < {BATCH_SPEEDUP_BOUND}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
