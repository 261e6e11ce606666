"""Workload scale-trajectory benchmark: 8x8 -> 15x15 -> 32x32.

Runs the nine design families at each (grid, scale) operating point of
:data:`repro.workloads.bench.TRAJECTORY` - small sizes on today's 8x8
CI grid, paper sizes on the paper's 15x15 (225-core) machine, stretch
sizes on a 32x32 grid - plus a registry pin sweep (every named
workload, including the external Verilog designs and the promoted fuzz
corpus, re-checked against its pinned fingerprint and state digest).
Every row runs strict, fast and codegen and requires bit-identical
engine-independent state digests across them, so this bench doubles as
the cross-engine equivalence gate at scales the unit suite never
visits - up to codegen kernels for 1024-core programs.

Writes ``BENCH_workloads.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_workloads.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.workloads.bench import (TRAJECTORY, bench_row,  # noqa: E402
                                   verify_registry)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_workloads.json"


def main() -> int:
    def progress(msg: str) -> None:
        print(f"-- {msg}", flush=True)

    rows = []
    for point in TRAJECTORY:
        row = bench_row(point["grid"], point["scale"], point["engines"],
                        progress=progress)
        rows.append(row)

    registry = verify_registry(progress=progress)

    payload = {
        "trajectory": rows,
        "registry": registry,
        "gate": {
            "digests_agree_all_rows": all(r["digests_agree"]
                                          for r in rows),
            "registry_all_ok": registry["all_ok"],
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
