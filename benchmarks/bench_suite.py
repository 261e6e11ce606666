"""Consolidated benchmark dashboard: one JSON with every headline.

Each ``benchmarks/bench_*.py`` script writes its own ``BENCH_*.json``
artifact with full per-design detail.  This aggregator distills those
into ``BENCH_suite.json`` - the headline numbers a reader (or a CI
regression check) wants at a glance - without re-running anything.
Sections whose artifact is missing are skipped with a note, so the
suite file is always writable from whatever subset has been measured.

Run with::

    PYTHONPATH=src python benchmarks/bench_suite.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_suite.json"


def _load(name: str) -> dict | None:
    path = ROOT / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _geomean(values: list[float]) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values)) if values else 0.0


def _engine_headline(d: dict) -> dict:
    designs = d["designs"]
    return {
        "grid": d["grid"],
        "designs": len(designs),
        "geomean_codegen_vcycles_per_sec": round(_geomean(
            [v["codegen_vcycles_per_sec"] for v in designs.values()]), 1),
        "codegen_speedup_vs_fast": [d["min_codegen_speedup_vs_fast"],
                                    d["max_codegen_speedup_vs_fast"]],
        "fast_speedup_vs_strict": [d["min_speedup"], d["max_speedup"]],
    }


def _compile_headline(d: dict) -> dict:
    designs = d["designs"]
    return {
        "grid": d["grid"],
        "designs": len(designs),
        "geomean_warm_cache_speedup": round(_geomean(
            [v["warm_speedup"] for v in designs.values()]), 1),
        "all_bit_identical": all(v["bit_identical"]
                                 for v in designs.values()),
    }


def _fuzz_headline(d: dict) -> dict:
    out = {
        "seeds_per_matrix": d["seeds_per_matrix"],
        "matrix_seeds_per_s": {
            name: r["seeds_per_s"] for name, r in d["matrices"].items()},
        "shrink_final_ops": d["shrink"]["final_ops"],
    }
    b = d.get("batched")
    if b:
        out["batch_lane_seeds_per_s"] = b["lane_seeds_per_s"]
        if "speedup_vs_engines_x" in b:
            out["batch_speedup_vs_engines_x"] = b["speedup_vs_engines_x"]
    return out


def _checkpoint_headline(d: dict) -> dict:
    gate = d["gate"]
    return {
        "grid": d["grid"],
        "designs": len(d["designs"]),
        "limit_percent": gate["limit_percent"],
        "suite_overhead_percent": gate["suite_overhead_percent"],
        "max_design_overhead_percent":
            gate["max_design_overhead_percent"],
        "geomean_design_overhead_percent":
            gate["geomean_design_overhead_percent"],
        "gate": "pass" if gate["passed"] else "FAIL",
    }


def _workloads_headline(d: dict) -> dict:
    trajectory = []
    for row in d["trajectory"]:
        designs = row["designs"]
        fastest = {
            name: max(e["vcycles_per_s"]
                      for e in entry["engines"].values())
            for name, entry in designs.items()}
        trajectory.append({
            "grid": row["grid"],
            "scale": row["scale"],
            "designs": len(designs),
            "engines": list(row["engines"]),
            "total_ops": sum(v["ops"] for v in designs.values()),
            "geomean_compile_s": round(_geomean(
                [v["compile_s"] for v in designs.values()]), 2),
            "geomean_best_vcycles_per_s": round(_geomean(
                list(fastest.values())), 1),
            "digests_agree": row["digests_agree"],
        })
    return {
        "trajectory": trajectory,
        "registry_entries": len(d["registry"]["entries"]),
        "registry_all_ok": d["registry"]["all_ok"],
        "gate": ("pass" if (d["gate"]["digests_agree_all_rows"]
                            and d["gate"]["registry_all_ok"])
                 else "FAIL"),
    }


def _obs_headline(d: dict) -> dict:
    return {
        "grid": d["grid"],
        "designs": len(d["designs"]),
        "max_zero_observer_overhead_percent":
            d["max_zero_observer_overhead"] * 100,
        "geomean_zero_observer_overhead_percent":
            d["geomean"]["zero_observer_overhead_percent"],
        "geomean_profiler_overhead_percent":
            d["geomean"]["profiler_overhead_percent"],
    }


def _serve_headline(d: dict) -> dict:
    return {
        "jobs": d["jobs"],
        "workers": d["workers"],
        "zipf_s": d["zipf_s"],
        "jobs_per_s": d["jobs_per_s"],
        "p50_s": d["p50_s"],
        "p99_s": d["p99_s"],
        "cache_hit_rate": d["cache_hit_rate"],
        "preempt_roundtrip_s": d.get("preempt_roundtrip_s"),
    }


_SECTIONS = {
    "engine": _engine_headline,
    "compile": _compile_headline,
    "fuzz": _fuzz_headline,
    "checkpoint": _checkpoint_headline,
    "obs": _obs_headline,
    "serve": _serve_headline,
    "workloads": _workloads_headline,
}


def main() -> int:
    suite: dict[str, object] = {}
    missing = []
    for name, distill in _SECTIONS.items():
        raw = _load(name)
        if raw is None:
            missing.append(name)
            continue
        suite[name] = distill(raw)
    if missing:
        suite["missing"] = missing
        print(f"note: no artifact for {', '.join(missing)} "
              f"(run benchmarks/bench_<name>.py)", file=sys.stderr)
    OUT_PATH.write_text(json.dumps(suite, indent=2, sort_keys=True)
                        + "\n")
    print(json.dumps(suite, indent=2, sort_keys=True))
    print(f"wrote {OUT_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
