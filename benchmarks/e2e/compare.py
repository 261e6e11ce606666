"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --pairs 10 TREE_A TREE_B

One row per workload x end-to-end metric: both medians, the ratio B/A
with A named as its base, the regression bound from ``BENCHMARK.json``
and a verdict:

* ``worse``       B's median is worse than A's by more than the bound
                  (and by more than A's own spread);
* ``unresolved``  A's run-to-run spread (quartile distance over median)
                  is wider than the bound, so the bound cannot be read;
* ``better``      at least ten index-paired runs, B's median better by
                  more than A's spread, and B wins nine tenths of them;
* ``same``        anything else.

Counts that repeat exactly (simulated rate, Vcycles, machine cycles,
instructions, VCPL, publishes) are listed as ``identical`` or
``changed`` when both files hold a traced run.  Exit code 1 if any row
is ``worse``.

``--pairs N`` first makes the files: N whole-benchmark runs of each of
two checkouts, alternating which goes first, seeds 0..N-1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: A gain needs at least this many pairs (choosing-metrics, section 8).
MIN_PAIRS = 10

EXACT = ("machine.sim_rate_khz", "machine.vcycles", "machine.cycles",
         "compiler.instructions", "compiler.vcpl_sum",
         "checkpoint.published", "bench.fail_ratio")


def samples(path: str, section: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in run order."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, value in (run[section] or {}).items():
            out.setdefault((run["workload"], name), []).append(value)
    return out


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """(verdict, ratio B/A, spread of A)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a
    worsening = ratio - 1 if better == "lower" else 1 - ratio
    wide = spread(a)
    pairs = list(zip(a, b))
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in pairs)
    if worsening > bound and worsening > wide:
        return "worse", ratio, wide
    if wide > bound:
        return "unresolved", ratio, wide
    if len(pairs) >= MIN_PAIRS and -worsening > wide \
            and wins >= 0.9 * len(pairs):
        return "better", ratio, wide
    return "same", ratio, wide


def compare(path_a: str, path_b: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a, b = samples(path_a, "end_to_end"), samples(path_b, "end_to_end")
    worse = 0
    print(f"{'workload':14s} {'metric':14s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A (base A)':>13s} {'spread A':>9s} "
          f"{'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            what, ratio, wide = verdict(a[key], b[key], metric["better"],
                                        metric["bound"])
            worse += what == "worse"
            print(f"{workload:14s} {metric['name']:14s} "
                  f"{statistics.median(a[key]):12.4f} "
                  f"{statistics.median(b[key]):12.4f} {ratio:13.4f} "
                  f"{wide:9.2%} {metric['bound']:6.0%}  {what} "
                  f"(n={len(a[key])}/{len(b[key])})")
    la, lb = samples(path_a, "per_layer"), samples(path_b, "per_layer")
    for key in sorted(la):
        if key[1] in EXACT and key in lb:
            same = set(la[key]) == set(lb[key]) and len(set(la[key])) == 1
            print(f"{key[0]:14s} {key[1]:24s} {la[key][0]!r} -> "
                  f"{lb[key][0]!r}  {'identical' if same else 'changed'}")
    return 1 if worse else 0


def run_pairs(count: int, tree_a: str, tree_b: str) -> tuple[str, str]:
    """Alternate whole-benchmark runs of two checkouts; returns the two
    result files (under this checkout's ``out/``)."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    sides = [(tree, os.path.join(out, f"pairs-{label}.json"))
             for label, tree in (("A", tree_a), ("B", tree_b))]
    for _tree, path in sides:
        if os.path.exists(path):
            os.remove(path)
    for index in range(count):
        for tree, path in sides if index % 2 == 0 else sides[::-1]:
            subprocess.run(
                [sys.executable,
                 os.path.join(tree, "benchmarks", "e2e", "run.py"),
                 "--seed", str(index), "--out", path],
                check=True, stdout=subprocess.DEVNULL)
    return sides[0][1], sides[1][1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file, or checkout with --pairs")
    parser.add_argument("b", help="result file, or checkout with --pairs")
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="run N alternating whole-benchmark pairs of "
                             "the checkouts A and B first")
    args = parser.parse_args(argv)
    if args.pairs:
        args.a, args.b = run_pairs(args.pairs, args.a, args.b)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
