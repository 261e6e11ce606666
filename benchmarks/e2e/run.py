"""The repository's end-to-end benchmark.

    run.py --workload NAME --seed N --seconds S --trace 0|1
    run.py --seed N             # all four, each untraced then traced

For one workload: set up (several times while set-up is cheap, median
reported), then whole untraced passes for about ``--seconds`` (always at
least one; another only if it fits), each in its own fresh interpreter
with ``PYTHONHASHSEED=0``, ``MALLOC_ARENA_MAX=1`` and both cache
variables pointed into a per-run temp dir under ``out/``; with
``--trace 1`` one more pass runs traced and the per-layer metrics are
printed instead.  Every op is checked against ``pins.json``.  Each metric is printed by name with its
unit, and the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when an op failed or a cache-state rule was broken.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from catalog import WORKLOADS  # noqa: E402  (pure data, no repro import)

#: Set-up is repeated until this much time went into it or this many
#: samples exist: a 0.3 s set-up gets five samples, a 9 s one gets one.
SETUP_MIN_TOTAL_S = 2.0
SETUP_MAX_SAMPLES = 5
WORKER_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class WorkloadRun:
    """Set-up samples and passes of one workload in one temp dir."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.quick = quick
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(ROOT, "src")]
                + [p for p in (os.environ.get("PYTHONPATH"),) if p]),
            PYTHONHASHSEED="0",
            # One malloc arena: with glibc's per-thread arenas the peak
            # RSS of the 2-worker server ranged 153-173 MB with the
            # seed's job order; with one it is 112-133 MB.
            MALLOC_ARENA_MAX="1",
            REPRO_COMPILE_CACHE=os.path.join(self.tmp, "compile-cache"),
            REPRO_CODEGEN_CACHE=os.path.join(self.tmp, "kernel-cache"))
        self.setup_s: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def worker(self, phase: str, trace: int = 0) -> dict:
        command = [sys.executable, WORKER, "--workload", self.name,
                   "--seed", str(self.seed), "--phase", phase,
                   "--trace", str(trace), "--tmp", self.tmp]
        if self.quick:
            command.append("--quick")
        proc = subprocess.Popen(command, env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode:
            raise RuntimeError(f"{self.name}: worker {phase} exited "
                               f"{proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])

    def set_up(self) -> None:
        """Empty the temp dir and run the set-up phase, timed from
        outside (interpreter start and imports included)."""
        for entry in os.listdir(self.tmp):
            shutil.rmtree(os.path.join(self.tmp, entry))
        start = perf_counter()
        self.worker("setup")
        self.setup_s.append(perf_counter() - start)

    def timed_pass(self, trace: int) -> dict:
        if not WORKLOADS[self.name].warm \
                and os.listdir(self.env["REPRO_CODEGEN_CACHE"]):
            self.set_up()                   # a cold pass starts empty
        # Checkpoint stores and server work dirs never outlive a pass.
        shutil.rmtree(os.path.join(self.tmp, "scratch"), ignore_errors=True)
        return self.worker("pass", trace)


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload; returns end-to-end metrics, per-layer metrics
    (traced only), and the ops attempted and failed."""
    run = WorkloadRun(name, seed, quick)
    try:
        run.set_up()
        while (len(run.setup_s) < SETUP_MAX_SAMPLES
               and sum(run.setup_s) < SETUP_MIN_TOTAL_S):
            run.set_up()
        passes = [run.timed_pass(0)]
        spent = passes[0]["e2e_s"]
        while spent + passes[-1]["e2e_s"] <= seconds:
            passes.append(run.timed_pass(0))
            spent += passes[-1]["e2e_s"]
        traced = run.timed_pass(1) if trace else None
    finally:
        run.close()

    def median(value) -> float:
        return statistics.median(value(p) for p in passes)

    end_to_end = {
        "setup_s": statistics.median(run.setup_s),
        "e2e_s": median(lambda p: p["e2e_s"]),
        "vcycles_per_s": median(lambda p: p["vcycles"] / p["e2e_s"]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
    }
    everything = passes + ([traced] if traced else [])
    out = {
        "workload": name, "seed": seed, "passes": len(passes),
        "setup_samples": len(run.setup_s),
        "end_to_end": end_to_end, "per_layer": None,
        "attempted": sum(p["attempted"] for p in everything),
        "failures": [f for p in everything for f in p["failures"]],
        "violations": [v for p in everything for v in p["violations"]],
    }
    if traced:
        out["per_layer"] = dict(
            traced["layers"],
            **{"obs.trace_overhead_ratio":
               traced["e2e_s"] / end_to_end["e2e_s"]})
    return out


def report(result: dict, spec: dict, which: str) -> dict:
    """Print the metrics of ``which`` section by name with their units;
    returns them in the driver's ``metrics`` form.  The names must be
    exactly the ones BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec[which]}
    values = result[which]
    if set(values) != set(declared):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json {which}: "
            f"{sorted(set(values) ^ set(declared))}")
    for name, unit in declared.items():
        print(f"{result['workload']:14s} {name:34s} {values[name]!r} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload (default: all, each untraced "
                             "then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: add a traced pass, print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: two ops per workload, 20 jobs")
    parser.add_argument("--out", metavar="FILE",
                        help="append this run's metrics to a results file "
                             "(input of compare.py)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:     # --quick: one pass per workload
        seconds = 0 if args.quick else spec["run_seconds"]
    whole = args.workload is None
    trace = whole if args.trace is None else bool(args.trace)

    metrics: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    results = []
    for name in WORKLOADS if whole else (args.workload,):
        result = measure(name, args.seed, seconds, trace, args.quick)
        results.append(result)
        sections = [s for s in ("end_to_end", "per_layer")
                    if whole or (s == "per_layer") == trace]
        for section in sections:
            shown = report(result, spec, section)
            if whole:
                metrics.setdefault(name, {}).update(shown)
            else:
                metrics = shown
        attempted += result["attempted"]
        failed += len(result["failures"])
        problems += [f"{name}: {text}" for text in
                     result["failures"] + result["violations"]]
    for text in problems:
        print(f"FAILED {text}", file=sys.stderr)
    if args.out:
        append_results(args.out, results)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def append_results(path: str, results: list[dict]) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w") as handle:
        json.dump({"format": "repro-e2e-results/v1",
                   "runs": runs + results}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
