"""One phase of one workload, run by ``run.py`` in a fresh interpreter.

``--phase setup`` builds the inputs and, for a warm workload, fills the
compile cache and the kernel source cache; ``--phase pass`` makes one
timed pass over the workload's plan, from circuit source to pin-checked
digest, and prints one JSON object as its last line of output.  Both
refuse to run unless the two cache variables point inside ``--tmp``.

Every layer is driven and timed from here through its public
functions; with ``--trace 1`` the same statements run inside spans
(``trace.py``) and the machine phase is split into kernel build,
warm-up and steady state.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import (CHECKPOINT_EVERY, ENGINE, SERVE_WORKERS,  # noqa: E402
                     WORKLOADS, op_table, plan as make_plan)
from trace import Tracer  # noqa: E402

CACHE_VARS = ("REPRO_COMPILE_CACHE", "REPRO_CODEGEN_CACHE")
PHASES = ("opt", "lower", "parallelize", "custom", "schedule", "regalloc",
          "cache")
FREQUENCY_MHZ = 475.0
EXTRA_CALLS = 20


def cache_dirs(tmp: str) -> tuple[str, str]:
    """The two cache directories, refusing any that leave ``tmp``."""
    root = os.path.realpath(tmp)
    dirs = []
    for var in CACHE_VARS:
        value = os.environ.get(var, "")
        path = os.path.realpath(os.path.expanduser(value)) if value else ""
        if not path.startswith(root + os.sep):
            raise SystemExit(
                f"refusing to run: ${var}={value!r} resolves outside the "
                f"run's temp dir {root} (cache state would be "
                "uncontrolled)")
        dirs.append(path)
    return dirs[0], dirs[1]


def listing(directory: str) -> tuple[int, int]:
    """(files, bytes) under a cache directory."""
    files = size = 0
    for base, _dirs, names in os.walk(directory):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def sim_khz(vcycles: int, cycles: int) -> float:
    """MachineResult.simulation_rate_khz at the paper's 475 MHz."""
    return FREQUENCY_MHZ * 1e3 * vcycles / cycles if cycles else 0.0


def compile_cached(circuit, config, cache_dir: str):
    from repro.compiler.driver import CompilerOptions, compile_circuit
    return compile_circuit(circuit, CompilerOptions(config=config,
                                                    cache_dir=cache_dir))


def build_kernel(program, config) -> None:
    """Emit (or load) the codegen kernel on a scratch machine: fills the
    kernel source cache and the in-process memo."""
    from repro.machine.codegen import compile_codegen
    from repro.machine.grid import Machine
    compile_codegen(Machine(program, config, engine=ENGINE))


class Pass:
    """State of one timed pass: tracer, pins, outcomes, failures."""

    def __init__(self, ops, pins, tmp: str, trace: bool) -> None:
        self.ops = ops
        self.pins = pins
        self.tmp = tmp
        self.tracer = Tracer(trace)
        self.compile_cache, self.kernel_cache = cache_dirs(tmp)
        self.attempted = 0
        self.failures: list[str] = []
        self.violations: list[str] = []
        self.vcycles = 0
        self.cycles = 0
        self.rates: list[float] = []
        self.cache_misses = 0
        self.vcpl_sum = 0                      # serve: from job counters
        self.extras: dict[str, float] = {}
        #: ckpt, traced: op id -> [op, program, config, machine, instances]
        self.finished_runs: dict[str, list] = {}

    # -- correctness ----------------------------------------------------
    def check(self, op_id: str, stepped: int | None = None, **got) -> None:
        """Compare what an op produced with its pin; record the op as
        failed on any difference, naming it.  ``stepped`` is the number
        of Vcycles this pass simulated for the op, where that is not the
        machine's own count (a resumed machine restores its counters)."""
        pin = self.pins.get(op_id)
        if pin is None:
            self.failures.append(f"{op_id}: no pin in pins.json")
            return
        got["sim_khz"] = sim_khz(got["vcycles"], got["cycles"])
        wrong = [f"{key} {value!r} != pinned {pin[key]!r}"
                 for key, value in got.items() if pin[key] != value]
        if wrong:
            self.failures.append(f"{op_id}: " + "; ".join(wrong))
        self.vcycles += got["vcycles"] if stepped is None else stepped
        self.cycles += got["cycles"]
        self.rates.append(got["sim_khz"])

    def guarded(self, op_id: str, step, *args) -> None:
        """Run one op; an exception fails the op, not the pass."""
        self.attempted += 1
        try:
            with self.tracer.span("bench.op", op_id):
                step(*args)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failures.append(f"{op_id}: raised {type(exc).__name__}: "
                                 f"{exc}")
        # A finished Machine is cyclic garbage; left to the collector's
        # own schedule, how much of it piles up - and with it peak RSS -
        # depends on the seed's op order.
        with self.tracer.span("bench.gc", op_id):
            gc.collect()

    # -- layers shared by the oneshot and checkpoint drivers -------------
    def front(self, op):
        """Circuit source -> fingerprint -> compiled program."""
        tr = self.tracer
        with tr.span("netlist.parse" if op.verilog else "designs.build",
                     op.id):
            circuit = op.build()
        with tr.span("netlist.fingerprint", op.id) as counts:
            fingerprint = circuit.fingerprint()
            counts["ops"] = len(circuit.ops)
        config = op.config()
        with tr.span("compiler.compile", op.id) as counts:
            compiled = compile_cached(circuit, config, self.compile_cache)
            report = compiled.report
            miss = report.cache["status"] == "miss"
            times = report.times.as_dict()
            # A hit unpickles the report of the compile that stored it;
            # only the lookup happened now.
            counts.update({p: times[p] if miss or p == "cache" else 0.0
                           for p in PHASES})
            counts.update(misses=int(miss), hits=int(not miss),
                          instructions=report.lowered_instructions,
                          vcpl=report.vcpl, sends=report.send_count)
        self.cache_misses += miss
        if tr.enabled:
            # Built on a scratch machine so that the timed machine's
            # trust hand-off below is an in-process memo hit.
            with tr.span("machine.kernel_build", op.id):
                build_kernel(compiled.program, config)
        facts = {"fingerprint": fingerprint, "ops": len(circuit.ops)}
        return facts, compiled.program, config

    def digest(self, op_id: str, machine) -> str:
        from repro.serve.jobs import state_digest
        with self.tracer.span("machine.digest", op_id):
            return state_digest(machine)

    # -- oneshot ---------------------------------------------------------
    def oneshot(self, op) -> None:
        from repro.machine.grid import Machine
        tr = self.tracer
        facts, program, config = self.front(op)
        with tr.span("machine.construct", op.id):
            machine = Machine(program, config, engine=ENGINE)
        warm = 0
        if tr.enabled:
            with tr.span("machine.warmup", op.id):
                for _ in range(config.fastpath_verify_vcycles + 1):
                    machine.step_vcycle()
                warm = machine.counters.vcycles
        with tr.span("machine.steady", op.id) as counts:
            result = machine.run(op.budget)
            counts["vcycles"] = result.vcycles - warm
        self.check(op.id, finished=result.finished, vcycles=result.vcycles,
                   cycles=result.counters.total_cycles,
                   digest=self.digest(op.id, machine), **facts)

    def fast_reference(self, op_ids) -> None:
        """Comparator, after the clock stopped: the machine phase of the
        same ops on ``engine="fast"`` (compile is a cache hit by now)."""
        from repro.machine.grid import Machine
        from repro.serve.jobs import state_digest
        total = 0.0
        for op_id in op_ids:
            op = self.ops[op_id]
            config = op.config()
            program = compile_cached(op.build(), config,
                                     self.compile_cache).program
            start = perf_counter()
            machine = Machine(program, config, engine="fast")
            machine.run(op.budget)
            state_digest(machine)
            total += perf_counter() - start
        self.extras["machine.fast_ref_s"] = total

    # -- checkpoint driver -----------------------------------------------
    def checkpointed(self, op) -> None:
        from repro.checkpoint import CheckpointStore, run_with_checkpoints
        facts, program, config = self.front(op)
        # One store per machine instance: a repeat of the op must not
        # find the snapshots of the instance before it.
        store = CheckpointStore(
            os.path.join(self.tmp, "scratch", "ckpt",
                         f"{self.attempted}-{op.id}"), keep=3)
        every = CHECKPOINT_EVERY
        final = self.pins[op.id]["vcycles"]
        half = final // 2
        started: list[float] = []
        with self.tracer.span("checkpoint.driver", op.id) as counts:
            first = run_with_checkpoints(
                program, half, config=config, engine=ENGINE, store=store,
                checkpoint_every=every)
            called = perf_counter()
            second = run_with_checkpoints(
                program, op.budget, config=config, engine=ENGINE,
                store=store, checkpoint_every=every, resume=True,
                on_start=lambda _m, _resumed: started.append(
                    perf_counter()))
            published = len(first.published), len(second.published)
            counts["published"] = sum(published)
            counts["resume_s"] = started[0] - called
        result = second.result
        # The second call must pick up the first call's last snapshot and
        # simulate the whole second half, publishing as it goes.
        resumed = half - half % every
        if second.resumed_from != resumed:
            raise RuntimeError(f"resumed from Vcycle {second.resumed_from}, "
                               f"not from {resumed}")
        expected = (half // every,
                    (result.vcycles - 1) // every - half // every)
        if published != expected:
            raise RuntimeError(f"published {published} snapshots, "
                               f"expected {expected}")
        self.check(op.id, stepped=half + result.vcycles - resumed,
                   finished=result.finished, vcycles=result.vcycles,
                   cycles=result.counters.total_cycles,
                   digest=self.digest(op.id, second.machine), **facts)
        if self.tracer.enabled:
            kept = self.finished_runs.setdefault(
                op.id, [op, program, config, second.machine, 0])
            kept[4] += 1

    def checkpoint_extras(self, driver_s: float) -> None:
        """After the clock stopped: the plain ``Machine.run`` baseline of
        the same programs, and direct calls of each snapshot step."""
        from repro.checkpoint import (capture, encode_snapshot,
                                      load_snapshot, restore, write_atomic)
        from repro.machine.grid import Machine
        plain = 0.0
        samples = {key: [] for key in
                   ("capture", "encode", "publish", "restore")}
        sizes = []
        path = os.path.join(self.tmp, "scratch", "extra.ckpt")
        for op, program, config, machine, instances \
                in self.finished_runs.values():
            start = perf_counter()
            Machine(program, config, engine=ENGINE).run(op.budget)
            plain += (perf_counter() - start) * instances
            for _ in range(EXTRA_CALLS):
                t0 = perf_counter()
                payload = capture(machine)
                t1 = perf_counter()
                blob = encode_snapshot(payload)
                t2 = perf_counter()
                write_atomic(path, blob)
                t3 = perf_counter()
                restore(load_snapshot(path), program=program, config=config)
                t4 = perf_counter()
                for key, dt in zip(samples, (t1 - t0, t2 - t1, t3 - t2,
                                             t4 - t3)):
                    samples[key].append(dt * 1e3)
            sizes.append(len(blob))
        if not self.finished_runs:
            return
        self.extras["checkpoint.driver_overhead_ratio"] = driver_s / plain
        for key, values in samples.items():
            self.extras[f"checkpoint.{key}_ms"] = statistics.median(values)
        self.extras["checkpoint.snapshot_bytes"] = statistics.median(sizes)

    # -- job server ------------------------------------------------------
    def serve(self, plan: dict) -> dict:
        with self.tracer.span("designs.build"):
            circuits = {op_id: self.ops[op_id].build()
                        for op_id in plan["ops"]
                        if not self.ops[op_id].scale}
        return asyncio.run(self._serve(plan, circuits))

    async def _serve(self, plan: dict, circuits: dict) -> dict:
        from repro.machine.config import MachineConfig
        from repro.serve.server import SimulationServer
        tr = self.tracer
        records: list[tuple] = []
        live: dict[int, object] = {}
        seen: dict[tuple[int, str], float] = {}

        async def client(lane: int, tenant: dict) -> None:
            for op_id in tenant["jobs"]:
                op = self.ops[op_id]
                what = ({"design": op.family} if op.scale
                        else {"circuit": circuits[op_id]})
                self.attempted += 1
                submitted = perf_counter()
                try:
                    job = await server.submit(
                        tenant=tenant["tenant"],
                        priority=tenant["priority"], cycles=op.budget,
                        **what)
                    live[job.id] = job
                    try:
                        await server.wait(job.id, timeout=120)
                    finally:
                        del live[job.id]
                except Exception as exc:  # noqa: BLE001 - counted
                    self.failures.append(
                        f"{op_id}: raised {type(exc).__name__}: {exc}")
                    continue
                records.append((op_id, lane, job, submitted,
                                perf_counter()))

        async def sampler() -> None:
            # First sighting of each job in each state; 2 ms period.
            while True:
                now = perf_counter()
                for job in list(live.values()):
                    seen.setdefault((job.id, job.state), now)
                await asyncio.sleep(0.002)

        with tr.span("serve.start"):
            server = SimulationServer(
                workers=SERVE_WORKERS, mode="thread",
                config=MachineConfig(grid_x=8, grid_y=8),
                engine_default=ENGINE, cache_dir=self.compile_cache,
                work_dir=os.path.join(self.tmp, "scratch", "serve-work"))
            await server.start()
        try:
            with tr.span("serve.load"):
                load_span = tr.current()
                watch = asyncio.create_task(sampler()) if tr.enabled \
                    else None
                try:
                    await asyncio.gather(*(
                        client(lane, tenant) for lane, tenant
                        in enumerate(plan["tenants"], start=1)))
                finally:
                    if watch is not None:
                        watch.cancel()
                        await asyncio.gather(watch, return_exceptions=True)
            with tr.span("serve.check"):
                for op_id, _lane, job, _t0, _t1 in records:
                    self._check_job(op_id, job)
            snapshot = server.metrics_snapshot()
        finally:
            with tr.span("serve.close"):
                await server.close()
        self.cache_misses += snapshot["compile"]["compiles"]
        if not tr.enabled:
            return {}
        # One span per job on its client's lane, cut at the sampler's
        # first sighting of each state (a state shorter than the sampling
        # period is never seen and gets zero length).
        waits = {"queue_wait": [], "compile_wait": [], "run": []}
        for op_id, lane, job, submitted, done in records:
            running = seen.get((job.id, "running"), done)
            compiling = seen.get((job.id, "compiling"), running)
            parent = tr.add("serve.job", submitted, done, load_span, op_id,
                            lane)
            for key, start, end in (("queue_wait", submitted, compiling),
                                    ("compile_wait", compiling, running),
                                    ("run", running, done)):
                waits[key].append(end - start)
                tr.add(f"serve.{key}", start, end, parent, op_id, lane)
        latencies = sorted(job.latency_s for _o, _l, job, _a, _b in records)
        return {"latencies": latencies, "waits": waits,
                "snapshot": snapshot}

    def _check_job(self, op_id: str, job) -> None:
        if job.state != "done":
            self.failures.append(f"{op_id}: job {job.id} ended "
                                 f"{job.state}: {job.error}")
            return
        result = job.result
        counters = result["counters"]
        self.check(op_id, finished=result["finished"],
                   vcycles=result["vcycles"],
                   cycles=(counters["compute_cycles"]
                           + counters["stall_cycles"]),
                   digest=result["state_sha256"])
        self.vcpl_sum += (counters["compute_cycles"]
                          // max(1, result["vcycles"]))


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(run: Pass, served: dict | None) -> dict:
    """Every per-layer metric of BENCHMARK.json from the recorded spans
    (0 where a workload does not exercise the layer)."""
    tr = run.tracer
    compiles = "compiler.compile"
    out = {
        "designs.build_s": tr.total("designs.build"),
        "netlist.parse_s": tr.total("netlist.parse"),
        "netlist.fingerprint_s": tr.total("netlist.fingerprint"),
        "netlist.ops": tr.count("netlist.fingerprint", "ops"),
        "compiler.compile_s": tr.total(compiles),
        "compiler.cache_hits": tr.count(compiles, "hits"),
        "compiler.cache_misses": tr.count(compiles, "misses"),
        "compiler.instructions": tr.count(compiles, "instructions"),
        "compiler.vcpl_sum": tr.count(compiles, "vcpl"),
        "compiler.sends": tr.count(compiles, "sends"),
        "machine.construct_s": tr.total("machine.construct"),
        "machine.kernel_build_s": tr.total("machine.kernel_build"),
        "machine.warmup_s": tr.total("machine.warmup"),
        "machine.steady_s": tr.total("machine.steady"),
        "machine.digest_s": tr.total("machine.digest"),
        "machine.vcycles": run.vcycles,
        "machine.cycles": run.cycles,
        "machine.sim_rate_khz": (statistics.geometric_mean(run.rates)
                                 if run.rates else 0.0),
        "checkpoint.driver_s": tr.total("checkpoint.driver"),
        "checkpoint.resume_s": tr.count("checkpoint.driver", "resume_s"),
        "checkpoint.published": tr.count("checkpoint.driver", "published"),
        # the comparator extras, where a workload has none
        **dict.fromkeys(
            ("machine.fast_ref_s", "checkpoint.driver_overhead_ratio",
             "checkpoint.capture_ms", "checkpoint.encode_ms",
             "checkpoint.publish_ms", "checkpoint.restore_ms",
             "checkpoint.snapshot_bytes"), 0.0),
    }
    for phase in PHASES:
        out[f"compiler.{phase}_s"] = tr.count(compiles, phase)
    steady_vcycles = tr.count("machine.steady", "vcycles")
    out["machine.steady_vcycles_per_s"] = (
        steady_vcycles / out["machine.steady_s"]
        if out["machine.steady_s"] else 0.0)
    files, size = listing(run.kernel_cache)
    out["machine.kernel_cache_files"] = files
    out["machine.kernel_cache_bytes"] = size
    serve = dict.fromkeys(
        ("jobs_per_s", "latency_p50_s", "latency_p95_s", "queue_wait_s",
         "compile_wait_s", "run_s", "cache_hit_rate", "inflight_shared",
         "preemptions", "retries", "failed"), 0.0)
    if served is not None:
        snapshot, latencies = served["snapshot"], served["latencies"]
        serve.update(
            jobs_per_s=(snapshot["jobs"]["states"]["done"]
                        / tr.total("serve.load")),
            latency_p50_s=percentile(latencies, 0.50),
            latency_p95_s=percentile(latencies, 0.95),
            cache_hit_rate=snapshot["compile"]["hit_rate"],
            inflight_shared=snapshot["compile"]["inflight_shared"],
            preemptions=snapshot["jobs"]["preempted"],
            retries=snapshot["jobs"]["retried"],
            failed=snapshot["jobs"]["failed"])
        for key, values in served["waits"].items():
            serve[f"{key}_s"] = statistics.fmean(values)
        # The server compiles inside itself; its counters stand in.
        out["compiler.cache_hits"] = (snapshot["compile"]["cache_hits"]
                                      + snapshot["compile"]["inflight_shared"])
        out["compiler.cache_misses"] = snapshot["compile"]["compiles"]
        out["compiler.vcpl_sum"] = run.vcpl_sum
    out.update({f"serve.{key}": value for key, value in serve.items()})
    out.update(run.extras)
    # Time of the pass that no layer span covers: the benchmark's own
    # glue (the bench.* spans' self time).
    out["bench.unattributed_s"] = sum(
        own for span, own in zip(tr.spans, tr.self_times())
        if span["name"].startswith("bench."))
    out["bench.fail_ratio"] = len(run.failures) / max(1, run.attempted)
    return out


def set_up(workload, ops, plan: dict, tmp: str) -> dict:
    """Create the cache directories; fill them for a warm workload."""
    compile_cache, kernel_cache = cache_dirs(tmp)
    for directory in (compile_cache, kernel_cache):
        os.makedirs(directory, exist_ok=True)
    if workload.warm:
        for op_id in sorted(set(plan["ops"])):
            op = ops[op_id]
            config = op.config()
            build_kernel(compile_cached(op.build(), config,
                                        compile_cache).program, config)
    return {"compile_cache_files": listing(compile_cache)[0],
            "kernel_cache_files": listing(kernel_cache)[0]}


def timed_pass(workload, ops, pins, plan: dict, tmp: str,
               trace: bool) -> dict:
    run = Pass(ops, pins, tmp, trace)
    before = listing(run.kernel_cache)[0]
    if not workload.warm and (before or listing(run.compile_cache)[0]):
        run.violations.append("caches are not empty before a cold pass")
    served = None
    start = perf_counter()
    with run.tracer.span("bench.pass"):
        if workload.kind == "serve":
            served = run.serve(plan)
        else:
            step = (run.checkpointed if workload.kind == "ckpt"
                    else run.oneshot)
            for op_id in plan["ops"]:
                run.guarded(op_id, step, ops[op_id])
    e2e_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    after = listing(run.kernel_cache)[0]
    if workload.warm and run.cache_misses:
        run.violations.append(
            f"{run.cache_misses} compile-cache misses on a warm workload")
    if workload.warm and after != before:
        run.violations.append(
            f"kernel cache grew from {before} to {after} files on a warm "
            "workload")
    out = {"e2e_s": e2e_s, "vcycles": run.vcycles,
           "attempted": run.attempted, "failures": run.failures,
           "violations": run.violations, "peak_rss_mb": peak_rss_mb,
           "layers": None}
    if trace:
        if workload.kind == "ckpt":
            run.checkpoint_extras(run.tracer.total("checkpoint.driver"))
        elif not workload.warm:
            run.fast_reference(plan["ops"])
        out["layers"] = layer_metrics(run, served)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        run.tracer.write_chrome(os.path.join(
            HERE, "out", f"trace-{workload.name}.json"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    cache_dirs(args.tmp)
    ops = op_table()
    workload = WORKLOADS[args.workload]
    plan = make_plan(workload, args.seed, args.quick)
    if args.phase == "setup":
        out = set_up(workload, ops, plan, args.tmp)
    else:
        with open(os.path.join(HERE, "pins.json")) as handle:
            pins = json.load(handle)["ops"]
        out = timed_pass(workload, ops, pins, plan, args.tmp,
                         bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
