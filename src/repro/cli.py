"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate FILE.v``          golden-interpreter simulation of a Verilog file
``compile FILE.v``           compile for Manticore; report VCPL/cores/sends,
                             optionally dump assembly and the binary
``run FILE.v``               compile + execute on the cycle-accurate machine,
                             optionally writing a VCD waveform
``designs``                  list the built-in benchmark designs
``design NAME``              golden-run one benchmark design
``disasm FILE.bin``          disassemble a bootloader binary
``fuzz``                     differential fuzzing: hunt a seed range through
                             an oracle matrix, shrink + record divergences
                             into a replayable corpus (``--replay FILE``)
``profile``                  compile + run one design under the observability
                             subsystem; print a bottleneck report and export
                             profile JSON / Chrome trace / Prometheus metrics
``serve``                    multi-tenant job server on a unix socket:
                             fair-share queue, compile-cache dedupe,
                             preemption + migration via checkpoints
``submit``                   client for a running ``repro serve``: submit one
                             job, replay a zipfian load plan, or shut down
"""

from __future__ import annotations

import argparse
import sys


def _load_circuit(path: str):
    from .netlist.verilog import parse_verilog
    with open(path) as f:
        return parse_verilog(f.read())


def _grid_config(args):
    from .machine.config import MachineConfig
    return MachineConfig(grid_x=args.grid[0], grid_y=args.grid[1])


def _compiler_options(args):
    """CompilerOptions from the shared compile flags (grid, cache, jobs).

    The CLI opts into the compile cache by default (``~/.cache/
    repro-compile`` or ``$REPRO_COMPILE_CACHE``); ``--no-cache`` turns it
    off, ``--cache-dir`` points it elsewhere.
    """
    from .compiler.cache import default_cache_dir
    from .compiler.driver import CompilerOptions
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(default_cache_dir())
    return CompilerOptions(config=_grid_config(args), jobs=args.jobs,
                           cache_dir=cache_dir)


def cmd_simulate(args) -> int:
    """Golden-interpreter simulation of a Verilog file."""
    from .netlist.interp import run_circuit
    circuit = _load_circuit(args.file)
    result = run_circuit(circuit, args.cycles)
    for line in result.displays:
        print(line)
    print(f"-- {result.cycles} cycles, "
          f"{'finished' if result.finished else 'cycle limit reached'}",
          file=sys.stderr)
    return 0


def cmd_compile(args) -> int:
    """Compile for Manticore and print the compile report."""
    import json

    from .compiler.driver import compile_circuit
    from .isa.asm import format_program
    from .machine.boot import serialize

    circuit = _load_circuit(args.file)
    result = compile_circuit(circuit, _compiler_options(args))
    r = result.report
    if args.json:
        print(json.dumps(r.as_dict(), indent=2))
        return 0
    print(f"design             : {r.name}")
    print(f"netlist ops        : {r.netlist_ops}")
    print(f"lower instructions : {r.lowered_instructions}")
    print(f"split processes    : {r.split_processes} "
          f"(|E| = {r.split_edges})")
    print(f"cores used         : {r.cores_used}")
    print(f"VCPL               : {r.vcpl}")
    print(f"Sends per Vcycle   : {r.send_count}")
    print(f"max imem footprint : {r.max_imem}")
    print(f"compile time       : {r.times.total:.2f}s "
          f"({', '.join(f'{k}={v:.2f}' for k, v in r.times.as_dict().items() if k != 'total')})")
    if r.cache is not None:
        print(f"compile cache      : {r.cache['status']} "
              f"({r.cache['key'][:12]}... in {r.cache['dir']})")
    print(f"rate @ 475 MHz     : {r.simulated_rate_khz(475.0):.1f} kHz")
    if args.asm:
        with open(args.asm, "w") as f:
            f.write(format_program(result.program))
        print(f"assembly           : {args.asm}")
    if args.binary:
        stream = serialize(result.program)
        with open(args.binary, "wb") as f:
            f.write(stream)
        print(f"binary             : {args.binary} ({len(stream)} bytes)")
    return 0


def cmd_run(args) -> int:
    """Compile and execute on the cycle-accurate machine model,
    optionally in crash-safe checkpointed chunks (``repro.checkpoint``)."""
    import json
    import os
    import time

    from . import checkpoint as ckpt
    from .compiler.driver import compile_circuit
    from .machine.waveform import WaveformCollector, trace_map_for

    if args.design:
        from .designs import DESIGNS
        info = DESIGNS[args.design]
        circuit = info.build()
        cycles = args.cycles or info.cycles + 300
    elif args.file:
        circuit = _load_circuit(args.file)
        cycles = args.cycles or 1_000_000
    else:
        print("repro run: need FILE.v or --design NAME", file=sys.stderr)
        return 2
    config = _grid_config(args)
    result = compile_circuit(circuit, _compiler_options(args))

    if args.batch:
        return _run_batch(args, result, config, cycles)

    store = None
    if args.checkpoint_dir:
        store = ckpt.CheckpointStore(args.checkpoint_dir,
                                     keep=args.checkpoint_keep)
    elif args.checkpoint_every or args.resume:
        print("repro run: --checkpoint-every/--resume need "
              "--checkpoint-dir", file=sys.stderr)
        return 2

    probes = None
    if args.vcd:
        names = args.trace.split(",") if args.trace else None
        probes = trace_map_for(result, names=names)
    hooks: dict = {}

    def on_start(machine, resumed):
        if probes is None:
            return
        if resumed and os.path.exists(args.vcd):
            # Continue the interrupted dump: prime the change detector
            # with the restored values, append body-only later.
            hooks["collector"] = WaveformCollector.resumed_from(
                machine, probes)
        else:
            collector = WaveformCollector(machine, probes)
            collector.sample()  # initial values
            hooks["collector"] = collector

    def on_vcycle(machine):
        collector = hooks.get("collector")
        if collector is not None:
            collector.sample()
        if args.throttle:
            time.sleep(args.throttle)

    run = ckpt.run_with_checkpoints(
        result.program, cycles, config=config, engine=args.engine,
        store=store, checkpoint_every=args.checkpoint_every,
        resume=args.resume, on_start=on_start, on_vcycle=on_vcycle)
    mres = run.result

    for bad in run.rejected:
        print(f"-- discarded snapshot {bad.path.name}: {bad.reason}",
              file=sys.stderr)
    if args.resume:
        if run.resumed_from is not None:
            print(f"-- resumed from {run.resumed_path.name} at "
                  f"Vcycle {run.resumed_from}", file=sys.stderr)
        else:
            print("-- no usable snapshot; started fresh", file=sys.stderr)
    if run.published:
        print(f"-- published {len(run.published)} snapshot(s), newest "
              f"{run.published[-1].name}", file=sys.stderr)

    collector = hooks.get("collector")
    if collector is not None:
        mode = "a" if collector.resumed else "w"
        with open(args.vcd, mode) as f:
            collector.write_vcd(f, header=not collector.resumed)
        print(f"-- wrote {len(probes)} signals to {args.vcd}"
              + (" (appended)" if collector.resumed else ""),
              file=sys.stderr)

    c = mres.counters
    if args.json:
        print(json.dumps({
            "design": args.design or args.file,
            "engine": args.engine,
            "vcycles": mres.vcycles,
            "finished": mres.finished,
            "displays": mres.displays,
            "counters": c.as_dict(),
            "cache": mres.cache.as_dict(),
            "resumed_from": run.resumed_from,
        }, indent=2, sort_keys=True))
    else:
        for line in mres.displays:
            print(line)
    print(f"-- {mres.vcycles} Vcycles, {c.total_cycles} machine cycles "
          f"({c.stall_cycles} stalled), "
          f"rate @475MHz = {mres.simulation_rate_khz(475.0):.1f} kHz",
          file=sys.stderr)
    return 0


def _run_batch(args, result, config, cycles) -> int:
    """``repro run --batch N``: N identical lanes of one compiled design
    advanced in lockstep (``repro.machine.batch``)."""
    import json
    import time

    from .machine.batch import BatchRunner

    incompatible = [flag for flag, on in [
        ("--vcd", args.vcd), ("--checkpoint-dir", args.checkpoint_dir),
        ("--checkpoint-every", args.checkpoint_every),
        ("--resume", args.resume), ("--throttle", args.throttle),
    ] if on]
    if incompatible:
        print(f"repro run: --batch is incompatible with "
              f"{', '.join(incompatible)}", file=sys.stderr)
        return 2

    runner = BatchRunner(result.program, config, width=args.batch,
                         engine=args.engine, lowering=args.batch_lowering)
    start = time.perf_counter()
    outs = runner.run(cycles)
    elapsed = time.perf_counter() - start

    if args.json:
        lanes = []
        for lane, out in enumerate(outs):
            if runner.errors[lane] is not None:
                lanes.append({"lane": lane, "error": runner.errors[lane]})
            else:
                lanes.append({
                    "lane": lane, "vcycles": out.vcycles,
                    "finished": out.finished, "displays": out.displays,
                    "counters": out.counters.as_dict(),
                })
        print(json.dumps({
            "design": args.design or args.file,
            "engine": args.engine,
            "batch_width": args.batch,
            "lowering": runner.lowering_used,
            "lanes": lanes,
        }, indent=2, sort_keys=True))
    else:
        for lane, out in enumerate(outs):
            if runner.errors[lane] is not None:
                print(f"[lane {lane}] ERROR: {runner.errors[lane]}")
                continue
            for line in out.displays:
                print(f"[lane {lane}] {line}")
    total_vcycles = sum(out.vcycles for out in outs)
    print(f"-- {args.batch} lanes "
          f"(lowering={runner.lowering_used or 'serial fallback'}), "
          f"{total_vcycles} lane-Vcycles in {elapsed:.2f}s "
          f"({total_vcycles / max(elapsed, 1e-9):.0f} lane-Vcycles/s)",
          file=sys.stderr)
    return 0


def cmd_designs(_args) -> int:
    """List the built-in benchmark designs."""
    from .designs import DESIGNS
    for name, info in DESIGNS.items():
        print(f"{name:8s} {info.description}")
    return 0


def cmd_design(args) -> int:
    """Golden-run one benchmark design by name."""
    from .designs import DESIGNS
    from .netlist.interp import run_circuit
    info = DESIGNS[args.name]
    result = run_circuit(info.build(), args.cycles or info.cycles + 300)
    for line in result.displays:
        print(line)
    print(f"-- {result.cycles} cycles", file=sys.stderr)
    return 0


def cmd_disasm(args) -> int:
    """Disassemble a bootloader binary back to assembly."""
    from .isa.asm import format_program
    from .machine.boot import deserialize
    with open(args.file, "rb") as f:
        program = deserialize(f.read())
    print(f"// {program.name}: grid {program.grid[0]}x{program.grid[1]}, "
          f"VCPL {program.vcpl}")
    print(format_program(program))
    return 0


def _parse_seed_range(spec: str) -> range:
    """``"A:B"`` -> ``range(A, B)``; a bare ``"N"`` -> ``range(N, N+1)``."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return range(int(lo), int(hi))
    n = int(spec)
    return range(n, n + 1)


def _fuzz_params(args):
    from .fuzz.generator import GeneratorParams
    overrides = {}
    if args.n_ops is not None:
        overrides["n_ops"] = args.n_ops
    if args.n_regs is not None:
        overrides["n_regs"] = args.n_regs
    if args.max_width is not None:
        overrides["max_width"] = args.max_width
    return GeneratorParams().scaled(**overrides)


def _fuzz_report_divergence(args, report, params) -> str:
    """Shrink + record one failing seed; returns the corpus file path."""
    from .fuzz.corpus import CorpusEntry, save_entry
    from .fuzz.generator import generate
    from .fuzz.shrink import oracle_predicate, shrink

    budget = args.cycles if args.cycles is not None else params.cycles + 8
    first = report.divergences[0]
    circuit = generate(report.seed, params)
    divergence = first
    if not args.no_shrink:
        predicate = oracle_predicate(first.oracle, budget)
        result = shrink(circuit, predicate)
        print(f"  {result.summary()}", file=sys.stderr)
        circuit, divergence = result.circuit, result.divergence
    entry = CorpusEntry(
        circuit=circuit, cycles=budget, seed=report.seed, params=params,
        matrix=args.matrix or "quick", oracle=divergence.oracle,
        divergence=divergence,
        note=f"found by repro fuzz, seed {report.seed}")
    path = save_entry(entry, args.corpus_dir)
    print(f"  repro: {entry.replay_command(path)}", file=sys.stderr)
    return path


def _fuzz_replay(args) -> int:
    """Replay corpus files; exit 0 iff every recorded outcome reproduces."""
    from .fuzz.corpus import load_entry, replay_entry
    failures = 0
    for path in args.replay:
        entry = load_entry(path)
        _, divergences = replay_entry(entry, matrix=args.matrix)
        want = entry.divergence
        if divergences:
            print(f"{path}: {divergences[0].describe()}")
        else:
            print(f"{path}: clean "
                  f"({'as recorded' if want is None else 'UNEXPECTED'})")
        reproduced = (bool(divergences) == (want is not None))
        if want is not None and divergences and args.matrix is None:
            reproduced = (divergences[0].cycle == want.cycle
                          and divergences[0].signal == want.signal)
        if not reproduced:
            failures += 1
            print(f"{path}: recorded outcome did NOT reproduce",
                  file=sys.stderr)
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing: hunt seeds, shrink and record divergences."""
    import time

    from .fuzz.oracle import MATRICES, ORACLES, fuzz_seed

    if args.list_oracles:
        for name, spec in ORACLES.items():
            print(f"{name:28s} {spec.describe()}")
        for name, members in MATRICES.items():
            print(f"matrix {name:21s} {', '.join(members)}")
        return 0
    if args.replay:
        return _fuzz_replay(args)
    if args.batch_width:
        return _fuzz_batch(args)

    params = _fuzz_params(args)
    matrix = args.matrix or "quick"
    seeds = _parse_seed_range(args.seeds)
    deadline = (time.monotonic() + args.time_budget
                if args.time_budget else None)
    failures = []
    tested = 0

    def handle(report):
        nonlocal tested
        tested += 1
        if report.ok:
            if args.verbose:
                print(f"seed {report.seed}: ok "
                      f"({report.elapsed:.2f}s)", file=sys.stderr)
            return
        print(f"seed {report.seed}: {report.divergences[0].describe()}")
        failures.append(_fuzz_report_divergence(args, report, params))

    if args.jobs > 1:
        import concurrent.futures as cf
        from functools import partial
        work = partial(fuzz_seed, params=params, matrix=matrix,
                       cycles=args.cycles)
        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(work, seed) for seed in seeds]
            for future in futures:
                if deadline is not None and time.monotonic() > deadline:
                    for f in futures:
                        f.cancel()
                    break
                handle(future.result())
    else:
        for seed in seeds:
            if deadline is not None and time.monotonic() > deadline:
                break
            handle(fuzz_seed(seed, params=params, matrix=matrix,
                             cycles=args.cycles))

    print(f"-- fuzzed {tested} seeds against [{matrix}]: "
          f"{len(failures)} divergence(s)"
          + (f", corpus in {args.corpus_dir}" if failures else ""),
          file=sys.stderr)
    return 1 if failures else 0


def _fuzz_batch(args) -> int:
    """``repro fuzz --batch-width B``: each seed compiled once and run as
    B stimulus lanes in lockstep, every lane checked against its own
    golden (``repro.fuzz.oracle.fuzz_seed_batch``)."""
    import time

    from .fuzz.oracle import fuzz_seed_batch

    params = _fuzz_params(args)
    seeds = _parse_seed_range(args.seeds)
    deadline = (time.monotonic() + args.time_budget
                if args.time_budget else None)
    failures = 0
    tested = lanes = 0
    start = time.perf_counter()
    for seed in seeds:
        if deadline is not None and time.monotonic() > deadline:
            break
        report = fuzz_seed_batch(seed, width=args.batch_width,
                                 params=params, cycles=args.cycles,
                                 lowering=args.batch_lowering)
        tested += 1
        lanes += report.width
        if report.ok:
            if args.verbose:
                print(f"seed {report.seed}: ok x{report.width} lanes "
                      f"({report.elapsed:.2f}s, "
                      f"lowering={report.lowering or 'serial fallback'}"
                      + (", rebind fallback" if report.rebind_fallback
                         else "") + ")",
                      file=sys.stderr)
            continue
        failures += 1
        for div in report.divergences:
            print(f"seed {report.seed}: {div.describe()}")
        # Batched lanes are init-variants of the seed circuit; replay
        # scalar-style with `repro fuzz --seeds SEED` to shrink.
    elapsed = time.perf_counter() - start
    print(f"-- batch-fuzzed {tested} seeds x {args.batch_width} lanes: "
          f"{failures} diverging seed(s), "
          f"{lanes / max(elapsed, 1e-9):.2f} lane-seeds/s",
          file=sys.stderr)
    return 1 if failures else 0


def cmd_profile(args) -> int:
    """Profile one design: compile with span tracing, run with profiling
    counters, and render the bottleneck report (``repro.obs``)."""
    import json

    from .obs import profile_circuit

    if args.design:
        from .designs import DESIGNS
        info = DESIGNS[args.design]
        circuit = info.build()
        cycles = args.cycles or info.cycles + 300
        name = args.design
    else:
        circuit = _load_circuit(args.file)
        cycles = args.cycles or 1_000_000
        name = None

    run = profile_circuit(circuit, name=name, engine=args.engine,
                          options=_compiler_options(args),
                          max_vcycles=cycles)
    profile = run.profile
    if args.json:
        with open(args.json, "w") as f:
            json.dump(profile, f, indent=2)
        print(f"-- profile JSON: {args.json}", file=sys.stderr)
    if args.trace_out:
        with open(args.trace_out, "w") as f:
            json.dump(run.trace_json, f, indent=2)
        print(f"-- Chrome trace: {args.trace_out} "
              f"(load via chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w") as f:
            f.write(run.prometheus)
        print(f"-- Prometheus textfile: {args.metrics}", file=sys.stderr)
    if not args.quiet:
        print(run.render())
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant simulation service on a unix socket
    (``repro.serve``); stops on ``repro submit --shutdown`` or Ctrl-C,
    writing the Prometheus metrics textfile on the way out."""
    import asyncio
    import os

    from .machine.config import MachineConfig
    from .serve import SimulationServer, serve_unix

    config = MachineConfig(grid_x=args.grid[0], grid_y=args.grid[1])
    cache_dir = None
    if not args.no_cache:
        from .compiler.cache import default_cache_dir
        cache_dir = args.cache_dir or str(default_cache_dir())

    async def main() -> None:
        server = SimulationServer(
            workers=args.workers, mode=args.mode, config=config,
            engine_default=args.engine, cache_dir=cache_dir,
            checkpoint_every=args.checkpoint_every,
            chunk_vcycles=args.chunk_vcycles,
            preempt_grain=args.preempt_grain, retries=args.retries)
        await server.start()
        sock = await serve_unix(server, args.socket)
        print(f"-- serving on {args.socket} ({args.workers} "
              f"{args.mode} worker(s), engine={args.engine})",
              file=sys.stderr)
        try:
            await server.shutdown_event.wait()
        finally:
            sock.close()
            await sock.wait_closed()
            if args.metrics_out:
                with open(args.metrics_out, "w") as f:
                    f.write(server.prometheus())
                print(f"-- metrics textfile: {args.metrics_out}",
                      file=sys.stderr)
            snapshot = server.metrics_snapshot()
            await server.close()
            jobs = snapshot["jobs"]
            print(f"-- served {jobs['submitted']} job(s): "
                  f"{jobs['completed']} done, {jobs['failed']} failed, "
                  f"{jobs['preempted']} preemption(s), compile hit rate "
                  f"{snapshot['compile']['hit_rate']:.0%}",
                  file=sys.stderr)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("-- interrupted", file=sys.stderr)
    finally:
        if os.path.exists(args.socket):
            os.unlink(args.socket)
    return 0


def cmd_submit(args) -> int:
    """Client for a running ``repro serve``."""
    import json

    from .serve import ServeClient, plan_load, run_load

    with ServeClient(args.socket, connect_timeout=args.connect_timeout) \
            as client:
        if args.shutdown:
            client.shutdown()
            print("-- shutdown requested", file=sys.stderr)
            return 0
        if args.load:
            plan = plan_load(args.load, zipf_s=args.zipf,
                             tenants=args.tenants, seed=args.seed,
                             engine=args.engine)
            summary = run_load(client, plan,
                               preempt_one=args.preempt_one,
                               wait=args.wait, timeout=args.timeout)
            failed = [j for j in summary["jobs"]
                      if j["state"] != "done"]
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                metrics = summary["metrics"]
                print(f"-- {summary['submitted']} submitted, "
                      f"{len(failed)} not done, compile hit rate "
                      f"{metrics['compile']['hit_rate']:.0%}, p50 "
                      f"{metrics['latency']['p50_s']:.3f}s p99 "
                      f"{metrics['latency']['p99_s']:.3f}s",
                      file=sys.stderr)
            return 1 if (args.wait and failed) else 0
        if not args.design:
            print("repro submit: need --design, --load, or --shutdown",
                  file=sys.stderr)
            return 2
        job_id = client.submit(args.design, tenant=args.tenant,
                               cycles=args.cycles, engine=args.engine,
                               priority=args.priority)
        if not args.wait:
            print(job_id)
            return 0
        job = client.wait(job_id, timeout=args.timeout)
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        elif job["result"]:
            for line in job["result"]["displays"]:
                print(line)
        print(f"-- job {job_id} [{job['tenant']}] {job['state']}: "
              f"{job['progress']} Vcycles, "
              f"{job['preemptions']} preemption(s), cache "
              f"{(job['cache'] or {}).get('status', '?')}",
              file=sys.stderr)
        return 0 if job["state"] == "done" else 1


def _workload_grid(values: list[str]) -> tuple[int, int]:
    """``["15x15"]`` or ``["15", "15"]`` -> ``(15, 15)``."""
    from .workloads.registry import parse_grid
    if len(values) == 1:
        return parse_grid(values[0])
    return (int(values[0]), int(values[1]))


def cmd_workloads(args) -> int:
    """Named-workload registry: list, run, verify, bench, pin."""
    import json

    from .workloads import (DEFAULT_GRID, WorkloadError, load_workloads,
                            pin_workloads, run_workload, verify_workload)
    from .workloads.bench import bench_row, default_scale, verify_registry
    from .workloads.registry import grid_key, save_workloads

    def progress(msg):
        print(f"-- {msg}", file=sys.stderr)

    try:
        workloads = load_workloads()
        if args.action == "list":
            for w in workloads.values():
                grids = ",".join(sorted(w.digests)) or "-"
                print(f"{w.name:16s} {w.kind:8s} {w.cycles:6d} cyc  "
                      f"pinned@{grids:8s} {w.description}")
            return 0

        grid = _workload_grid(args.grid) if args.grid else DEFAULT_GRID
        if args.action == "run":
            if args.name not in workloads:
                print(f"repro workloads: unknown workload {args.name!r}",
                      file=sys.stderr)
                return 2
            run = run_workload(workloads[args.name], grid, args.engine)
            print(f"{run.workload} @ {grid_key(grid)} [{run.engine}]: "
                  f"{run.vcycles} Vcycles, finished={run.finished}, "
                  f"digest {run.digest[:16]} "
                  f"(pin={'n/a' if run.digest_ok is None else run.digest_ok},"
                  f" fingerprint="
                  f"{'n/a' if run.fingerprint_ok is None else run.fingerprint_ok})")
            return 0 if run.ok else 1

        if args.action == "verify":
            names = args.names or list(workloads)
            for name in names:
                if name not in workloads:
                    print(f"repro workloads: unknown workload {name!r}",
                          file=sys.stderr)
                    return 2
                runs = verify_workload(workloads[name], grid,
                                       tuple(args.engines.split(",")))
                print(f"{name:16s} ok: "
                      + ", ".join(f"{r.engine}={r.digest[:12]}"
                                  for r in runs))
            return 0

        if args.action == "bench":
            scale = args.scale or default_scale(grid)
            row = bench_row(grid, scale, tuple(args.engines.split(",")),
                            progress=progress)
            if grid == DEFAULT_GRID and not args.no_registry:
                row["registry"] = verify_registry(grid, progress=progress)
            if args.json:
                print(json.dumps(row, indent=2, sort_keys=True))
            else:
                for name, d in row["designs"].items():
                    rates = " ".join(
                        f"{e}={v['vcycles_per_s']:.0f}/s"
                        for e, v in d["engines"].items())
                    print(f"{name:8s} {d['ops']:6d} ops  "
                          f"{d['vcycles']:5d} Vcycles  "
                          f"compile {d['compile_s']:6.1f}s  {rates}")
                print(f"-- {row['grid']}/{row['scale']}: all digests "
                      f"agree across {', '.join(row['engines'])}")
            return 0

        if args.action == "pin":
            grids = (tuple(_workload_grid([g]) for g in args.grids)
                     if args.grids else (DEFAULT_GRID,))
            pinned = pin_workloads(workloads, grids)
            changed = [n for n in pinned
                       if pinned[n] != workloads[n]]
            path = save_workloads(pinned)
            print(f"-- pinned {len(pinned)} workloads "
                  f"({len(changed)} changed) -> {path}", file=sys.stderr)
            for n in changed:
                print(f"   {n}")
            return 0
    except WorkloadError as exc:
        print(f"repro workloads: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    # Engine and matrix choices come from the live registries so a new
    # engine tier or oracle preset shows up here without a CLI edit.
    from .fuzz.oracle import MATRICES
    from .machine import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Manticore (ASPLOS 2023) reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--grid", nargs=2, type=int, default=[4, 4],
                       metavar=("X", "Y"), help="Manticore grid size")

    def add_compile_flags(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the parallel compiler "
                            "phases (1 = serial, -1 = one per CPU; the "
                            "output is bit-identical either way)")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="compile-cache directory (default: "
                            "$REPRO_COMPILE_CACHE or ~/.cache/"
                            "repro-compile)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed compile cache")

    p = sub.add_parser("simulate", help="golden-interpreter simulation")
    p.add_argument("file")
    p.add_argument("--cycles", type=int, default=1_000_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compile", help="compile for Manticore")
    p.add_argument("file")
    add_grid(p)
    add_compile_flags(p)
    p.add_argument("--asm", help="write assembly listing")
    p.add_argument("--binary", help="write bootloader binary")
    p.add_argument("--json", action="store_true",
                   help="print the compile report as JSON")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and run on the machine model")
    p.add_argument("file", nargs="?",
                   help="Verilog file (or use --design)")
    p.add_argument("--design", metavar="NAME",
                   help="run a built-in benchmark design instead of a file")
    add_grid(p)
    add_compile_flags(p)
    p.add_argument("--cycles", "--max-vcycles", dest="cycles", type=int,
                   help="Vcycle budget (default: the design's cycle count "
                        "+ 300, or 1000000 for files)")
    p.add_argument("--engine", default="strict", choices=list(ENGINES),
                   help="machine execution engine (default: strict)")
    p.add_argument("--batch", type=int, default=0, metavar="N",
                   help="run N identical lanes of the design in lockstep "
                        "(batched kernel on the codegen engine; "
                        "incompatible with --vcd/--checkpoint-*/--resume)")
    p.add_argument("--batch-lowering", default="auto",
                   choices=["auto", "list", "numpy"],
                   help="batched-kernel vector lowering (default: auto = "
                        "numpy at wide batches when available)")
    p.add_argument("--vcd", help="write a VCD waveform (on --resume, "
                                 "appends to an existing dump)")
    p.add_argument("--trace", help="comma-separated register prefixes")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="snapshot directory for crash-safe long runs")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="publish a snapshot every K completed Vcycles")
    p.add_argument("--checkpoint-keep", type=int, default=3, metavar="N",
                   help="snapshot generations to retain (default: 3)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the newest valid snapshot in "
                        "--checkpoint-dir (torn/mismatched snapshots are "
                        "discarded with a report)")
    p.add_argument("--json", action="store_true",
                   help="print the run result (Vcycles, displays, "
                        "counters, cache) as JSON")
    p.add_argument("--throttle", type=float, default=0.0,
                   metavar="SECONDS",
                   help="sleep after every Vcycle (testing aid: makes "
                        "kill-and-resume windows deterministic)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("designs", help="list benchmark designs")
    p.set_defaults(func=cmd_designs)

    p = sub.add_parser("design", help="golden-run a benchmark design")
    p.add_argument("name")
    p.add_argument("--cycles", type=int)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("disasm", help="disassemble a program binary")
    p.add_argument("file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser(
        "workloads",
        help="named-workload registry with pinned state digests")
    wsub = p.add_subparsers(dest="action", required=True)

    def add_wgrid(wp, default_help="workload grid (default: the pin "
                                   "grid, 8x8); accepts '15x15' or "
                                   "'15 15'"):
        wp.add_argument("--grid", nargs="+", metavar="G",
                        help=default_help)

    wp = wsub.add_parser("list", help="list registered workloads")
    wp.set_defaults(func=cmd_workloads)

    wp = wsub.add_parser("run", help="compile+run one workload, "
                                     "checking its pinned digest")
    wp.add_argument("name")
    add_wgrid(wp)
    wp.add_argument("--engine", default="fast", choices=list(ENGINES))
    wp.set_defaults(func=cmd_workloads)

    wp = wsub.add_parser(
        "verify", help="run workloads on several engines; digests must "
                       "agree and match the pins")
    wp.add_argument("names", nargs="*",
                    help="workload names (default: all)")
    add_wgrid(wp)
    wp.add_argument("--engines", default="strict,fast,codegen",
                    help="comma-separated engine list")
    wp.set_defaults(func=cmd_workloads)

    wp = wsub.add_parser(
        "bench", help="bench all design families at one grid/scale "
                      "operating point (digest-checked)")
    add_wgrid(wp)
    wp.add_argument("--scale", choices=["small", "paper", "stretch"],
                    help="design scale tier (default: inferred from "
                         "the grid)")
    wp.add_argument("--engines", default="strict,fast,codegen",
                    help="comma-separated engine list")
    wp.add_argument("--no-registry", action="store_true",
                    help="skip the registry pin sweep on the pin grid")
    wp.add_argument("--json", action="store_true",
                    help="print the bench row as JSON")
    wp.set_defaults(func=cmd_workloads)

    wp = wsub.add_parser(
        "pin", help="recompute and save pinned fingerprints/digests "
                    "(after a deliberate toolchain change)")
    wp.add_argument("--grids", nargs="+", metavar="G",
                    help="grids to pin (default: 8x8)")
    wp.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "fuzz", help="differential fuzzing against an oracle matrix")
    p.add_argument("--seeds", default="0:50", metavar="A:B",
                   help="seed range to hunt (half-open; default 0:50)")
    p.add_argument("--time-budget", type=float, metavar="SECONDS",
                   help="stop hunting after this many seconds")
    p.add_argument("--matrix",
                   help=f"oracle matrix: a preset "
                        f"({'/'.join(sorted(MATRICES))}) or a "
                        f"comma-separated oracle list (default: quick; in "
                        f"--replay mode, default: the recorded oracle)")
    p.add_argument("--corpus-dir", default="fuzz-corpus", metavar="DIR",
                   help="where shrunk repros are written (default: "
                        "fuzz-corpus)")
    p.add_argument("--replay", nargs="+", metavar="FILE",
                   help="replay corpus files instead of hunting; exits "
                        "non-zero unless every recorded outcome reproduces")
    p.add_argument("--jobs", type=int, default=1,
                   help="fuzz seeds in parallel worker processes")
    p.add_argument("--cycles", type=int,
                   help="simulation cycle budget per seed (default: "
                        "generator cycles + 8)")
    p.add_argument("--n-ops", type=int, help="generator: ops per circuit")
    p.add_argument("--n-regs", type=int, help="generator: register count")
    p.add_argument("--max-width", type=int,
                   help="generator: maximum wire width")
    p.add_argument("--batch-width", type=int, default=0, metavar="B",
                   help="batched mode: compile each seed once and run B "
                        "init-variant lanes in lockstep, each lane "
                        "checked against its own golden (serial; ignores "
                        "--matrix/--jobs)")
    p.add_argument("--batch-lowering", default="auto",
                   choices=["auto", "list", "numpy"],
                   help="batched-kernel vector lowering (default: auto)")
    p.add_argument("--no-shrink", action="store_true",
                   help="record failing circuits without minimizing them")
    p.add_argument("--list-oracles", action="store_true",
                   help="list known oracles and matrices, then exit")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="report every seed, not just failures")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "profile",
        help="profile a design: bottleneck report + trace exports")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", metavar="NAME",
                     help="profile a built-in benchmark design")
    src.add_argument("--file", metavar="FILE.v",
                     help="profile a Verilog file")
    p.add_argument("--engine", default="fast", choices=list(ENGINES),
                   help="machine execution engine (default: fast)")
    p.add_argument("--cycles", type=int,
                   help="Vcycle budget (default: the design's driver-"
                        "complete cycle count + 300, or 1000000 for files)")
    add_grid(p)
    add_compile_flags(p)
    p.add_argument("--json", metavar="FILE",
                   help="write the profile export (docs/profile.schema."
                        "json) as JSON")
    p.add_argument("--trace", dest="trace_out", metavar="FILE",
                   help="write compile/run spans as Chrome trace_event "
                        "JSON")
    p.add_argument("--metrics", metavar="FILE",
                   help="write flat metrics as a Prometheus textfile")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress the terminal report (exports only)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve",
        help="multi-tenant job server on a unix socket (repro.serve)")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket path to listen on")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job slots (default: 2)")
    p.add_argument("--mode", default="thread",
                   choices=["thread", "process"],
                   help="job execution backend: thread (in-process) or "
                        "process (leased pool workers, fault-isolated; "
                        "default: thread)")
    p.add_argument("--engine", default="fast", choices=list(ENGINES),
                   help="default engine for submissions (default: fast)")
    add_grid(p)
    p.add_argument("--cache-dir", metavar="DIR",
                   help="compile-cache directory (default: "
                        "$REPRO_COMPILE_CACHE or ~/.cache/repro-compile)")
    p.add_argument("--no-cache", action="store_true",
                   help="use a private throwaway compile cache")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="snapshot running jobs every K Vcycles "
                        "(0 = only at preemption handoffs)")
    p.add_argument("--chunk-vcycles", type=int, default=256, metavar="N",
                   help="process mode: Vcycles per worker dispatch "
                        "(default: 256)")
    p.add_argument("--preempt-grain", type=int, default=16, metavar="G",
                   help="checking engines: events between preemption "
                        "polls, enabling mid-Vcycle handoff (default: 16)")
    p.add_argument("--retries", type=int, default=1,
                   help="snapshot-resume retries after a lost worker "
                        "(default: 1)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the Prometheus metrics textfile at "
                        "shutdown")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="client for a running `repro serve`")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket of the server")
    p.add_argument("--design", metavar="NAME",
                   help="submit one built-in design")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=1,
                   help="fair-share weight; higher may preempt lower "
                        "(default: 1)")
    p.add_argument("--cycles", type=int,
                   help="Vcycle budget (default: design cycles + 300)")
    p.add_argument("--engine", choices=list(ENGINES),
                   help="engine override (default: the server's)")
    p.add_argument("--load", type=int, default=0, metavar="N",
                   help="replay a deterministic zipfian plan of N jobs "
                        "instead of one submission")
    p.add_argument("--zipf", type=float, default=1.1, metavar="S",
                   help="zipf skew of the load plan (default: 1.1)")
    p.add_argument("--tenants", type=int, default=4,
                   help="tenant count for the load plan (default: 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="load plan RNG seed (default: 0)")
    p.add_argument("--preempt-one", action="store_true",
                   help="force one preemption round trip on the first "
                        "load-plan job")
    p.add_argument("--wait", action="store_true",
                   help="block until submitted job(s) are terminal")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="per-job wait timeout in seconds (default: 600)")
    p.add_argument("--connect-timeout", type=float, default=10.0,
                   help="seconds to retry connecting (default: 10)")
    p.add_argument("--json", action="store_true",
                   help="print results as JSON")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to shut down")
    p.set_defaults(func=cmd_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
