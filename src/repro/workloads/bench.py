"""Scale-trajectory benchmark over the workload registry.

One *row* of the trajectory is a (grid, scale tier) operating point:
all nine design families are built at that tier, compiled for that
grid, and machine-run to ``$finish`` on every row engine; the
engine-independent :func:`~repro.serve.jobs.state_digest` must agree
across the row's engines for every design.  CI walks the machine from
today's CI grid to the paper's 225-core machine and a forward-looking
32x32 point, one ``repro workloads bench --grid G`` row each, on
strict, fast and codegen::

    8x8 / small      (plus the registry pin sweep)
    15x15 / paper    (the paper's machine)
    32x32 / stretch  (1024 cores; a codegen kernel builds in seconds)
"""

from __future__ import annotations

import time
from typing import Iterable

from ..machine.config import MachineConfig
from ..machine.grid import Machine
from ..serve.jobs import state_digest
from .registry import (DEFAULT_GRID, Workload, WorkloadError, grid_key,
                       load_workloads, run_workload)

#: Scale tier implied by a grid when the caller does not pick one.
SCALE_FOR_GRID = {(8, 8): "small", (15, 15): "paper", (32, 32): "stretch"}


def default_scale(grid: tuple[int, int]) -> str:
    return SCALE_FOR_GRID.get(grid, "paper")


def bench_row(grid: tuple[int, int], scale: str,
              engines: Iterable[str] = ("strict", "fast", "codegen"),
              designs: Iterable[str] | None = None,
              progress=None) -> dict:
    """Bench all design families at one (grid, scale) operating point.

    Every design must finish within its tier budget and digest
    identically on every engine; violations raise
    :class:`WorkloadError` (the bench is also a correctness gate).
    """
    from ..compiler.driver import CompilerOptions, compile_circuit
    from ..designs import DESIGNS
    engines = tuple(engines)
    config = MachineConfig(grid_x=grid[0], grid_y=grid[1])
    chosen = tuple(designs) if designs else tuple(DESIGNS)
    rows: dict[str, dict] = {}
    for name in chosen:
        info = DESIGNS[name]
        circuit = info.build_at(scale)
        budget = info.cycles_at(scale)
        t0 = time.perf_counter()
        compiled = compile_circuit(circuit, CompilerOptions(config=config))
        compile_s = time.perf_counter() - t0
        per_engine: dict[str, dict] = {}
        digests: dict[str, str] = {}
        vcycles = None
        for engine in engines:
            machine = Machine(compiled.program, config, engine=engine)
            t0 = time.perf_counter()
            result = machine.run(budget)
            run_s = time.perf_counter() - t0
            if not result.finished:
                raise WorkloadError(
                    f"{name}@{scale} did not finish within {budget} "
                    f"Vcycles on {engine} at {grid_key(grid)}")
            digests[engine] = state_digest(machine)
            vcycles = result.vcycles
            per_engine[engine] = {
                "run_s": round(run_s, 3),
                "vcycles_per_s": (round(result.vcycles / run_s, 1)
                                  if run_s > 0 else 0.0),
            }
        if len(set(digests.values())) != 1:
            detail = ", ".join(f"{e}={d[:12]}" for e, d in digests.items())
            raise WorkloadError(
                f"{name}@{scale}: engines disagree at {grid_key(grid)}: "
                f"{detail}")
        rows[name] = {
            "ops": len(circuit.ops),
            "budget": budget,
            "vcycles": vcycles,
            "compile_s": round(compile_s, 3),
            "state_digest": next(iter(digests.values())),
            "engines": per_engine,
        }
        if progress is not None:
            progress(f"{grid_key(grid)}/{scale} {name}: "
                     f"{rows[name]['ops']} ops, {vcycles} Vcycles, "
                     f"compile {compile_s:.1f}s")
    return {"grid": grid_key(grid), "scale": scale, "engines": engines,
            "designs": rows, "digests_agree": True}


def verify_registry(grid: tuple[int, int] = DEFAULT_GRID,
                    engine: str | None = None,
                    workloads: dict[str, Workload] | None = None,
                    progress=None) -> dict:
    """Run every registry entry once and check its pins.

    Returns a summary dict; raises :class:`WorkloadError` if any entry
    fails to finish or misses a pinned fingerprint/digest.
    """
    from .registry import PIN_ENGINE
    engine = engine or PIN_ENGINE
    workloads = workloads or load_workloads()
    entries: dict[str, dict] = {}
    for name, workload in workloads.items():
        run = run_workload(workload, grid, engine)
        if not run.ok:
            raise WorkloadError(
                f"registry entry {name} failed on {engine} at "
                f"{grid_key(grid)}: finished={run.finished} "
                f"digest_ok={run.digest_ok} "
                f"fingerprint_ok={run.fingerprint_ok}")
        entries[name] = {
            "kind": workload.kind,
            "vcycles": run.vcycles,
            "digest_ok": run.digest_ok,
            "fingerprint_ok": run.fingerprint_ok,
        }
        if progress is not None:
            progress(f"registry {name}: ok ({run.vcycles} Vcycles)")
    return {"grid": grid_key(grid), "engine": engine, "entries": entries,
            "all_ok": True}
