"""Workload manifest loading, execution, and digest pinning.

The manifest is data, not code: ``manifest.json`` sits next to this
module and ``repro workloads pin`` rewrites it, so promoting a new
workload or refreshing expectations after a deliberate toolchain change
is a reviewable one-file diff.  Digests are pinned with the ``codegen``
engine (:data:`PIN_ENGINE`) purely for speed - :func:`state_digest` is
engine-independent by construction, and ``verify``/CI cross-check the
pin against ``strict`` and ``fast`` runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Mapping

from ..machine.config import MachineConfig
from ..machine.grid import Machine
from ..netlist.ir import Circuit
from ..serve.jobs import state_digest
from ..store import write_atomic

#: Grid the manifest pins digests for (state_digest depends on the
#: placement, hence on the grid; other grids are cross-engine-checked
#: but not pinned).
DEFAULT_GRID = (8, 8)

#: Engine used to (re)compute pinned digests.
PIN_ENGINE = "codegen"

_KINDS = ("builtin", "verilog", "corpus")

#: Repository root (manifest-relative source paths resolve against it).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

_PKG_DIR = os.path.dirname(os.path.abspath(__file__))


class WorkloadError(RuntimeError):
    """A workload failed to load, build, or meet a pinned expectation."""


@dataclass(frozen=True)
class Workload:
    """One named entry of the workload registry."""

    name: str
    kind: str                     # "builtin" | "verilog" | "corpus"
    source: str                   # design@scale | repo-relative .v path
                                  # | corpus/<entry>.json
    cycles: int                   # driver-complete Vcycle budget
    description: str = ""
    wrap: int | None = None       # driver-wrapper cycles for ported tops
    fingerprint: str = ""         # pinned circuit content identity
    #: grid key ("8x8") -> pinned engine-independent state digest
    digests: Mapping[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind, "source": self.source,
             "cycles": self.cycles, "description": self.description,
             "fingerprint": self.fingerprint,
             "digests": dict(sorted(self.digests.items()))}
        if self.wrap is not None:
            d["wrap"] = self.wrap
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Workload":
        if d.get("kind") not in _KINDS:
            raise WorkloadError(
                f"workload {d.get('name')!r}: unknown kind "
                f"{d.get('kind')!r} (expected one of {', '.join(_KINDS)})")
        return cls(name=d["name"], kind=d["kind"], source=d["source"],
                   cycles=int(d["cycles"]),
                   description=d.get("description", ""),
                   wrap=d.get("wrap"),
                   fingerprint=d.get("fingerprint", ""),
                   digests=dict(d.get("digests", {})))


@dataclass
class WorkloadRun:
    """Outcome of one compiled machine execution of a workload."""

    workload: str
    grid: tuple[int, int]
    engine: str
    vcycles: int
    finished: bool
    digest: str
    fingerprint: str
    compile_s: float
    run_s: float
    #: pin check outcomes: True/False, or None when nothing is pinned
    #: for this aspect (unpinned grid, blank fingerprint).
    digest_ok: bool | None = None
    fingerprint_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return (self.finished and self.digest_ok is not False
                and self.fingerprint_ok is not False)


def manifest_path() -> str:
    return os.path.join(_PKG_DIR, "manifest.json")


def grid_key(grid: tuple[int, int]) -> str:
    return f"{grid[0]}x{grid[1]}"


def parse_grid(text: str) -> tuple[int, int]:
    """``"15x15"`` -> ``(15, 15)``."""
    try:
        x, _, y = text.partition("x")
        return (int(x), int(y))
    except ValueError:
        raise WorkloadError(f"bad grid {text!r} (expected e.g. 15x15)")


def load_workloads(path: str | None = None) -> dict[str, Workload]:
    """Load the manifest; returns name -> :class:`Workload` in manifest
    order."""
    path = path or manifest_path()
    with open(path) as f:
        data = json.load(f)
    if data.get("format") != "repro-workloads/v1":
        raise WorkloadError(
            f"unsupported manifest format {data.get('format')!r}")
    out: dict[str, Workload] = {}
    for entry in data["workloads"]:
        w = Workload.from_dict(entry)
        if w.name in out:
            raise WorkloadError(f"duplicate workload name {w.name!r}")
        out[w.name] = w
    return out


def save_workloads(workloads: dict[str, Workload],
                   path: str | None = None) -> str:
    path = path or manifest_path()
    blob = {"format": "repro-workloads/v1",
            "pin_engine": PIN_ENGINE,
            "pin_grid": grid_key(DEFAULT_GRID),
            "workloads": [w.as_dict() for w in workloads.values()]}
    text = json.dumps(blob, indent=1, sort_keys=False) + "\n"
    write_atomic(path, text.encode(), fsync=True)
    return path


def build_workload(workload: Workload) -> Circuit:
    """Construct the workload's circuit from its source reference."""
    if workload.kind == "builtin":
        from ..designs import DESIGNS
        design, _, scale = workload.source.partition("@")
        if design not in DESIGNS:
            raise WorkloadError(f"workload {workload.name!r}: unknown "
                                f"design {design!r}")
        return DESIGNS[design].build_at(scale or "small")
    if workload.kind == "verilog":
        from ..netlist.verilog import parse_verilog
        path = os.path.join(_REPO_ROOT, workload.source)
        if not os.path.exists(path):
            raise WorkloadError(f"workload {workload.name!r}: missing "
                                f"source file {workload.source!r}")
        with open(path) as f:
            return parse_verilog(f.read(), wrap=workload.wrap)
    if workload.kind == "corpus":
        from ..fuzz.corpus import load_entry
        path = os.path.join(_PKG_DIR, workload.source)
        if not os.path.exists(path):
            raise WorkloadError(f"workload {workload.name!r}: missing "
                                f"corpus entry {workload.source!r}")
        return load_entry(path).circuit
    raise WorkloadError(f"unknown workload kind {workload.kind!r}")


def run_workload(workload: Workload, grid: tuple[int, int] = DEFAULT_GRID,
                 engine: str = "fast",
                 circuit: Circuit | None = None) -> WorkloadRun:
    """Compile + machine-run a workload; digest the final state and
    check it against the manifest's pins (when this grid is pinned)."""
    from ..compiler.driver import CompilerOptions, compile_circuit
    circuit = circuit if circuit is not None else build_workload(workload)
    fingerprint = circuit.fingerprint()
    config = MachineConfig(grid_x=grid[0], grid_y=grid[1])
    t0 = time.perf_counter()
    compiled = compile_circuit(circuit, CompilerOptions(config=config))
    t1 = time.perf_counter()
    machine = Machine(compiled.program, config, engine=engine)
    result = machine.run(workload.cycles)
    t2 = time.perf_counter()
    digest = state_digest(machine)

    pinned = workload.digests.get(grid_key(grid))
    return WorkloadRun(
        workload=workload.name, grid=grid, engine=engine,
        vcycles=result.vcycles, finished=result.finished, digest=digest,
        fingerprint=fingerprint, compile_s=t1 - t0, run_s=t2 - t1,
        digest_ok=None if pinned is None else digest == pinned,
        fingerprint_ok=(None if not workload.fingerprint
                        else fingerprint == workload.fingerprint))


def verify_workload(workload: Workload,
                    grid: tuple[int, int] = DEFAULT_GRID,
                    engines: tuple[str, ...] = ("strict", "fast",
                                                "codegen"),
                    ) -> list[WorkloadRun]:
    """Run a workload on several engines; all runs must finish, agree
    on the digest, and match the pin.  Raises :class:`WorkloadError`
    on the first violation, returns the runs otherwise."""
    circuit = build_workload(workload)
    runs = [run_workload(workload, grid, engine, circuit=circuit)
            for engine in engines]
    for run in runs:
        if not run.finished:
            raise WorkloadError(
                f"{workload.name} did not finish within {workload.cycles} "
                f"Vcycles on {run.engine} at {grid_key(grid)}")
        if run.fingerprint_ok is False:
            raise WorkloadError(
                f"{workload.name}: circuit fingerprint drifted "
                f"(pinned {workload.fingerprint[:12]}, built "
                f"{run.fingerprint[:12]}); repin if intentional")
        if run.digest_ok is False:
            raise WorkloadError(
                f"{workload.name}: state digest mismatch on {run.engine} "
                f"at {grid_key(grid)} (pinned "
                f"{workload.digests[grid_key(grid)][:12]}, got "
                f"{run.digest[:12]}); repin if intentional")
    digests = {run.digest for run in runs}
    if len(digests) != 1:
        detail = ", ".join(f"{r.engine}={r.digest[:12]}" for r in runs)
        raise WorkloadError(
            f"{workload.name}: engines disagree at {grid_key(grid)}: "
            f"{detail}")
    return runs


def pin_workloads(workloads: dict[str, Workload],
                  grids: tuple[tuple[int, int], ...] = (DEFAULT_GRID,),
                  engine: str = PIN_ENGINE) -> dict[str, Workload]:
    """Recompute every workload's fingerprint and per-grid digests.

    Returns a new mapping; the caller decides whether to
    :func:`save_workloads` it (the CLI's ``pin`` does).
    """
    pinned: dict[str, Workload] = {}
    for name, workload in workloads.items():
        circuit = build_workload(workload)
        digests = dict(workload.digests)
        for grid in grids:
            run = run_workload(workload, grid, engine, circuit=circuit)
            if not run.finished:
                raise WorkloadError(
                    f"cannot pin {name}: did not finish within "
                    f"{workload.cycles} Vcycles at {grid_key(grid)}")
            digests[grid_key(grid)] = run.digest
        pinned[name] = replace(workload, fingerprint=circuit.fingerprint(),
                               digests=digests)
    return pinned
