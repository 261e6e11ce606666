"""Batched multi-run execution: B independent runs of one compiled
design, each on its own scalar machine.

Production traffic and fuzzing share a shape - many runs of the same
compiled artifact with different inputs.  :class:`BatchRunner` owns B
per-lane :class:`~repro.machine.grid.Machine` instances over (rebound
variants of) one program and runs them one after another.  The lanes
share one compile and one schedule record, so only the first lane of
a compiled engine runs strict verification Vcycles, and on
``engine="codegen"`` one kernel key (the key strips boot images), so
every lane after the first reuses the emitted kernel and, once the key
has run enough trusted Vcycles, the native C tier.

Semantics contract (enforced by ``tests/test_batch_equivalence.py``):
the observable state of every lane - displays, finish status, Vcycle
count, performance counters, cache stats, per-core registers and
scratchpads - is **bit-identical** to running that lane alone on the
same engine.  A lane that dies on a fatal exception (a failed
assertion) records the error string as its observable outcome; the
other lanes still run.
"""

from __future__ import annotations

import dataclasses
import re
from typing import TYPE_CHECKING

from ..isa.instructions import WORD_MASK, WORD_WIDTH
from ..isa.program import MachineProgram, SimulationFailure
from .grid import Machine, MachineResult, share_record

if TYPE_CHECKING:  # pragma: no cover
    from ..compiler.driver import CompileResult

_LIMB = re.compile(r"^(.*)#(\d+)$")

#: Largest accepted batch width.
MAX_BATCH_WIDTH = 1024


def rebind_reg_inits(result: "CompileResult",
                     overrides: dict[str, int]) -> MachineProgram:
    """A copy of ``result.program`` with named source registers booted
    to new values - the per-lane stimulus mechanism.

    Compilation is init-independent (the schedule, placement, and
    allocation never read boot values), so B stimuli of one design need
    one compile plus B cheap rebinds instead of B compiles.  This walks
    the register allocator's persistent-slot assignment exactly as
    ``repro.compiler.regalloc.allocate`` does and rewrites each core's
    ``reg_init`` image, patching every 16-bit limb (``name#i``) of every
    overridden register - including receive copies held by other cores,
    which share the source register's name.

    ``overrides`` maps *source-level* register names (e.g. ``"r3"``) to
    full-width integers; unknown names are ignored (a register can be
    optimized out of the schedule entirely).  Callers who need a hard
    guarantee compare ``boot.serialize`` output against a fresh compile
    of the variant circuit (``fuzz.oracle.fuzz_seed_batch`` does, with a
    per-lane fresh-compile fallback).

    The copy shares the program's schedule record
    (:func:`~repro.machine.grid.share_record`): its machines start
    trusted once any machine of the program verified, and reuse the
    program's kernel key.
    """
    if not overrides:
        return result.program
    from ..compiler.lir import Mov
    from ..compiler.regalloc import ZERO_CONST, _persistent_regs

    scheduled = result.scheduled
    program = result.program
    cores: dict[int, object] = {}
    for core_id, core in scheduled.cores.items():
        binary = program.cores[core_id]
        # Mirror of allocate()'s phase 1: the persistent-slot numbering.
        regs = sorted(_persistent_regs(scheduled, core_id), key=str)
        needs_zero = any(isinstance(instr, Mov) for _, instr in core.items)
        if needs_zero and ZERO_CONST not in regs:
            regs.append(ZERO_CONST)
        pmap = {reg: i for i, reg in enumerate(regs)}
        proc = scheduled.image.processes[core.pid]
        reg_init: dict[int, int] = {}
        for reg, value in proc.reg_init.items():
            if reg not in pmap:
                continue
            m = _LIMB.match(str(reg))
            if m and m.group(1) in overrides:
                limb = int(m.group(2))
                value = (overrides[m.group(1)] >> (WORD_WIDTH * limb)) \
                    & WORD_MASK
            reg_init[pmap[reg]] = value
        if ZERO_CONST in pmap:
            reg_init.setdefault(pmap[ZERO_CONST], 0)
        cores[core_id] = dataclasses.replace(binary, reg_init=reg_init)
    variant = dataclasses.replace(program, cores=cores)
    share_record(variant, program)
    return variant


class BatchRunner:
    """Compile once, run B independent lanes.

    ``programs`` is either one :class:`MachineProgram` (replicated
    ``width`` times - a throughput harness over identical stimuli) or a
    list of per-lane programs, typically :func:`rebind_reg_inits`
    variants of a single compile.
    """

    def __init__(self, programs, config=None, *, width: int | None = None,
                 engine: str = "codegen", exception_stall: int = 500) -> None:
        if isinstance(programs, MachineProgram):
            if width is None:
                raise ValueError(
                    "width is required when replicating one program")
            programs = [programs] * width
        else:
            programs = list(programs)
            if width is not None and width != len(programs):
                raise ValueError(
                    f"width {width} != {len(programs)} per-lane programs")
        if not 1 <= len(programs) <= MAX_BATCH_WIDTH:
            raise ValueError(
                f"batch width {len(programs)} out of range "
                f"[1, {MAX_BATCH_WIDTH}]")
        self.width = len(programs)
        self.engine = engine
        self.machines = [
            Machine(p, config, engine=engine,
                    exception_stall=exception_stall)
            for p in programs]
        #: Per-lane fatal-error strings (a lane that raised stops with
        #: this as its observable outcome), else None.
        self.errors: list[str | None] = [None] * self.width

    # ------------------------------------------------------------------
    def run(self, max_vcycles: int) -> list[MachineResult]:
        """Advance every lane to ``$finish``, a fatal error, or the
        Vcycle budget; returns per-lane results (error lanes get their
        machine's last-settled state - read :attr:`errors` first)."""
        for i, m in enumerate(self.machines):
            if m.finished or self.errors[i] is not None:
                continue
            try:
                m.run(max_vcycles)
            except SimulationFailure as exc:
                self.errors[i] = f"{type(exc).__name__}: {exc}"
        results = []
        for m in self.machines:
            m._sync_compiled()
            results.append(MachineResult(
                vcycles=m.counters.vcycles,
                finished=m.finished,
                displays=list(m.displays),
                counters=m.counters,
                cache=m.cache.stats,
            ))
        return results

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Snapshot the whole batch (valid between :meth:`run` calls,
        which always leave lanes flushed to architectural state)."""
        return {
            "version": 1,
            "width": self.width,
            "engine": self.engine,
            "errors": list(self.errors),
            "lanes": [m.checkpoint_state() for m in self.machines],
        }

    def load_checkpoint_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported batch checkpoint version "
                f"{state.get('version')!r}")
        if state["width"] != self.width or state["engine"] != self.engine:
            raise ValueError(
                f"checkpoint is for width={state['width']} "
                f"engine={state['engine']}, runner has "
                f"width={self.width} engine={self.engine}")
        self.errors = list(state["errors"])
        for m, lane_state in zip(self.machines, state["lanes"]):
            m.load_checkpoint_state(lane_state)


def run_batch(programs, max_vcycles: int, config=None, *,
              width: int | None = None,
              engine: str = "codegen") -> list[MachineResult]:
    """One-shot batched execution: build a :class:`BatchRunner`, run it
    to ``max_vcycles``, and return the per-lane results.  Raises
    :class:`~repro.isa.program.SimulationFailure` for the first errored
    lane, matching ``Machine.run``'s contract for a single run."""
    runner = BatchRunner(programs, config, width=width, engine=engine)
    results = runner.run(max_vcycles)
    for i, err in enumerate(runner.errors):
        if err is not None:
            raise SimulationFailure(f"lane {i}: {err}")
    return results
