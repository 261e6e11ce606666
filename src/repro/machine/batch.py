"""Batched multi-run execution: B independent runs of one compiled
design are B scalar machines over rebound variants of one program.

Production traffic and fuzzing share a shape - many runs of the same
compiled artifact with different inputs.  Under static BSP the program
image is immutable and only boot values differ between stimuli, so
:func:`rebind_reg_inits` derives each lane's program from one compile,
and each lane runs on its own :class:`~repro.machine.grid.Machine`
(``repro.fuzz.oracle.fuzz_seed_batch`` runs them in a loop).  The lanes
share one schedule record, so only the first lane of a compiled engine
runs strict verification Vcycles, and on ``engine="codegen"`` one
kernel key (the key strips boot images), so every lane after the first
reuses the emitted kernel and, once the key has run enough trusted
Vcycles, the native C tier.

Semantics contract (enforced by ``tests/test_batch_equivalence.py``):
the observable state of every lane - displays, finish status, Vcycle
count, performance counters, cache stats, per-core registers and
scratchpads - is **bit-identical** to running that lane's program alone
on the same engine.
"""

from __future__ import annotations

import dataclasses
import re
from typing import TYPE_CHECKING

from ..isa.instructions import WORD_MASK, WORD_WIDTH
from ..isa.program import MachineProgram
from .grid import share_record

if TYPE_CHECKING:  # pragma: no cover
    from ..compiler.driver import CompileResult

_LIMB = re.compile(r"^(.*)#(\d+)$")


def rebind_reg_inits(result: "CompileResult",
                     overrides: dict[str, int]) -> MachineProgram:
    """A copy of ``result.program`` with named source registers booted
    to new values - the per-lane stimulus mechanism.

    Compilation is init-independent (the schedule, placement, and
    allocation never read boot values), so B stimuli of one design need
    one compile plus B cheap rebinds instead of B compiles.  This takes
    each core's persistent-slot assignment from the register allocator
    (:func:`repro.compiler.regalloc.persistent_map`) and rewrites its
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
    from ..compiler.regalloc import ZERO_CONST, persistent_map

    scheduled = result.scheduled
    program = result.program
    cores: dict[int, object] = {}
    for core_id, core in scheduled.cores.items():
        binary = program.cores[core_id]
        pmap = persistent_map(scheduled, core_id)
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
