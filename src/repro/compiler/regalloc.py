"""Register allocation and binary emission (paper SS6.3).

A linear scan over each core's final schedule: *persistent* virtual
registers (constants, state currents - local and received copies - and
memory bases) get stable machine indices for the whole program; SSA temps
reuse a free pool, released at their last use.  The 2048-entry register
file makes spills practically impossible (paper: "a simple linear-scan
register allocator works well with practically no spills"); running out is
a hard :class:`CompilerError`.

Emission expands pseudo-instructions (``Mov`` -> ``ADD rd, rs, zero``;
predicated stores -> ``Predicate`` + store pair), materializes NOP gaps,
and rewrites ``Send.rd`` using the *target* core's persistent map.
"""

from __future__ import annotations

from ..isa import instructions as isa
from ..isa.program import CoreBinary, MachineProgram
from .lir import Mov, PGlobalStore, PLocalStore
from .lower import CompilerError
from .schedule import ScheduledProgram


ZERO_CONST = "$c0000"


def persistent_map(scheduled: ScheduledProgram,
                   core_id: int) -> dict[str, int]:
    """Core ``core_id``'s persistent register -> machine slot map: its
    boot-initialized and received registers in name order, then the
    zero constant when a ``Mov`` needs one.  Slots ``0..len-1`` hold
    them for the whole program; temps take the slots above."""
    core = scheduled.cores[core_id]
    regs = sorted(set(scheduled.image.processes[core.pid].reg_init)
                  | set(scheduled.image.receive_regs.get(core.pid, ())),
                  key=str)
    needs_zero = any(isinstance(instr, Mov) for _, instr in core.items)
    if needs_zero and ZERO_CONST not in regs:
        regs.append(ZERO_CONST)
    return {reg: i for i, reg in enumerate(regs)}


def allocate(scheduled: ScheduledProgram) -> MachineProgram:
    """Allocate machine registers and emit the final binary."""
    image = scheduled.image
    config = scheduled.config

    # Phase 1: persistent register maps (needed across cores for Sends).
    persist_map = {core_id: persistent_map(scheduled, core_id)
                   for core_id in scheduled.cores}

    core_of_pid = {core.pid: cid for cid, core in scheduled.cores.items()}

    cores: dict[int, CoreBinary] = {}
    for core_id, core in scheduled.cores.items():
        pid = core.pid
        proc = image.processes[pid]
        pmap = persist_map[core_id]
        nregs = config.num_registers
        free = list(range(nregs - 1, len(pmap) - 1, -1))  # stack of temps
        temp_map: dict[str, int] = {}

        def resolve(reg, persistent_only: bool = False) -> int:
            if reg in pmap:
                return pmap[reg]
            if persistent_only:
                raise CompilerError(
                    f"register {reg!r} is not persistent on core {core_id}"
                )
            if reg in temp_map:
                return temp_map[reg]
            if not free:
                raise CompilerError(
                    f"core {core_id} ran out of machine registers "
                    f"({nregs}); the design needs more cores"
                )
            idx = free.pop()
            temp_map[reg] = idx
            return idx

        # Last-use positions of temps (post-rename names).
        items = core.items
        rename = core.rename
        last_use: dict[str, int] = {}
        for pos, (_cycle, instr) in enumerate(items):
            for reg in instr.reads():
                reg = rename.get(reg, reg)
                if reg not in pmap:
                    last_use[reg] = pos

        body: list[isa.Instruction] = []
        cursor = 0

        def emit_at(cycle: int, instrs: list[isa.Instruction]) -> None:
            nonlocal cursor
            while cursor < cycle:
                body.append(isa.Nop())
                cursor += 1
            body.extend(instrs)
            cursor += len(instrs)

        for pos, (cycle, instr) in enumerate(items):
            instr = instr.rename(rename) if rename else instr
            # Map reads first (they may free registers), then the write.
            mapping: dict = {}
            for reg in instr.reads():
                mapping[reg] = resolve(reg)
            for reg in instr.reads():
                if reg in temp_map and last_use.get(reg) == pos:
                    free.append(temp_map.pop(reg))
            if isinstance(instr, isa.Send):
                # rd names a register on the *target* core.
                target_core = core_of_pid[instr.target]
                target_map = persist_map[target_core]
                if instr.rd not in target_map:
                    raise CompilerError(
                        f"Send target register {instr.rd!r} is not "
                        f"persistent on core {target_core}"
                    )
                machine = isa.Send(target_core, target_map[instr.rd],
                                   mapping[instr.rs])
                emit_at(cycle, [machine])
            else:
                for reg in instr.writes():
                    mapping[reg] = resolve(reg)
                machine = instr.rename(mapping)
                if isinstance(machine, Mov):
                    machine = isa.Alu("ADD", machine.rd, machine.rs,
                                      pmap[ZERO_CONST])
                    emit_at(cycle, [machine])
                elif isinstance(machine, (PLocalStore, PGlobalStore)):
                    emit_at(cycle, machine.expand())
                else:
                    emit_at(cycle, [machine])

        # Pad with NOPs up to the epilogue start.
        emit_at(core.epilogue_start, [])

        reg_init = {}
        for reg, value in proc.reg_init.items():
            if reg in pmap:
                reg_init[pmap[reg]] = value
        if ZERO_CONST in pmap:
            reg_init.setdefault(pmap[ZERO_CONST], 0)

        binary = CoreBinary(
            body=body,
            epilogue_length=core.epilogue_length,
            sleep_length=scheduled.vcpl - core.epilogue_start
            - core.epilogue_length,
            reg_init=reg_init,
            cfu=list(proc.cfu),
            scratch_init=dict(proc.scratch_init),
        )
        if binary.total_length > config.imem_words:
            raise CompilerError(
                f"core {core_id}: program ({binary.total_length} words) "
                f"exceeds instruction memory ({config.imem_words})"
            )
        cores[core_id] = binary

    return MachineProgram(
        name=image.name,
        grid=(config.grid_x, config.grid_y),
        cores=cores,
        vcpl=scheduled.vcpl,
        exceptions=image.exceptions,
        global_init=dict(image.global_init),
        privileged_core=core_of_pid.get(0, 0),
    )
