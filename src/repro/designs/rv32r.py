"""``rv32r`` - a ring of in-order processors (paper SS7.5, [26]).

The paper runs 16 riscv-mini cores communicating over a ring.  Building a
full RV32I pipeline in our netlist IR would dwarf every other benchmark,
so we substitute a compact 16-bit accumulator ISA ("mini16") per core -
fetch from a per-core instruction ROM, a register file memory, ring send/
receive ports - preserving the structural character: many small CPUs,
mostly independent, coupled through nearest-neighbor links.

mini16 ISA (op 4 bits | field 12 bits):
  0 LDI  imm   acc = imm
  1 ADDI imm   acc += imm
  2 XORI imm   acc ^= imm
  3 SHLI imm   acc <<= imm (masked)
  4 ST   r     R[r] = acc
  5 LD   r     acc = R[r]
  6 ADD  r     acc += R[r]
  7 SEND       ring_out = acc
  8 RECV       acc = ring_in
  9 JNZ  pc    if acc != 0 jump
 10 JMP  pc    jump
 11 HALT       spin here
"""

from __future__ import annotations

import functools

from ..netlist.builder import CircuitBuilder, Signal
from ..netlist.ir import Circuit

M16 = 0xFFFF

(LDI, ADDI, XORI, SHLI, ST, LD, ADD, SEND, RECV, JNZ, JMP,
 HALT) = range(12)


def _asm(op: int, field: int = 0) -> int:
    return op | ((field & 0xFFF) << 4)


def core_program(core: int, num_cores: int, iterations: int) -> list[int]:
    """Token-mixing loop: accumulate locally, pass around the ring."""
    return [
        _asm(LDI, core + 1),       # 0: acc = id+1
        _asm(ST, 0),               # 1: R0 = acc (loop counter seed)
        _asm(LDI, iterations),     # 2
        _asm(ST, 1),               # 3: R1 = remaining iterations
        # loop:
        _asm(LD, 0),               # 4: acc = R0
        _asm(ADDI, 13),            # 5
        _asm(XORI, 0x3A7),         # 6
        _asm(SHLI, 1),             # 7
        _asm(SEND),                # 8: ring_out = acc
        _asm(RECV),                # 9: acc = ring_in (neighbor's last)
        _asm(ADD, 0),              # 10: acc += R0
        _asm(ST, 0),               # 11: R0 = acc
        _asm(LD, 1),               # 12
        _asm(ADDI, 0xFFF),         # 13: acc -= 1 (12-bit -1)
        _asm(ST, 1),               # 14
        _asm(JNZ, 4),              # 15: loop while remaining
        _asm(LD, 0),               # 16
        _asm(HALT),                # 17
    ]


@functools.lru_cache(maxsize=64)
def reference_final_r0(num_cores: int, iterations: int) -> tuple[int, ...]:
    """Python model of every core's final R0 (exact ISA semantics)."""
    programs = [core_program(c, num_cores, iterations)
                for c in range(num_cores)]
    pcs = [0] * num_cores
    accs = [0] * num_cores
    regs = [[0, 0] for _ in range(num_cores)]
    ring_out = [0] * num_cores
    # Simulate synchronously: all cores step once per cycle; RECV reads
    # the *previous* cycle's neighbor output (registered link).
    for _cycle in range(iterations * 16 + 64):
        new_ring = list(ring_out)
        for c in range(num_cores):
            instr = programs[c][pcs[c]]
            op, field = instr & 0xF, instr >> 4
            nxt = pcs[c] + 1
            if op == LDI:
                accs[c] = field
            elif op == ADDI:
                accs[c] = (accs[c] + (field | (0xF000 if field >= 0x800
                                               else 0))) & M16
            elif op == XORI:
                accs[c] ^= field
            elif op == SHLI:
                accs[c] = (accs[c] << field) & M16
            elif op == ST:
                regs[c][field] = accs[c]
            elif op == LD:
                accs[c] = regs[c][field]
            elif op == ADD:
                accs[c] = (accs[c] + regs[c][field]) & M16
            elif op == SEND:
                new_ring[c] = accs[c]
            elif op == RECV:
                accs[c] = ring_out[(c - 1) % num_cores]
            elif op == JNZ:
                nxt = field if accs[c] != 0 else nxt
            elif op == JMP:
                nxt = field
            elif op == HALT:
                nxt = pcs[c]
            pcs[c] = nxt
        ring_out = new_ring
    return tuple(regs[c][0] for c in range(num_cores))


def build(num_cores: int = 12, iterations: int = 8) -> Circuit:
    """Build the ring of mini16 processors with its test driver."""
    m = CircuitBuilder("rv32r")
    cyc = m.register("cyc", 16)
    cyc.next = (cyc + 1).trunc(16)

    ring_regs: list[Signal] = [
        m.register(f"ring{c}", 16) for c in range(num_cores)
    ]
    final_r0: list[Signal] = []
    new_ring: list[Signal] = []

    for c in range(num_cores):
        program = core_program(c, num_cores, iterations)
        imem = m.memory(f"imem{c}", 16, 32,
                        init=program + [0] * (32 - len(program)))
        pc = m.register(f"pc{c}", 5)
        acc = m.register(f"acc{c}", 16)
        rf = m.memory(f"rf{c}", 16, 4)

        instr = imem.read(pc)
        op = instr.trunc(4)
        field = instr.bits(4, 12)
        imm_sext = m.cat(field, m.mux(field[11], m.const(0, 4),
                                      m.const(0xF, 4)))
        rf_rd = rf.read(field.trunc(2))
        ring_in = ring_regs[(c - 1) % num_cores]

        def is_op(code: int) -> Signal:
            return op == code

        acc_next = acc
        acc_next = m.mux(is_op(LDI), acc_next, field.zext(16))
        acc_next = m.mux(is_op(ADDI), acc_next,
                         (acc + imm_sext).trunc(16))
        acc_next = m.mux(is_op(XORI), acc_next, acc ^ field.zext(16))
        acc_next = m.mux(is_op(SHLI), acc_next,
                         (acc << field.trunc(4)).trunc(16))
        acc_next = m.mux(is_op(LD), acc_next, rf_rd)
        acc_next = m.mux(is_op(ADD), acc_next, (acc + rf_rd).trunc(16))
        acc_next = m.mux(is_op(RECV), acc_next, ring_in)
        acc.next = acc_next

        rf.write(field.trunc(2), acc, is_op(ST))

        taken = is_op(JMP) | (is_op(JNZ) & acc.any())
        halted = is_op(HALT)
        pc_next = m.mux(taken, (pc + 1).trunc(5), field.trunc(5))
        pc.next = m.mux(halted, pc_next, pc)

        new_ring.append(m.mux(is_op(SEND), ring_regs[c], acc))
        final_r0.append(rf.read(m.const(0, 2)))

    for c in range(num_cores):
        ring_regs[c].next = new_ring[c]

    expected = reference_final_r0(num_cores, iterations)
    halt_cycle = iterations * 16 + 64
    done = cyc == halt_cycle
    for c in range(num_cores):
        m.check_sticky(done, final_r0[c] == expected[c],
                       f"core {c} final R0 mismatch")

    def add32(group):
        acc = group[0]
        for s in group[1:]:
            acc = (acc + s).trunc(32)
        return acc

    total, depth = m.registered_reduce(
        "rv_sum", [r.zext(32) for r in final_r0], add32)
    shown = m.display_staged(cyc == halt_cycle + depth,
                             "rv32r checksum %d", total)
    m.finish(shown)
    return m.build()


DEFAULT_CYCLES = 256
