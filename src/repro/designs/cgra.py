"""``cgra`` - a coarse-grained reconfigurable array (paper SS7.5).

The paper's cgra is a latency-insensitive 64-PE array with floating-point
units; we reproduce the architecture at reduced scale with Q8.8
fixed-point MAC/ALU processing elements (substitution documented in
DESIGN.md: fixed-point keeps the netlist tractable while exercising the
same dataflow structure).

Each PE has a static configuration (op select + routing), an output
register, and a valid bit; rows stream west->east while the north input
provides per-row coefficients, the classic weight-stationary CGRA setup.
A reference model replays the exact dataflow in Python and the driver
asserts equality on a frame checksum.
"""

from __future__ import annotations

import functools

from ..netlist.builder import CircuitBuilder, Signal
from ..netlist.ir import Circuit

M16 = 0xFFFF

#: Per-PE operation: 0 = MAC (a*coef + prev), 1 = add, 2 = xor-mix,
#: 3 = max (unsigned).
def pe_config(i: int, j: int) -> tuple[int, int]:
    """(op, coefficient) of PE at row i, column j."""
    return ((i + j) % 4, ((i * 37 + j * 101 + 9) & 0xFF) | 0x100)


def _pe_ref(op: int, a: int, coef: int, prev: int) -> int:
    if op == 0:
        return (((a * coef) >> 8) + prev) & M16
    if op == 1:
        return (a + coef + prev) & M16
    if op == 2:
        return (a ^ (coef * 3) ^ (prev << 1)) & M16
    return max(a, prev)


def row_input(i: int, t: int) -> int:
    return (t * 23 + i * 77 + 5) & M16


@functools.lru_cache(maxsize=64)
def reference_checksum(rows: int, cols: int, steps: int) -> int:
    config = [[pe_config(i, j) for j in range(cols)] for i in range(rows)]
    outs = [[0] * cols for _ in range(rows)]
    valid = [[False] * cols for _ in range(rows)]
    checksum = 0
    for t in range(steps):
        new_outs = [row[:] for row in outs]
        new_valid = [row[:] for row in valid]
        for i in range(rows):
            for j in range(cols):
                a = row_input(i, t) if j == 0 else outs[i][j - 1]
                a_valid = True if j == 0 else valid[i][j - 1]
                prev = outs[i][j]
                op, coef = config[i][j]
                if a_valid:
                    new_outs[i][j] = _pe_ref(op, a, coef, prev)
                new_valid[i][j] = a_valid
            if valid[i][cols - 1]:
                checksum = (checksum + outs[i][cols - 1]) & 0xFFFFFFFF
        outs, valid = new_outs, new_valid
    return checksum


def build(rows: int = 9, cols: int = 9, steps: int = 48) -> Circuit:
    m = CircuitBuilder("cgra")
    cyc = m.register("cyc", 16)
    cyc.next = (cyc + 1).trunc(16)

    checksum = m.register("checksum", 32)
    checksum_add = m.const(0, 32)
    for i in range(rows):
        # West-edge stream: row_input(i, t) = (t*23 + i*77 + 5) & M16.
        west: Signal = (cyc * 23 + (i * 77 + 5)).trunc(16)
        west_valid = m.const(1, 1)
        a, a_valid = west, west_valid
        for j in range(cols):
            op, coef = pe_config(i, j)
            out = m.register(f"pe{i}_{j}_out", 16)
            vld = m.register(f"pe{i}_{j}_valid", 1)
            coef_sig = m.const(coef, 16)
            if op == 0:
                res = ((a.mul_wide(coef_sig) >> 8).trunc(16)
                       + out).trunc(16)
            elif op == 1:
                res = (a + coef_sig + out).trunc(16)
            elif op == 2:
                res = (a ^ m.const((coef * 3) & M16, 16)
                       ^ (out << 1).trunc(16))
            else:
                res = m.mux(a.gtu(out), out, a)
            out.update(a_valid, res)
            vld.next = a_valid
            a, a_valid = out, vld
        # Tail of the row feeds the frame checksum.
        checksum_add = (checksum_add
                        + m.mux(a_valid, m.const(0, 16), a).zext(32)
                        ).trunc(32)
    checksum.next = (checksum + checksum_add).trunc(32)

    done = cyc == steps
    m.check_sticky(done, checksum == reference_checksum(rows, cols, steps),
                   "cgra checksum mismatch")
    shown = m.display_staged(done, "cgra checksum %d", checksum)
    m.finish(shown)
    return m.build()


DEFAULT_CYCLES = 96
