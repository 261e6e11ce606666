"""The Manticore instruction set (paper SS4.2).

A 16-bit datapath with a 2048-entry register file plus a carry bit, a
16 Ki-word local scratchpad, 32 programmable 4-input custom functions per
core, message-passing ``Send``, and privileged global memory / exception
instructions that stall the whole grid.

Register operands are generic: the compiler works with *virtual* registers
(strings); after register allocation they become machine register indices
(ints).  All instruction classes are frozen dataclasses so they can be used
as dict keys and compared structurally in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Union

Reg = Union[str, int]

WORD_WIDTH = 16
WORD_MASK = (1 << WORD_WIDTH) - 1
NUM_REGISTERS = 2048
NUM_CUSTOM_FUNCTIONS = 32
SCRATCHPAD_WORDS = 16384  # 16384 x 16 bits = 32 KiB reshaped URAM
GLOBAL_ADDR_WORDS = 3     # 48-bit global addresses = 3 x 16-bit registers


@dataclass(frozen=True)
class Instruction:
    """Base class; concrete instructions define reads/writes."""

    def reads(self) -> tuple[Reg, ...]:
        return ()

    def writes(self) -> tuple[Reg, ...]:
        return ()

    @property
    def mnemonic(self) -> str:
        return type(self).__name__.upper()

    def rename(self, mapping: dict[Reg, Reg]) -> "Instruction":
        """Return a copy with every register operand remapped."""
        changes = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata.get("reg") and value in mapping:
                changes[f.name] = mapping[value]
            elif f.metadata.get("reglist"):
                changes[f.name] = tuple(mapping.get(r, r) for r in value)
        return replace(self, **changes) if changes else self


def _reg():
    return field(metadata={"reg": True})


def _reglist():
    return field(metadata={"reglist": True})


# ---------------------------------------------------------------------------
# Standard ALU instructions (one result, up to two sources).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Nop(Instruction):
    """Idle one cycle - the static-BSP padding instruction."""


@dataclass(frozen=True)
class Set(Instruction):
    """``rd = imm`` - also the wire format of NoC message delivery."""

    rd: Reg = _reg()
    imm: int = 0

    def writes(self):
        return (self.rd,)


_ALU_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "MUL", "MULH", "SLL", "SRL",
            "SRA", "SEQ", "SLTU", "SLTS")


@dataclass(frozen=True)
class Alu(Instruction):
    """Two-source ALU operation ``rd = op(rs1, rs2)``."""

    op: str
    rd: Reg = _reg()
    rs1: Reg = _reg()
    rs2: Reg = _reg()

    def __post_init__(self):
        if self.op not in _ALU_OPS:
            raise ValueError(f"unknown ALU op {self.op!r}")

    def reads(self):
        return (self.rs1, self.rs2)

    def writes(self):
        return (self.rd,)

    @property
    def mnemonic(self) -> str:
        return self.op


@dataclass(frozen=True)
class Mux(Instruction):
    """``rd = rtrue if (sel & 1) else rfalse``."""

    rd: Reg = _reg()
    sel: Reg = _reg()
    rfalse: Reg = _reg()
    rtrue: Reg = _reg()

    def reads(self):
        return (self.sel, self.rfalse, self.rtrue)

    def writes(self):
        return (self.rd,)


@dataclass(frozen=True)
class Slice(Instruction):
    """``rd = (rs >> offset) & mask(length)`` - bit-field extract."""

    rd: Reg = _reg()
    rs: Reg = _reg()
    offset: int = 0
    length: int = WORD_WIDTH

    def __post_init__(self):
        if not (0 <= self.offset < WORD_WIDTH):
            raise ValueError("slice offset out of range")
        if not (1 <= self.length <= WORD_WIDTH):
            raise ValueError("slice length out of range")

    def reads(self):
        return (self.rs,)

    def writes(self):
        return (self.rd,)


@dataclass(frozen=True)
class AddCarry(Instruction):
    """``rd = rs1 + rs2 + carry``; updates the carry bit (wide adds)."""

    rd: Reg = _reg()
    rs1: Reg = _reg()
    rs2: Reg = _reg()

    def reads(self):
        return (self.rs1, self.rs2)

    def writes(self):
        return (self.rd,)


@dataclass(frozen=True)
class SetCarry(Instruction):
    """``carry = imm`` (0 or 1) - starts a wide add/sub chain."""

    imm: int = 0

    def __post_init__(self):
        if self.imm not in (0, 1):
            raise ValueError("carry immediate must be 0 or 1")


@dataclass(frozen=True)
class Custom(Instruction):
    """``rd = F[index](rs1..rs4)`` - 4-input per-bit-position LUT (SS5.1).

    The function table lives in the core's CFU configuration: 16 bit
    positions x 16-bit truth table = 256 bits per function.
    """

    rd: Reg = _reg()
    index: int
    rs: tuple[Reg, ...] = _reglist()

    def __post_init__(self):
        if not (0 <= self.index < NUM_CUSTOM_FUNCTIONS):
            raise ValueError("custom function index out of range")
        if len(self.rs) != 4:
            raise ValueError("custom function takes exactly 4 sources")

    def reads(self):
        return tuple(self.rs)

    def writes(self):
        return (self.rd,)


# ---------------------------------------------------------------------------
# Communication.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Send(Instruction):
    """Ask core ``target`` to set its register ``rd`` to our ``rs``
    (paper SS4.2).  The update lands at the end of the target's Vcycle.

    ``target`` is a process id pre-placement and a core id (grid linear
    index) post-placement.
    """

    target: int
    rd: Reg = _reg()
    rs: Reg = _reg()

    def reads(self):
        return (self.rs,)

    # NOTE: writes() is empty - the write happens on the *remote* core.


# ---------------------------------------------------------------------------
# Local memory.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LocalLoad(Instruction):
    """``rd = scratchpad[rbase + offset]`` - unconditional (SS4.2)."""

    rd: Reg = _reg()
    rbase: Reg = _reg()
    offset: int = 0

    def reads(self):
        return (self.rbase,)

    def writes(self):
        return (self.rd,)

    @property
    def mnemonic(self):
        return "LLD"


@dataclass(frozen=True)
class LocalStore(Instruction):
    """``if (pred) scratchpad[rbase + offset] = rs`` - predicated."""

    rs: Reg = _reg()
    rbase: Reg = _reg()
    offset: int = 0

    def reads(self):
        return (self.rs, self.rbase)

    @property
    def mnemonic(self):
        return "LST"


@dataclass(frozen=True)
class Predicate(Instruction):
    """``pred = rs & 1`` - sets the store predicate."""

    rs: Reg = _reg()

    def reads(self):
        return (self.rs,)


# ---------------------------------------------------------------------------
# Privileged instructions (single privileged core; globally stalling).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GlobalLoad(Instruction):
    """``rd = DRAM[{rhi, rmid, rlo}]`` - 48-bit address, privileged."""

    rd: Reg = _reg()
    addr: tuple[Reg, ...] = _reglist()  # (hi, mid, lo)

    def __post_init__(self):
        if len(self.addr) != GLOBAL_ADDR_WORDS:
            raise ValueError("global address needs 3 register words")

    def reads(self):
        return tuple(self.addr)

    def writes(self):
        return (self.rd,)

    @property
    def mnemonic(self):
        return "GLD"


@dataclass(frozen=True)
class GlobalStore(Instruction):
    """``if (pred) DRAM[{rhi, rmid, rlo}] = rs`` - privileged."""

    rs: Reg = _reg()
    addr: tuple[Reg, ...] = _reglist()

    def __post_init__(self):
        if len(self.addr) != GLOBAL_ADDR_WORDS:
            raise ValueError("global address needs 3 register words")

    def reads(self):
        return (self.rs,) + tuple(self.addr)

    @property
    def mnemonic(self):
        return "GST"


@dataclass(frozen=True)
class Expect(Instruction):
    """Raise exception ``eid`` if ``rs1 != rs2`` (paper SS4.2).

    Exceptions stall the grid and transfer control to the host, which
    services ``$display``/``$finish``/assertions and resumes or stops.
    """

    rs1: Reg = _reg()
    rs2: Reg = _reg()
    eid: int = 0

    def reads(self):
        return (self.rs1, self.rs2)


PRIVILEGED_TYPES = (GlobalLoad, GlobalStore, Expect)


def is_privileged(instr: Instruction) -> bool:
    """True if the instruction may stall the whole grid (paper SS4.2)."""
    return isinstance(instr, PRIVILEGED_TYPES)

