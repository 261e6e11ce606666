"""Compiler-internal pseudo-instructions and the lowered-design container.

The lower assembly is mostly real Manticore ISA instructions over virtual
registers, plus three pseudo-instructions that survive until late phases:

* :class:`Mov` - register copy; candidate for current/next coalescing
  (paper SS6.3, the Wimmer-Franz trick).  Expanded to ``ADD rd, rs, zero``
  if it survives.
* :class:`PLocalStore` / :class:`PGlobalStore` - a store fused with its
  predicate source.  Expanded to ``Predicate`` + store at emission so the
  scheduler treats the pair as one two-cycle unit and the ISA's single
  predicate flag can never be clobbered between set and use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..isa import instructions as isa
from ..isa.program import ExceptionTable


@dataclass(frozen=True)
class Mov(isa.Instruction):
    """``rd = rs`` - pseudo; coalesced away or expanded late."""

    rd: isa.Reg
    rs: isa.Reg

    def reads(self):
        return (self.rs,)

    def writes(self):
        return (self.rd,)

    def rename(self, mapping):
        return Mov(mapping.get(self.rd, self.rd), mapping.get(self.rs, self.rs))

    def execute_on(self, ctx):
        ctx.write_reg(self.rd, ctx.read_reg(self.rs))


@dataclass(frozen=True)
class PLocalStore(isa.Instruction):
    """Predicated scratchpad store pseudo (Predicate + LST pair)."""

    rs: isa.Reg
    rbase: isa.Reg
    offset: int
    pred: isa.Reg

    def reads(self):
        return (self.rs, self.rbase, self.pred)

    def rename(self, mapping):
        g = mapping.get
        return PLocalStore(g(self.rs, self.rs), g(self.rbase, self.rbase),
                           self.offset, g(self.pred, self.pred))

    def expand(self) -> list[isa.Instruction]:
        return [isa.Predicate(self.pred),
                isa.LocalStore(self.rs, self.rbase, self.offset)]

    def execute_on(self, ctx):
        if ctx.read_reg(self.pred) & 1:
            addr = (ctx.read_reg(self.rbase) + self.offset) & 0xFFFF
            ctx.write_local(addr, ctx.read_reg(self.rs))


@dataclass(frozen=True)
class PGlobalStore(isa.Instruction):
    """Predicated global store pseudo (Predicate + GST pair). Privileged."""

    rs: isa.Reg
    addr: tuple[isa.Reg, ...]
    pred: isa.Reg

    def reads(self):
        return (self.rs, self.pred) + tuple(self.addr)

    def rename(self, mapping):
        g = mapping.get
        return PGlobalStore(g(self.rs, self.rs),
                            tuple(g(a, a) for a in self.addr),
                            g(self.pred, self.pred))

    def expand(self) -> list[isa.Instruction]:
        return [isa.Predicate(self.pred),
                isa.GlobalStore(self.rs, self.addr)]

    def execute_on(self, ctx):
        if ctx.read_reg(self.pred) & 1:
            hi, mid, lo = (ctx.read_reg(r) for r in self.addr)
            ctx.write_global((hi << 32) | (mid << 16) | lo,
                             ctx.read_reg(self.rs))


def duration_of(instr: isa.Instruction) -> int:
    """Machine cycles the instruction occupies once expanded."""
    return 2 if isinstance(instr, (PLocalStore, PGlobalStore)) else 1


def lir_is_privileged(instr: isa.Instruction) -> bool:
    return isa.is_privileged(instr) or isinstance(instr, PGlobalStore)


@dataclass
class MemoryLayout:
    """Placement of one RTL memory in the scratchpad or global DRAM."""

    name: str
    base: int            # word address (local) or 48-bit word addr (global)
    limbs: int           # 16-bit words per element
    depth: int
    is_global: bool

    @property
    def words(self) -> int:
        return self.limbs * self.depth


@dataclass
class LoweredDesign:
    """A monolithic lower-assembly program (paper SS6, pre-partitioning).

    ``body`` is a topologically valid but otherwise arbitrary ordering of
    SSA instructions over virtual registers.  ``commits`` records the
    state-element relation: at the end of every Vcycle the value of virtual
    register ``next`` becomes the new value of persistent register ``cur``.
    ``order_edges`` are non-SSA constraints (memory read-before-write,
    effect ordering) as (earlier_index, later_index) into ``body``.
    """

    name: str
    body: list[isa.Instruction] = field(default_factory=list)
    commits: list[tuple[str, str]] = field(default_factory=list)  # (cur, next)
    reg_init: dict[str, int] = field(default_factory=dict)
    const_regs: dict[int, str] = field(default_factory=dict)
    memories: dict[str, MemoryLayout] = field(default_factory=dict)
    scratch_init: dict[int, int] = field(default_factory=dict)
    global_init: dict[int, int] = field(default_factory=dict)
    exceptions: ExceptionTable = field(default_factory=ExceptionTable)
    #: non-SSA data edges (carry-flag chains) as (producer, consumer)
    #: body indices; fanin-cone closure must traverse these.
    extra_data_edges: list[tuple[int, int]] = field(default_factory=list)
    #: body indices that must stay in the privileged process
    privileged_indices: set[int] = field(default_factory=set)
    #: memory name -> body indices touching it (placement constraint)
    memory_users: dict[str, set[int]] = field(default_factory=dict)
    #: all SetCarry/AddCarry indices in emission order (chain atomicity)
    carry_indices: list[int] = field(default_factory=list)

    def finalize_metadata(self) -> None:
        """Precompute index lists later passes need."""
        self.carry_indices = [
            i for i, instr in enumerate(self.body)
            if isinstance(instr, (isa.SetCarry, isa.AddCarry))
        ]

    def instruction_count(self) -> int:
        return len(self.body)

    def stats(self) -> dict[str, int]:
        from collections import Counter
        kinds = Counter(type(i).__name__ for i in self.body)
        return {
            "instructions": len(self.body),
            "commits": len(self.commits),
            "constants": len(self.const_regs),
            "privileged": len(self.privileged_indices),
            **{f"n_{k}": v for k, v in sorted(kinds.items())},
        }
