"""Program containers: compiler-internal :class:`Process` collections and
the final placed-and-scheduled :class:`MachineProgram` binary.

The exception side-band (``$display``/``$finish``/assertions) is encoded as
an :class:`ExceptionTable`: each ``Expect`` instruction carries an ``eid``
that the host looks up to decide how to service the stall (paper SSA.3.2).
Display arguments travel through a *mailbox* region of global DRAM written
with predicated ``GST`` instructions before the ``Expect`` fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import instructions as isa
from .instructions import Instruction, Reg


@dataclass
class DisplayAction:
    """Host prints ``fmt`` using words read from mailbox addresses.

    ``arg_addrs`` holds, per format argument, the global word addresses of
    its 16-bit limbs, least significant first.
    """

    fmt: str
    arg_addrs: tuple[tuple[int, ...], ...] = ()


@dataclass
class FinishAction:
    """Host terminates the simulation (``$finish``)."""


@dataclass
class AssertAction:
    """Host aborts with an assertion failure message."""

    message: str


ExceptionAction = DisplayAction | FinishAction | AssertAction


class SimulationFailure(AssertionError):
    """An assertion ``Expect`` fired during execution."""


@dataclass
class ExceptionTable:
    """Maps exception ids to host actions."""

    actions: dict[int, ExceptionAction] = field(default_factory=dict)
    _next_eid: int = 1  # eid 0 is reserved: "no exception"

    def register(self, action: ExceptionAction) -> int:
        eid = self._next_eid
        self._next_eid += 1
        self.actions[eid] = action
        return eid

    def service(self, eid: int, read_global: Callable[[int], int],
                ) -> tuple[str, str | None]:
        """Service an exception; returns (verdict, text).

        verdict is ``"resume"`` (display printed), ``"finish"``, or raises
        :class:`SimulationFailure` for assertion actions.
        """
        action = self.actions.get(eid)
        if action is None:
            raise SimulationFailure(f"unknown exception id {eid}")
        if isinstance(action, FinishAction):
            return "finish", None
        if isinstance(action, AssertAction):
            raise SimulationFailure(action.message)
        values = []
        for limbs in action.arg_addrs:
            value = 0
            for i, addr in enumerate(limbs):
                value |= (read_global(addr) & 0xFFFF) << (16 * i)
            values.append(value)
        from ..netlist.interp import format_display
        return "resume", format_display(action.fmt, values)


@dataclass
class Process:
    """A pre-placement program partition (paper SS6.1).

    ``body`` uses virtual registers; before scheduling it is an *ordered*
    but hazard-oblivious instruction list.  ``reg_init`` holds boot-time
    register contents (constants and state initial values).  ``scratch``
    maps a scratchpad base address per owned memory; ``scratch_init`` is
    the boot image of the local scratchpad.
    """

    pid: int
    body: list[Instruction] = field(default_factory=list)
    reg_init: dict[Reg, int] = field(default_factory=dict)
    cfu: list[int] = field(default_factory=list)
    scratch_init: dict[int, int] = field(default_factory=dict)
    privileged: bool = False

    def instruction_count(self) -> int:
        """Execution-time estimate used by the merge heuristics: every body
        instruction including Sends (paper SS6.1)."""
        return len(self.body)

    def send_count(self) -> int:
        return sum(1 for i in self.body if isinstance(i, isa.Send))

    def sends(self) -> list[isa.Send]:
        return [i for i in self.body if isinstance(i, isa.Send)]


@dataclass
class ProgramImage:
    """A set of processes plus shared metadata - the compiler's unit of
    work between partitioning and placement."""

    name: str
    processes: dict[int, Process]
    exceptions: ExceptionTable
    global_init: dict[int, int] = field(default_factory=dict)
    #: virtual registers of each process written by other processes' Sends
    #: (receive bindings): pid -> {virtual reg}
    receive_regs: dict[int, set[Reg]] = field(default_factory=dict)

    def total_instructions(self) -> int:
        return sum(p.instruction_count() for p in self.processes.values())


@dataclass
class CoreBinary:
    """Final per-core binary (paper SSA.3.1 stream contents)."""

    body: list[Instruction]
    epilogue_length: int
    sleep_length: int
    reg_init: dict[int, int] = field(default_factory=dict)
    cfu: list[int] = field(default_factory=list)
    scratch_init: dict[int, int] = field(default_factory=dict)

    @property
    def total_length(self) -> int:
        """Instruction-memory footprint (body + receive slots)."""
        return len(self.body) + self.epilogue_length


@dataclass
class MachineProgram:
    """A placed, scheduled, register-allocated Manticore binary."""

    name: str
    grid: tuple[int, int]
    cores: dict[int, CoreBinary]           # linear core id -> binary
    vcpl: int                              # machine cycles per Vcycle
    exceptions: ExceptionTable
    global_init: dict[int, int] = field(default_factory=dict)
    privileged_core: int = 0

    def core_id(self, x: int, y: int) -> int:
        return y * self.grid[0] + x

    def max_instruction_footprint(self) -> int:
        return max((c.total_length for c in self.cores.values()), default=0)
