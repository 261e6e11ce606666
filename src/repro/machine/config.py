"""Machine configuration shared by the compiler and the machine model.

Defaults follow the paper's FPGA prototype (SS5): a 15x15 grid at 475 MHz,
4096x64 instruction memories, 2048-entry register files, 16 Ki-word
scratchpads, a 128 KiB direct-mapped cache in front of DRAM, and a
14-stage pipeline whose hazard distance the compiler must respect.

The pipeline's *result latency* is the number of cycles between issuing an
instruction and the earliest issue of a dependent instruction.  The paper
gives stage counts (fetch 2, decode 3, execute 4, plus memory/writeback)
but not the exact forwarding distance; we model issue->use distance of 8
cycles and expose it as a knob (it scales NOp counts uniformly).
AddCarry->AddCarry carry forwarding rides the DSP cascade (distance 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import NUM_REGISTERS, SCRATCHPAD_WORDS


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of one Manticore instance."""

    grid_x: int = 15
    grid_y: int = 15
    frequency_mhz: float = 475.0

    # Pipeline (SS5.1).
    pipeline_depth: int = 14
    result_latency: int = 8
    carry_latency: int = 1

    # Memories.
    imem_words: int = 4096
    num_registers: int = NUM_REGISTERS
    scratchpad_words: int = SCRATCHPAD_WORDS

    #: Heterogeneous grids (paper SSA.7, future work - implemented):
    #: only the first ``scratchpad_cores`` cores (by linear id) carry a
    #: scratchpad URAM; the rest rely on their register file alone.
    #: ``None`` means every core has one (the paper's prototype).
    scratchpad_cores: int | None = None

    # NoC (SS5.2): unidirectional 2D torus, dimension-ordered (X then Y),
    # bufferless; one hop per cycle.
    noc_hop_latency: int = 1
    noc_inject_latency: int = 2
    noc_eject_latency: int = 2

    #: Compiled engines (``repro.machine.fastpath`` and
    #: ``repro.machine.codegen``): number of Vcycles an
    #: ``engine="fast"``/``engine="codegen"`` machine runs under the
    #: strict checking engine before trusting its compiled artifact.
    #: Because issue order, routing, and writeback timing are
    #: data-independent in a branch-free program, one clean strict Vcycle
    #: proves the whole schedule; raise this for paranoia, or set 0 to
    #: trust the static plan immediately.
    fastpath_verify_vcycles: int = 1

    # Privileged-core cache (SS5.3): 128 KiB direct-mapped, write-allocate,
    # write-back, in 16-bit words.  Stall counts are machine cycles charged
    # to the whole grid per access outcome.
    cache_words: int = 65536
    cache_line_words: int = 32
    cache_hit_stall: int = 24
    cache_miss_stall: int = 250
    cache_writeback_stall: int = 120

    @property
    def num_cores(self) -> int:
        return self.grid_x * self.grid_y

    def core_id(self, x: int, y: int) -> int:
        return y * self.grid_x + x

    def coord(self, core_id: int) -> tuple[int, int]:
        return core_id % self.grid_x, core_id // self.grid_x

    def route(self, src: int, dst: int) -> list[tuple[str, int, int]]:
        """Dimension-ordered route on the unidirectional torus.

        Returns the sequence of directed links as ("E"|"S", x, y) - the
        link *leaving* switch (x, y) eastwards or southwards.
        """
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        links: list[tuple[str, int, int]] = []
        x = sx
        while x != dx:
            links.append(("E", x, sy))
            x = (x + 1) % self.grid_x
        y = sy
        while y != dy:
            links.append(("S", dx, y))
            y = (y + 1) % self.grid_y
        return links

    def route_latency(self, src: int, dst: int) -> int:
        """Issue-to-enqueue latency of a message from src to dst."""
        hops = len(self.route(src, dst))
        return (self.noc_inject_latency + hops * self.noc_hop_latency
                + self.noc_eject_latency)


#: The paper's evaluated prototype: 225 cores at 475 MHz (Table 2).
PROTOTYPE = MachineConfig()

#: A small configuration for fast tests.
TINY = MachineConfig(grid_x=2, grid_y=2, result_latency=4, imem_words=1024,
                     frequency_mhz=500.0)
