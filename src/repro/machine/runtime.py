"""Host runtime (paper SSA.3): the top-level "simulate this design on
Manticore" entry points tying compiler, bootloader, and machine together.

This is the public API most users want::

    from repro import simulate_on_manticore
    result = simulate_on_manticore(circuit, max_vcycles=100_000)
    print(result.displays, result.machine.simulation_rate_khz(475.0))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..netlist.ir import Circuit

if TYPE_CHECKING:  # pragma: no cover - import cycle: compiler uses config
    from ..compiler.driver import CompileReport, CompilerOptions
from .boot import deserialize, serialize
from .config import MachineConfig
from .grid import Machine, MachineResult


@dataclass
class SimulationRun:
    """Everything produced by one compile-and-run."""

    report: "CompileReport"
    machine: MachineResult
    binary_bytes: int

    @property
    def displays(self) -> list[str]:
        return self.machine.displays

    @property
    def vcycles(self) -> int:
        return self.machine.vcycles

    def rate_khz(self, frequency_mhz: float | None = None) -> float:
        """Achieved simulation rate; defaults to the grid's frequency
        model estimate."""
        if frequency_mhz is None:
            from ..fpga.timing import frequency_mhz as fmodel
            # Use the guided-floorplan frequency for the compiled grid.
            grid = self.report.cores_used
            side = max(1, int(grid ** 0.5))
            frequency_mhz = fmodel(side, side).guided_mhz
        return self.machine.simulation_rate_khz(frequency_mhz)


def simulate_on_manticore(circuit: Circuit, max_vcycles: int = 1_000_000,
                          options: "CompilerOptions | None" = None,
                          through_bootloader: bool = True,
                          engine: str | None = None,
                          cache_dir: str | None = None,
                          profiler=None) -> SimulationRun:
    """Compile a circuit, (optionally) round-trip it through the
    bootloader binary format, and execute it on the machine model.

    ``engine`` selects the execution engine (``"strict"``, the default,
    ``"fast"``, or ``"codegen"`` - the latter two are
    verify-once-then-trust compiled engines, bit-identical to strict
    but much faster on long runs, with ``"codegen"`` the fastest).

    ``cache_dir`` overrides the corresponding
    :class:`~repro.compiler.driver.CompilerOptions` knob: with a cache
    directory set, repeated simulations of the same circuit skip
    compilation entirely (content-addressed compile cache).  It is
    output-invariant.

    ``profiler`` attaches a :class:`repro.obs.Profiler` to the machine;
    observation only - the result is bit-identical with and without one.
    """
    import dataclasses

    from ..compiler.driver import CompilerOptions, compile_circuit

    if cache_dir is not None:
        options = dataclasses.replace(options or CompilerOptions(),
                                      cache_dir=cache_dir)

    result = compile_circuit(circuit, options)
    program = result.program
    binary_bytes = 0
    if through_bootloader:
        stream = serialize(program)
        binary_bytes = len(stream)
        program = deserialize(stream)
    config = (options.config if options else None) or MachineConfig(
        grid_x=program.grid[0], grid_y=program.grid[1])
    machine = Machine(program, config, engine=engine, profiler=profiler)
    mres = machine.run(max_vcycles)
    return SimulationRun(result.report, mres, binary_bytes)
