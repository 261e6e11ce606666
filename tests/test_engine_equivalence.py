"""Strict vs fast execution engines must be bit-identical.

The fast engine's whole contract (verify-once-then-trust, see
``repro.machine.fastpath``) is that eliding the per-event hazard, NoC,
and writeback bookkeeping changes *nothing observable*: registers,
scratchpads, displays, perf counters, and cache statistics all match the
strict engine exactly.  This file enforces that contract over every
design in the registry, for both the machine model and the netlist
interpreter's compiled engine.
"""

from __future__ import annotations

import functools

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import ENGINES, Machine, MachineConfig
from repro.netlist.interp import NetlistInterpreter

CONFIG = MachineConfig(grid_x=8, grid_y=8)

ALL_DESIGNS = sorted(DESIGNS)


@functools.lru_cache(maxsize=None)
def _circuit(name: str):
    return DESIGNS[name].build()


@functools.lru_cache(maxsize=None)
def _compiled(name: str):
    options = CompilerOptions(config=CONFIG)
    return compile_circuit(_circuit(name), options)


def _budget(name: str) -> int:
    # At least 64 Vcycles of budget so the fast path gets real mileage
    # past its strict verification Vcycle.
    return max(64, DESIGNS[name].cycles + 300)


def _run(name: str, engine: str):
    machine = Machine(_compiled(name).program, CONFIG, engine=engine)
    result = machine.run(_budget(name))
    return machine, result


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_fast_engine_bit_identical(name):
    strict_m, strict_r = _run(name, "strict")
    fast_m, fast_r = _run(name, "fast")

    assert fast_r.vcycles == strict_r.vcycles
    assert fast_r.finished == strict_r.finished
    assert fast_r.displays == strict_r.displays
    assert fast_r.counters == strict_r.counters
    assert fast_r.cache == strict_r.cache

    for cid, core in strict_m.cores.items():
        fast_core = fast_m.cores[cid]
        assert fast_core.regs == core.regs, f"core {cid} registers"
        assert fast_core.scratch == core.scratch, f"core {cid} scratch"


def test_fast_engine_actually_engages():
    """Guards against the equivalence test passing vacuously: the
    dispatcher must hand at least some Vcycles to the trusted fast
    path (mc runs long enough and is display-quiet mid-run)."""
    machine = Machine(_compiled("mc").program, CONFIG, engine="fast")
    budget = _budget("mc")
    trusted = 0
    while not machine.finished and machine.counters.vcycles < budget:
        if machine._trusted:
            trusted += 1
        machine.step_vcycle()
    assert trusted > 0


def test_engine_validation():
    assert set(ENGINES) == {"strict", "fast", "codegen"}
    with pytest.raises(ValueError):
        Machine(_compiled("mc").program, CONFIG, engine="warp")
    with pytest.raises(ValueError):
        NetlistInterpreter(_circuit("mc"), engine="warp")


def test_default_engine_is_strict():
    assert Machine(_compiled("mc").program, CONFIG).engine == "strict"


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_netlist_fast_engine_matches_reference(name):
    circuit = _circuit(name)
    cycles = min(DESIGNS[name].cycles, 128)
    ref = NetlistInterpreter(circuit)
    fast = NetlistInterpreter(circuit, engine="fast")
    ref_r = ref.run(cycles)
    fast_r = fast.run(cycles)

    assert fast_r.cycles == ref_r.cycles
    assert fast_r.finished == ref_r.finished
    assert fast_r.displays == ref_r.displays
    assert fast.registers == ref.registers
    assert fast.memories == ref.memories
    assert fast.trace == ref.trace
