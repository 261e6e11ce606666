"""Batched execution vs per-lane runs: bit-identity and divergence.

A batch of B stimuli is B scalar machines over one compile: lanes share
one program (or :func:`~repro.machine.rebind_reg_inits` variants of it)
and so one schedule record and one kernel key.  The contract is that
*nothing* observable may differ from running each lane alone on the
same engine: displays, finish status, Vcycle counts, performance
counters, cache stats, and per-core architectural state are all
bit-identical per lane.  This file enforces that contract over the
whole design registry, plus divergence (lanes that reach ``$finish`` on
different Vcycles) and the ``fast`` engine.
"""

from __future__ import annotations

import functools

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.fuzz.generator import counter_circuit
from repro.fuzz.oracle import fuzz_seed_batch
from repro.machine import Machine, MachineConfig, rebind_reg_inits

CONFIG = MachineConfig(grid_x=8, grid_y=8)
SMALL = MachineConfig(grid_x=3, grid_y=3)

ALL_DESIGNS = sorted(DESIGNS)


@functools.lru_cache(maxsize=None)
def _program(name: str):
    options = CompilerOptions(config=CONFIG)
    return compile_circuit(DESIGNS[name].build(), options).program


def _budget(name: str) -> int:
    return max(64, DESIGNS[name].cycles + 300)


@functools.lru_cache(maxsize=None)
def _counter_compile(limit: int = 40):
    circuit = counter_circuit(limit=limit, width=8)
    return compile_circuit(circuit, CompilerOptions(config=SMALL))


def _solo(program, budget, config=CONFIG, engine="codegen"):
    m = Machine(program, config, engine=engine)
    return m, m.run(budget)


def _lanes(programs, budget, config=CONFIG, engine="codegen"):
    """Every lane's machine, built up front, then run in lane order."""
    machines = [Machine(p, config, engine=engine) for p in programs]
    return machines, [m.run(budget) for m in machines]


def _assert_lane_identical(lane, solo_m, solo_r, batch_m, batch_r):
    tag = f"lane {lane}"
    assert batch_r.vcycles == solo_r.vcycles, tag
    assert batch_r.finished == solo_r.finished, tag
    assert batch_r.displays == solo_r.displays, tag
    assert batch_r.counters == solo_r.counters, tag
    assert batch_r.cache == solo_r.cache, tag
    for cid, core in solo_m.cores.items():
        batch_core = batch_m.cores[cid]
        assert batch_core.regs == core.regs, f"{tag} core {cid} regs"
        assert batch_core.scratch == core.scratch, \
            f"{tag} core {cid} scratch"


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_batch_bit_identical(name):
    """Three identical lanes of every design match three solo runs."""
    budget = _budget(name)
    program = _program(name)
    solo_m, solo_r = _solo(program, budget)
    machines, outs = _lanes([program] * 3, budget)
    for lane, out in enumerate(outs):
        _assert_lane_identical(lane, solo_m, solo_r, machines[lane], out)


def _counter_lanes(inits):
    result = _counter_compile()
    return [rebind_reg_inits(result, {"count": v}) if v else
            result.program for v in inits]


def test_divergence_masking_early_finish():
    """Lanes booted closer to the counter limit hit ``$finish`` on
    earlier Vcycles; each lane ends bit-identically to its solo run."""
    inits = [0, 12, 24, 36]
    programs = _counter_lanes(inits)
    machines, outs = _lanes(programs, 200, SMALL)
    finish_vcycles = [out.vcycles for out in outs]
    # Strictly decreasing: every lane diverged at a different Vcycle.
    assert finish_vcycles == sorted(finish_vcycles, reverse=True)
    assert len(set(finish_vcycles)) == len(inits)
    for lane, program in enumerate(programs):
        solo_m, solo_r = _solo(program, 200, SMALL)
        _assert_lane_identical(lane, solo_m, solo_r,
                               machines[lane], outs[lane])


def test_fast_engine_serial_fallback():
    """Lanes on the ``fast`` engine give the same per-lane results."""
    program = _program("mm")
    budget = _budget("mm")
    solo_m, solo_r = _solo(program, budget, engine="fast")
    machines, outs = _lanes([program] * 2, budget, engine="fast")
    for lane, out in enumerate(outs):
        _assert_lane_identical(lane, solo_m, solo_r, machines[lane], out)


def test_fuzz_seed_batch_requires_a_lane():
    with pytest.raises(ValueError, match="width"):
        fuzz_seed_batch(3, width=0)


def test_fuzz_seed_batch_smoke():
    """The batched fuzz oracle compiles once, fans a seed out to
    init-variant lanes, and finds no divergence on a healthy tree."""
    report = fuzz_seed_batch(3, width=4)
    assert report.ok
    assert report.width == 4
    assert not report.rebind_fallback
