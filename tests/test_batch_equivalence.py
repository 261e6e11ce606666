"""Batched execution vs per-lane runs: bit-identity, masking, restore.

``BatchRunner`` advances B runs of one compiled design per Vcycle
through a vectorized kernel.  Its contract is that *nothing* observable
may differ from running each lane alone on the same engine: displays,
finish status, Vcycle counts, performance counters, cache stats, and
per-core architectural state are all bit-identical per lane.  This file
enforces that contract over the whole design registry and both vector
lowerings, plus the divergence semantics (an early ``$finish`` masks
one lane without perturbing the rest), in-flight checkpoint/restore,
the serial fallback for engines without a batched kernel, and the
cache-key separation between scalar and batched emitted sources.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.fuzz.generator import counter_circuit
from repro.fuzz.oracle import fuzz_seed_batch
from repro.machine import (BatchRunner, Machine, MachineConfig,
                           rebind_reg_inits, run_batch)
from repro.machine import codegen as cg
from repro.machine.batch_codegen import have_numpy

from .util_state import assert_packed_core_state

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
    runner = BatchRunner(program, CONFIG, width=3, lowering="list")
    outs = runner.run(budget)
    assert runner.lowering_used == "list"
    assert runner.errors == [None, None, None]
    for lane, out in enumerate(outs):
        _assert_lane_identical(lane, solo_m, solo_r,
                               runner.machines[lane], out)


def test_batch_numpy_lowering_bit_identical():
    """The numpy lowering obeys the same contract (and leaves every
    core's state in its ``array("H")`` objects, which hold plain 16-bit
    words, never a ``numpy.int64``)."""
    pytest.importorskip("numpy")
    assert have_numpy()
    for name in ("mc", "bc"):
        budget = _budget(name)
        program = _program(name)
        solo_m, solo_r = _solo(program, budget)
        runner = BatchRunner(program, CONFIG, width=3, lowering="numpy")
        outs = runner.run(budget)
        assert runner.lowering_used == "numpy"
        for lane, out in enumerate(outs):
            batch_m = runner.machines[lane]
            _assert_lane_identical(lane, solo_m, solo_r, batch_m, out)
            assert_packed_core_state(batch_m)


def _counter_lanes(inits):
    result = _counter_compile()
    return [rebind_reg_inits(result, {"count": v}) if v else
            result.program for v in inits]


def test_divergence_masking_early_finish():
    """Lanes booted closer to the counter limit hit ``$finish`` on
    earlier Vcycles; each masked lane freezes bit-identically to its
    solo run while the rest keep going."""
    inits = [0, 12, 24, 36]
    programs = _counter_lanes(inits)
    runner = BatchRunner(programs, SMALL, lowering="list")
    outs = runner.run(200)
    assert runner.lowering_used == "list"
    finish_vcycles = [out.vcycles for out in outs]
    # Strictly decreasing: every lane diverged at a different Vcycle.
    assert finish_vcycles == sorted(finish_vcycles, reverse=True)
    assert len(set(finish_vcycles)) == len(inits)
    for lane, program in enumerate(programs):
        solo_m, solo_r = _solo(program, 200, SMALL)
        _assert_lane_identical(lane, solo_m, solo_r,
                               runner.machines[lane], outs[lane])


def test_batch_checkpoint_restore_in_flight():
    """A batch interrupted mid-run (some lanes already finished, some
    mid-flight) restores from a JSON-roundtripped snapshot and completes
    bit-identically to the uninterrupted batch."""
    inits = [0, 12, 24, 36]
    programs = _counter_lanes(inits)

    straight = BatchRunner(programs, SMALL, lowering="list")
    golden = straight.run(200)

    first = BatchRunner(programs, SMALL, lowering="list")
    partial = first.run(15)  # lane 3 finished, lanes 0-2 in flight
    assert any(out.finished for out in partial)
    assert not all(out.finished for out in partial)
    state = json.loads(json.dumps(first.checkpoint_state()))

    second = BatchRunner(programs, SMALL, lowering="list")
    second.load_checkpoint_state(state)
    resumed = second.run(200)

    assert second.errors == straight.errors
    for lane in range(len(inits)):
        _assert_lane_identical(
            lane, straight.machines[lane], golden[lane],
            second.machines[lane], resumed[lane])


def test_batch_checkpoint_rejects_mismatch():
    programs = _counter_lanes([0, 12])
    runner = BatchRunner(programs, SMALL)
    state = runner.checkpoint_state()
    other = BatchRunner(programs + programs[:1], SMALL)
    with pytest.raises(ValueError, match="width"):
        other.load_checkpoint_state(state)
    state["version"] = 99
    with pytest.raises(ValueError, match="version"):
        runner.load_checkpoint_state(state)


def test_fast_engine_serial_fallback():
    """Engines without a batched kernel run lanes serially under the
    same API with the same per-lane results."""
    program = _program("mm")
    budget = _budget("mm")
    solo_m, solo_r = _solo(program, budget, engine="fast")
    runner = BatchRunner(program, CONFIG, width=2, engine="fast")
    outs = runner.run(budget)
    assert runner.lowering_used is None
    for lane, out in enumerate(outs):
        _assert_lane_identical(lane, solo_m, solo_r,
                               runner.machines[lane], out)


def test_batch_cache_keys_are_distinct():
    """Scalar and batched kernels of one machine must never collide in
    the content-addressed source cache: the batch width and lowering
    are part of the key (satellite: cache-key separation)."""
    m = Machine(_program("mm"), CONFIG, engine="codegen")
    keys = {cg._content_key(m, variant=v) for v in (
        "scalar", "batch3-list", "batch4-list", "batch3-numpy")}
    assert len(keys) == 4


def test_run_batch_replication_requires_width():
    with pytest.raises(ValueError, match="width"):
        BatchRunner(_program("mm"), CONFIG)
    with pytest.raises(ValueError, match="out of range"):
        BatchRunner(_program("mm"), CONFIG, width=0)


def test_run_batch_one_shot():
    outs = run_batch(_counter_compile().program, 200, SMALL, width=2,
                     lowering="list")
    assert len(outs) == 2
    assert all(out.finished for out in outs)
    assert outs[0].displays == outs[1].displays


def test_fuzz_seed_batch_smoke():
    """The batched fuzz oracle compiles once, fans a seed out to
    init-variant lanes, and finds no divergence on a healthy tree."""
    report = fuzz_seed_batch(3, width=4, lowering="list")
    assert report.ok
    assert report.width == 4
    assert not report.rebind_fallback
    assert report.lowering == "list"
