"""A program's schedule is verified once per process, not once per machine.

Under static BSP one clean strict Vcycle proves issue order, routing and
writeback timing for every Vcycle of a program under a
``MachineConfig``.  ``repro.machine.grid`` keeps one record per program
object: the Vcycle event schedule, built once and shared read-only by
every machine of that program, and the configs a compiled-engine
machine has verified.  A later machine of the same program object and
config starts trusted, exactly as with ``fastpath_verify_vcycles=0``.
The rebound lanes of a batch share their program's record.

Checked here on bc, mc and jpeg at ``small``, for codegen on its Python
kernel, codegen on the native tier and ``fast``: the trusted start is
bit-identical with ``strict``; another config, an unpickled copy and a
program whose strict Vcycle faults all verify again; the schedule is one
tuple shared across machines and leaves with the program; a
thread-mode server runs strict Vcycles for the first job of a design
only; and a batched fuzz seed verifies and derives its kernel key for
the first lane only.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import pickle
import shutil
import sys
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.isa import instructions as isa
from repro.isa.interp import NoCDropError
from repro.machine import Machine, MachineConfig
from repro.machine import grid, native
from repro.serve import SimulationServer, state_digest

CONFIG = MachineConfig(grid_x=8, grid_y=8)
TIERS = ("python", "native", "fast")
HAVE_CC = shutil.which("cc") is not None
WAIT_S = 300


@contextmanager
def _tier(tier: str):
    """``native``: codegen's C tier from the first trusted Vcycle;
    ``python``: codegen's Python kernel only; ``fast``: as is."""
    if tier == "native":
        with native.forced():
            yield
    elif tier == "python":
        with mock.patch.object(native, "_threshold", sys.maxsize), \
                mock.patch.object(native, "_LIBS", {}):
            yield
    else:
        yield


def _engine(tier: str) -> str:
    return "fast" if tier == "fast" else "codegen"


@functools.lru_cache(maxsize=None)
def _small(name: str):
    return compile_circuit(DESIGNS[name].build_at("small"),
                           CompilerOptions(config=CONFIG)).program


def _fresh(name: str):
    """A new program object equal to the compiled one (no record yet)."""
    return pickle.loads(pickle.dumps(_small(name)))


def _observed(machine, result):
    return (state_digest(machine), result.finished, result.vcycles,
            result.displays, result.counters.as_dict(), result.cache)


@contextmanager
def _counting_step_events():
    """Count ``Machine.step_events`` calls (the strict event loop)."""
    calls = []
    real = Machine.step_events

    def counting(machine, max_events):
        calls.append(machine)
        return real(machine, max_events)

    with mock.patch.object(Machine, "step_events", counting):
        yield calls


def _run(program, budget, tier, config=CONFIG):
    """One run; returns the machine, what it observed, whether it was
    trusted when built, and how many strict event-loop calls it made."""
    with _tier(tier), _counting_step_events() as calls:
        machine = Machine(program, config, engine=_engine(tier))
        trusted_at_start = machine._trusted
        result = machine.run(budget)
    return machine, _observed(machine, result), trusted_at_start, len(calls)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", ["bc", "mc", "jpeg"])
def test_second_machine_starts_trusted(name, tier):
    program = _fresh(name)
    budget = DESIGNS[name].cycles_at("small")
    strict = Machine(program, CONFIG, engine="strict")
    expected = _observed(strict, strict.run(budget))
    assert not grid._program_record(program).verified

    first, seen, trusted, first_calls = _run(program, budget, tier)
    assert seen == expected
    assert not trusted and first_calls > 0
    assert grid._program_record(program).verified == {CONFIG}

    second, seen, trusted, calls = _run(program, budget, tier)
    assert seen == expected
    assert trusted
    if tier == "fast":
        # ``fast`` re-verifies after every Vcycle with an exception; it
        # skips exactly the verification Vcycle of the first machine.
        assert calls == first_calls - CONFIG.fastpath_verify_vcycles
    else:
        assert calls == 0
        ran_native = second._fastpath.native_vcycles > 0
        assert ran_native == (tier == "native" and HAVE_CC)


def test_trusted_start_matches_trust0():
    """Starting trusted is the ``fastpath_verify_vcycles=0`` start: the
    same trust state and the same checkpoint image at Vcycle 0."""
    program = _fresh("mc")
    Machine(program, CONFIG, engine="codegen").run(2)
    trust0 = Machine(_fresh("mc"),
                     dataclasses.replace(CONFIG, fastpath_verify_vcycles=0),
                     engine="codegen")
    shared = Machine(program, CONFIG, engine="codegen")
    assert (shared._trusted, shared._verify_left) == (True, 0)
    assert shared.checkpoint_state() == trust0.checkpoint_state()


@pytest.mark.parametrize("engine", ["codegen", "fast"])
def test_another_config_verifies_again(engine):
    program = _fresh("mc")
    budget = DESIGNS["mc"].cycles_at("small")
    Machine(program, CONFIG, engine=engine).run(budget)
    for config in (dataclasses.replace(CONFIG, fastpath_verify_vcycles=2),
                   dataclasses.replace(CONFIG, cache_hit_stall=25)):
        machine = Machine(program, config, engine=engine)
        assert not machine._trusted
        with _counting_step_events() as calls:
            machine.run(budget)
        assert len(calls) >= config.fastpath_verify_vcycles
        assert config in grid._program_record(program).verified
    assert not Machine(program, CONFIG, engine="strict")._trusted


def test_unpickled_program_verifies_again():
    program = _fresh("bc")
    budget = DESIGNS["bc"].cycles_at("small")
    _m, expected, _t, _c = _run(program, budget, "python")
    copy = pickle.loads(pickle.dumps(program))
    machine, seen, trusted, calls = _run(copy, budget, "python")
    assert not trusted and calls > 0
    assert seen == expected
    assert machine._vcycle_events is not \
        grid._program_record(program).events
    assert machine._vcycle_events == grid._program_record(program).events


def _drop_one_send(program):
    """Replace the first Send of the grid with a NOP: the receiver's
    epilogue slot then finds no message, which the strict engine faults."""
    for cid in sorted(program.cores):
        body = program.cores[cid].body
        for i, instr in enumerate(body):
            if isinstance(instr, isa.Send):
                body[i] = isa.Nop()
                return program
    raise AssertionError("program has no Send")


@pytest.mark.parametrize("engine", ["codegen", "fast"])
def test_faulting_program_records_no_verdict(engine):
    bad = _drop_one_send(_fresh("mc"))
    for _ in range(3):
        machine = Machine(bad, CONFIG, engine=engine)
        assert not machine._trusted
        with pytest.raises(NoCDropError):
            machine.run(DESIGNS["mc"].cycles_at("small"))
        assert machine.counters.vcycles == 0
    assert not grid._program_record(bad).verified


def test_batch_lanes_verify_and_key_once():
    """The rebound lanes of a batch share their program's record: the
    first lane alone runs strict verification Vcycles, and the kernel
    key serializes the program once for all eight lanes."""
    from repro.fuzz import fuzz_seed_batch
    from repro.machine import codegen as cg

    lanes, serialized = [], []
    real_run, real_bytes = Machine.run, cg._stripped_program_bytes

    def run(machine, budget):
        lanes.append(machine)
        return real_run(machine, budget)

    def stripped_bytes(program):
        serialized.append(program)
        return real_bytes(program)

    with _counting_step_events() as calls, \
            mock.patch.object(Machine, "run", run), \
            mock.patch.object(cg, "_stripped_program_bytes",
                              stripped_bytes):
        report = fuzz_seed_batch(0, width=8)
    assert report.ok and not report.rebind_fallback
    assert len(lanes) == 8
    first = lanes[0]
    assert calls and all(machine is first for machine in calls)
    assert [id(p) for p in serialized] == [id(first.program)]
    assert all(m._trusted for m in lanes[1:])


def _reference_events(program):
    """The per-machine event merge the shared schedule replaces."""
    events = []
    for cid, binary in program.cores.items():
        for cycle, instr in enumerate(binary.body):
            if not isinstance(instr, isa.Nop):
                events.append((cycle, cid, instr))
        epi_start = len(binary.body)
        for k in range(binary.epilogue_length):
            events.append((epi_start + k, cid, "recv"))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def test_schedule_is_shared_and_evicted_with_the_program():
    program = _fresh("jpeg")
    pid = id(program)
    a = Machine(program, CONFIG, engine="strict")
    b = Machine(program, CONFIG, engine="codegen")
    assert type(a._vcycle_events) is tuple
    assert a._vcycle_events is b._vcycle_events
    assert list(a._vcycle_events) == _reference_events(program)
    for cid, core in a.cores.items():
        assert core.events is b.cores[cid].events
        assert list(core.events) == [
            (cycle, instr) for cycle, instr
            in enumerate(program.cores[cid].body)
            if not isinstance(instr, isa.Nop)]
    assert pid in grid._RECORDS
    del a, b, program, core
    gc.collect()
    assert pid not in grid._RECORDS


def test_served_jobs_of_one_design_verify_once():
    """Six codegen jobs of one design on a thread-mode server: the
    first verifies, the five after it start trusted (they share the
    first job's program object through the artifact LRU)."""
    name = "mc"
    budget = DESIGNS[name].cycles + 300
    direct = Machine(compile_circuit(DESIGNS[name].build(),
                                     CompilerOptions(config=CONFIG))
                     .program, CONFIG, engine="strict")
    direct.run(budget)
    expected = state_digest(direct)

    async def go(calls):
        async with SimulationServer(workers=2, mode="thread",
                                    config=CONFIG) as server:
            first = await server.submit(design=name, engine="codegen")
            await server.wait(first.id, timeout=WAIT_S)
            first_calls = len(calls)
            rest = [await server.submit(design=name, engine="codegen")
                    for _ in range(5)]
            for job in rest:
                await server.wait(job.id, timeout=WAIT_S)
            return [first, *rest], first_calls

    with _counting_step_events() as calls:
        jobs, first_calls = asyncio.run(go(calls))
    assert first_calls > 0
    assert len(calls) == first_calls
    for job in jobs:
        assert job.state == "done", job.error
        assert job.result["state_sha256"] == expected
