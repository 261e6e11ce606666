"""Jobs of one design share one compiled artifact, safely.

A thread-mode :class:`~repro.serve.SimulationServer` keeps the last
``ARTIFACT_LRU_SIZE`` finished ``CompileResult`` objects in memory, so
every job of a design runs the same ``MachineProgram`` object.  That is
only sound because nothing mutates a program after compile: running it
on any engine leaves its bootloader stream byte-identical.  This file
holds that rule, the sharing itself (one object, digests equal to a
direct ``Machine.run``), the ``"hit"`` status of an in-memory hit and
the LRU's eviction; ``tests/test_serve_dedupe.py`` keeps the
miss/shared/hit contract.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import sys
from pathlib import Path

import pytest

from repro import checkpoint as ck
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import Machine, MachineConfig
from repro.machine import native
from repro.machine.boot import serialize
from repro.serve import SimulationServer, state_digest
from repro.serve import server as serve_server

CONFIG = MachineConfig(grid_x=8, grid_y=8)


def _budget(name: str) -> int:
    return max(64, DESIGNS[name].cycles + 300)


@functools.lru_cache(maxsize=None)
def _direct_digest(name: str, engine: str) -> str:
    program = compile_circuit(DESIGNS[name].build(),
                              CompilerOptions(config=CONFIG)).program
    machine = Machine(program, CONFIG, engine=engine)
    machine.run(_budget(name))
    return state_digest(machine)


@pytest.mark.parametrize("name", ["bc", "mc", "jpeg"])
def test_running_a_program_never_changes_it(name):
    program = compile_circuit(DESIGNS[name].build_at("small"),
                              CompilerOptions(config=CONFIG)).program
    budget = DESIGNS[name].cycles_at("small")
    before = hashlib.sha256(serialize(program)).hexdigest()
    for engine, forced in (("strict", False), ("codegen", False),
                           ("codegen", True)):
        machine = Machine(program, CONFIG, engine=engine)
        if forced:
            with native.forced():
                machine.run(budget)
        else:
            machine.run(budget)
        ck.capture(machine)
        assert hashlib.sha256(serialize(program)).hexdigest() == before
    assert ck.program_fingerprint(program) == before


def _recording_programs(monkeypatch) -> dict:
    """Job id -> the program object its thread-mode run received (the
    id is read back from the job's checkpoint dir, ``job-<id>``)."""
    seen = {}
    real = serve_server.run_job

    def recording(program, spec, preempt):
        seen[int(Path(spec["ckpt_dir"]).name.removeprefix("job-"))] = \
            program
        return real(program, spec, preempt)

    monkeypatch.setattr(serve_server, "run_job", recording)
    return seen


def test_jobs_of_one_design_share_one_program(monkeypatch):
    """Two concurrent jobs (one compiles, one shares the future), then
    two more (both in-memory hits): one program object for all four,
    each digest equal to a direct run."""
    programs = _recording_programs(monkeypatch)

    async def go():
        async with SimulationServer(workers=2, mode="thread",
                                    config=CONFIG) as server:
            jobs = []
            for _round in range(2):
                batch = [await server.submit(tenant=tenant, design="mc",
                                             engine="codegen")
                         for tenant in ("alice", "bob")]
                for job in batch:
                    jobs.append(await server.wait(job.id, timeout=300))
            return jobs, server

    jobs, server = asyncio.run(go())
    statuses = [j.cache["status"] for j in jobs]
    assert sorted(statuses[:2]) == ["miss", "shared"]
    assert statuses[2:] == ["hit", "hit"]
    first = programs[jobs[0].id]
    assert all(programs[j.id] is first for j in jobs)
    expected = _direct_digest("mc", "codegen")
    assert all(j.result["state_sha256"] == expected for j in jobs)
    assert not server._artifacts           # close() clears the LRU


def test_shared_programs_under_thread_contention(monkeypatch):
    """More workers than cores and a short switch interval: jobs of two
    designs, interleaved on shared program objects, all get the direct
    run's digest."""
    programs = _recording_programs(monkeypatch)
    designs = ["mc", "jpeg"] * 4

    async def go():
        async with SimulationServer(workers=4, mode="thread",
                                    config=CONFIG) as server:
            jobs = [await server.submit(design=d, engine="codegen")
                    for d in designs]
            return [await server.wait(j.id, timeout=300) for j in jobs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        jobs = asyncio.run(go())
    finally:
        sys.setswitchinterval(interval)
    for design in set(designs):
        mine = [j for j in jobs if j.design == design]
        assert len({id(programs[j.id]) for j in mine}) == 1
        expected = _direct_digest(design, "codegen")
        assert all(j.state == "done" for j in mine)
        assert all(j.result["state_sha256"] == expected for j in mine)


def test_lru_hit_skips_the_compile_and_evicts_beyond_its_bound(
        monkeypatch):
    monkeypatch.setattr(serve_server, "ARTIFACT_LRU_SIZE", 1)
    compiles = []
    real = serve_server.compile_circuit

    def counting(circuit, options):
        compiles.append(circuit.name)
        return real(circuit, options)

    monkeypatch.setattr(serve_server, "compile_circuit", counting)

    async def go():
        async with SimulationServer(workers=1, mode="thread",
                                    config=CONFIG) as server:
            jobs = []
            for design in ("mm", "mm", "mc", "mm"):
                job = await server.submit(design=design, engine="fast")
                jobs.append(await server.wait(job.id, timeout=300))
                resident = list(server._artifacts)
            return jobs, resident, server.metrics_snapshot()

    jobs, resident, metrics = asyncio.run(go())
    mm_key = jobs[0].cache_key
    # mm compiles; its resubmission hits memory and runs no compile; mc
    # evicts it; the third mm goes back through the disk artifact.
    assert [j.cache["status"] for j in jobs] == ["miss", "hit", "miss",
                                                 "hit"]
    assert jobs[1].cache["hits"] >= 1
    assert len(compiles) == 3
    assert resident == [mm_key]
    assert metrics["compile"]["compiles"] == 2
    assert metrics["compile"]["cache_hits"] == 2
    for job in jobs:
        assert job.result["state_sha256"] == \
            _direct_digest(job.design, "fast")
