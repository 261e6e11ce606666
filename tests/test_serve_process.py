"""The job server's process mode: one worker process per job slot.

A slot's process serves its jobs one after another, each dispatch one
request that loads the compiled artifact once and runs the same
executor as thread mode (so a trusted ``codegen`` job advances in bulk
calls), a job that raises fails only itself (with the same
``"{Type}: {msg}"`` text as in thread mode) and the slot's next job
still finishes, a process that died between jobs is replaced without
spending a retry, ``close()`` leaves no process behind, and the start
method is a property of the platform alone.  Preemption and worker death
*mid-job* are covered in ``tests/test_serve_preemption.py``.  Every wait
carries a timeout, so a hang is a test failure.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import shutil
import signal
import threading
import time
from unittest import mock

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.compiler.cache import CompileCache
from repro.designs import DESIGNS
from repro.fuzz.generator import counter_circuit
from repro.machine import Machine, MachineConfig
from repro.netlist.builder import CircuitBuilder
from repro.serve import SimulationServer, state_digest
from repro.serve import server as serve_server

CONFIG = MachineConfig(grid_x=3, grid_y=3)
WAIT_S = 120


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One compile cache for the module: each circuit compiles once."""
    return str(tmp_path_factory.mktemp("serve-process-cache"))


def _failing_circuit():
    """A counter whose assertion fails when it reaches 5."""
    m = CircuitBuilder("failing")
    count = m.register("count", 8)
    count.next = (count + 1).trunc(8)
    m.check(count == 5, count == 6, "count reached five")
    m.finish(count == 9)
    return m.build()


def _serve(cache_dir, body, *, mode="process", workers=1):
    """Run ``body(server)`` on a started server; returns its result."""
    async def go():
        async with SimulationServer(workers=workers, mode=mode,
                                    config=CONFIG,
                                    cache_dir=cache_dir) as server:
            return await asyncio.wait_for(body(server), timeout=WAIT_S)
    return asyncio.run(go())


async def _run(server, circuit=None, cycles=200):
    job = await server.submit(circuit=circuit or counter_circuit(),
                              cycles=cycles)
    return await server.wait(job.id, timeout=WAIT_S)


def test_jobs_in_a_row_share_the_slot_process(cache_dir):
    async def body(server):
        return [await _run(server), await _run(server)]

    first, second = _serve(cache_dir, body)
    for job in (first, second):
        assert job.state == "done", job.error
        assert len(job.pids) == 1
    assert first.pids == second.pids, \
        "a slot's process must serve its next job"


def test_chunk_exception_fails_job_and_slot_survives(cache_dir):
    async def thread_body(server):
        return await _run(server, _failing_circuit())

    async def process_body(server):
        failed = await _run(server, _failing_circuit())
        healthy = await _run(server)
        return failed, healthy

    reference = _serve(cache_dir, thread_body, mode="thread")
    failed, healthy = _serve(cache_dir, process_body)
    assert reference.state == "failed"
    assert reference.error.startswith("SimulationFailure: ")
    assert failed.state == "failed"
    assert failed.error == reference.error
    assert failed.attempts == 0, "a raising chunk is not a lost worker"
    assert healthy.state == "done", healthy.error
    assert healthy.pids == failed.pids


def test_slot_process_killed_between_jobs_is_replaced(cache_dir):
    async def body(server):
        first = await _run(server)
        proc, _ = server._procs[0]
        os.kill(proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + WAIT_S
        while proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return first, await _run(server)

    first, second = _serve(cache_dir, body)
    assert second.state == "done", second.error
    assert second.attempts == 0, "a process dead before dispatch " \
                                 "costs no retry"
    assert second.pids != first.pids


def test_preemption_aimed_during_compile_reaches_the_worker(cache_dir):
    """A priority preemption picks a job still compiling: the request
    goes down the pipe right after the job's dispatch, the job stops and
    resumes in the same slot process, and that process drops the
    preemption message it reads before the resume's request."""
    entered, gate = threading.Event(), threading.Event()
    real = serve_server.compile_circuit

    def held_compile(circuit, options):
        entered.set()
        gate.wait(WAIT_S)
        return real(circuit, options)

    async def body(server):
        low = await server.submit(tenant="a", circuit=counter_circuit(),
                                  cycles=200, priority=1)
        assert await asyncio.to_thread(entered.wait, WAIT_S)
        high = await server.submit(tenant="b", circuit=counter_circuit(),
                                   cycles=200, priority=2)
        assert low.preempt_flag.is_set(), "no victim was picked"
        gate.set()
        return (await server.wait(low.id, timeout=WAIT_S),
                await server.wait(high.id, timeout=WAIT_S))

    with mock.patch.object(serve_server, "compile_circuit", held_compile):
        low, high = _serve(cache_dir, body)
    assert low.state == "done", low.error
    assert high.state == "done", high.error
    assert low.preemptions == 1 and high.preemptions == 0
    assert len(low.pids) == 2 and len(set(low.pids + high.pids)) == 1
    assert low.result["resumed_from"] is not None
    assert low.result["state_sha256"] == high.result["state_sha256"]


def test_close_leaves_no_worker_process(cache_dir):
    async def go():
        server = SimulationServer(workers=2, mode="process", config=CONFIG,
                                  cache_dir=cache_dir)
        await server.start()
        try:
            jobs = [await server.submit(circuit=counter_circuit(),
                                        cycles=200) for _ in range(2)]
            for job in jobs:
                await server.wait(job.id, timeout=WAIT_S)
            procs = [proc for proc, _ in server._procs.values()]
        finally:
            await server.close()
        return jobs, procs

    jobs, procs = asyncio.run(go())
    assert all(job.state == "done" for job in jobs)
    assert procs
    for proc in procs:
        assert not proc.is_alive()
    assert not {p.pid for p in procs} & \
        {child.pid for child in mp.active_children()}


def _damaging_compile(cache_dir, damage, times):
    """``compile_circuit`` that damages the entry it just stored, on its
    first ``times`` calls: a flipped byte, or a valid entry of another
    circuit copied over it."""
    other = compile_circuit(counter_circuit(limit=20),
                            CompilerOptions(config=CONFIG,
                                            cache_dir=cache_dir))
    store = CompileCache(cache_dir).store
    other_entry = store.path("pkl", other.report.cache["key"])
    real = serve_server.compile_circuit
    calls = []

    def compile_then_damage(circuit, options):
        compiled = real(circuit, options)
        calls.append(compiled.report.cache["status"])
        if len(calls) > times:
            return compiled
        entry = store.path("pkl", compiled.report.cache["key"])
        if damage == "other-key":
            shutil.copyfile(other_entry, entry)
        else:
            data = bytearray(entry.read_bytes())
            data[len(data) // 2] ^= 0x01
            entry.write_bytes(data)
        return compiled

    return compile_then_damage, calls


@pytest.mark.parametrize("damage", ["flipped-byte", "other-key"])
def test_artifact_damaged_before_the_worker_loads_it_fails_the_job(
        tmp_path, damage):
    """The compile entry is damaged after the server compiled it and
    before the slot worker loads it - a flipped byte, or a valid entry
    of another circuit copied over it: the worker reports it missing,
    the server compiles again (re-storing the entry) and redispatches
    once, and the job finishes with the digest of its own program,
    never the other circuit's."""
    cache_dir = str(tmp_path)
    compile_then_damage, calls = _damaging_compile(cache_dir, damage, 1)
    with mock.patch.object(serve_server, "compile_circuit",
                           compile_then_damage):
        job = _serve(cache_dir, _run)
    assert job.state == "done", (job.state, job.error)
    assert calls == ["miss", "miss"], "the recompile did not re-store"
    assert job.attempts == 0
    program = compile_circuit(counter_circuit(), CompilerOptions(
        config=CONFIG, cache_dir=cache_dir)).program
    machine = Machine(program, CONFIG)
    result = machine.run(200)
    assert job.result["vcycles"] == result.vcycles
    assert job.result["state_sha256"] == state_digest(machine)


@pytest.mark.parametrize("damage", ["flipped-byte", "other-key"])
def test_artifact_missing_again_after_the_recompile_fails_the_job(
        tmp_path, damage):
    """The entry is damaged again after the recompile: the second miss
    fails the job with the named missing-artifact error instead of
    running some other program."""
    cache_dir = str(tmp_path)
    compile_then_damage, calls = _damaging_compile(cache_dir, damage, 2)
    with mock.patch.object(serve_server, "compile_circuit",
                           compile_then_damage):
        job = _serve(cache_dir, _run)
    assert job.state == "failed", (job.state, job.result)
    assert job.error.startswith("RuntimeError: compiled artifact "), \
        job.error
    assert "missing from cache" in job.error
    assert len(calls) == 2 and job.attempts == 0


def test_start_method_ignores_environment(cache_dir, monkeypatch):
    """``fork`` where the platform has it, else the platform default: no
    environment variable selects another one."""
    monkeypatch.setenv("REPRO_POOL_START", "forkserver")
    expected = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else None)

    async def body(server):
        job = await _run(server)
        return job, server._procs[0][0]

    job, proc = _serve(cache_dir, body)
    assert job.state == "done", job.error
    assert isinstance(proc, expected.Process)


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the call counters reach the worker by fork")
def test_codegen_job_loads_once_and_runs_in_bulk(tmp_path, monkeypatch):
    """A ``bc`` codegen job: one artifact load in its worker, the bulk
    loop after the verification Vcycle instead of ~513 single steps,
    and the digest of an uninterrupted ``Machine.run``."""
    config = MachineConfig(grid_x=8, grid_y=8)
    budget = DESIGNS["bc"].cycles + 300
    log = tmp_path / "calls.log"

    def count(cls, name):
        real = getattr(cls, name)

        def counted(self, *args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {name}\n")
            return real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    count(Machine, "_run_bulk")
    count(Machine, "step_vcycle")
    count(CompileCache, "get")

    async def go():
        async with SimulationServer(workers=1, mode="process",
                                    config=config,
                                    cache_dir=str(tmp_path / "cache"),
                                    engine_default="codegen") as server:
            job = await server.submit(design="bc", cycles=budget)
            return await server.wait(job.id, timeout=WAIT_S)

    job = asyncio.run(go())
    assert job.state == "done", job.error
    assert job.result["finished"]
    worker = [line.split()[1] for line in log.read_text().splitlines()
              if int(line.split()[0]) == job.pids[0]]
    assert worker.count("get") == len(job.pids) == 1
    assert worker.count("_run_bulk") >= 1
    assert worker.count("step_vcycle") <= \
        config.fastpath_verify_vcycles + 2

    program = compile_circuit(DESIGNS["bc"].build(),
                              CompilerOptions(config=config)).program
    machine = Machine(program, config, engine="codegen")
    machine.run(budget)
    assert job.result["vcycles"] == machine.counters.vcycles
    assert job.result["state_sha256"] == state_digest(machine)
