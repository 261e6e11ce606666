"""The job server's process mode: one worker process per job slot.

A slot's process serves its jobs one after another, a chunk that raises
fails only its job (with the same ``"{Type}: {msg}"`` text as in thread
mode) and the slot's next job still finishes, a process that died
between jobs is replaced without spending a retry, ``close()`` leaves
no process behind, and the start method is a property of the platform
alone.  Worker death *mid-job* is covered in
``tests/test_serve_preemption.py``.  Every wait carries a timeout, so a
hang is a test failure.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.fuzz.generator import counter_circuit
from repro.machine import MachineConfig
from repro.netlist.builder import CircuitBuilder
from repro.serve import SimulationServer

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
                                    config=CONFIG, cache_dir=cache_dir,
                                    chunk_vcycles=16) as server:
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


def test_close_leaves_no_worker_process(cache_dir):
    async def go():
        server = SimulationServer(workers=2, mode="process", config=CONFIG,
                                  cache_dir=cache_dir, chunk_vcycles=16)
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
