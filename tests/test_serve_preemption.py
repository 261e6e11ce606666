"""Preemption is invisible and worker death is loud.

The two hard promises of the service:

* **bit-identical preemption + migration** — a job preempted mid-Vcycle
  (checking engines pause between events: pending writebacks and NoC
  messages in flight are part of the handoff snapshot) and resumed on a
  *different* worker finishes byte-equal to a run that was never
  interrupted.  Proven at the driver layer (the snapshot demonstrably
  lands mid-Vcycle) and end-to-end through the server (the job's worker
  history shows the migration);
* **fault isolation, never a hang** — in process mode a SIGKILLed
  worker surfaces as :class:`~repro.pool.PoolWorkerLost`; the job is
  retried from its last durable snapshot on a fresh process (and still
  finishes bit-identical) or, with the retry budget exhausted, fails
  with a diagnostic.  Every wait in this file carries a timeout, so a
  hang is a test failure, not a CI freeze.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import threading
from unittest import mock

import pytest

from repro.checkpoint import CheckpointStore, load_snapshot, \
    run_with_checkpoints
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import Machine, MachineConfig
from repro.serve import SimulationServer, state_digest
from repro.serve import server as serve_server

CONFIG = MachineConfig(grid_x=8, grid_y=8)

#: Outer timeout on every server-path wait: generous on a loaded CI
#: box, but finite — the fault-injection cases must never hang.
WAIT_S = 300


def _budget(name: str) -> int:
    return max(64, DESIGNS[name].cycles + 300)


@functools.lru_cache(maxsize=None)
def _program(name: str):
    return compile_circuit(DESIGNS[name].build(),
                           CompilerOptions(config=CONFIG)).program


@functools.lru_cache(maxsize=None)
def _direct(name: str, engine: str):
    machine = Machine(_program(name), CONFIG, engine=engine)
    result = machine.run(_budget(name))
    return result, state_digest(machine)


# ---------------------------------------------------------------------------
# Driver layer: the preemption hook itself.
# ---------------------------------------------------------------------------


def test_driver_preempts_mid_vcycle_and_resumes_bit_identical(tmp_path):
    """Checking engine + preempt_grain: the handoff snapshot provably
    lands *inside* a Vcycle, and the continuation matches the
    uninterrupted run exactly."""
    name, engine = "mc", "strict"
    ref, ref_digest = _direct(name, engine)
    store = CheckpointStore(tmp_path, keep=5)

    polls = {"n": 0}

    def preempt() -> bool:
        polls["n"] += 1
        return polls["n"] >= 3   # a few event-chunks into some Vcycle

    first = run_with_checkpoints(
        _program(name), _budget(name), config=CONFIG, engine=engine,
        store=store, preempt=preempt, preempt_grain=4)
    assert first.preempted
    assert first.published, "preemption must publish a handoff snapshot"

    handoff = load_snapshot(first.published[-1])
    assert handoff.payload["state"]["event_pos"] > 0, \
        "handoff snapshot did not land mid-Vcycle"

    second = run_with_checkpoints(
        _program(name), _budget(name), config=CONFIG, engine=engine,
        store=store, resume=True)
    assert not second.preempted
    assert second.resumed_from == handoff.vcycle
    assert second.result.finished == ref.finished
    assert second.result.vcycles == ref.vcycles
    assert second.result.displays == ref.displays
    assert second.result.counters.as_dict() == ref.counters.as_dict()
    assert state_digest(second.machine) == ref_digest


def test_driver_preempt_on_trusted_engine_at_vcycle_boundary(tmp_path):
    """Once a compiled engine is past its verification window it
    executes Vcycles atomically: the hook still stops the run, at a
    boundary (``event_pos == 0``), and the resume is bit-identical.
    (During the verification window the engine event-steps like a
    checking engine, so the preemption is armed by Vcycle count.)"""
    name, engine = "mc", "fast"
    ref, ref_digest = _direct(name, engine)
    store = CheckpointStore(tmp_path, keep=5)

    seen = {"vcycles": 0}

    def on_vcycle(_machine) -> None:
        seen["vcycles"] += 1

    first = run_with_checkpoints(
        _program(name), _budget(name), config=CONFIG, engine=engine,
        store=store, on_vcycle=on_vcycle,
        preempt=lambda: seen["vcycles"] >= 5, preempt_grain=8)
    assert first.preempted
    assert load_snapshot(first.published[-1]) \
        .payload["state"]["event_pos"] == 0

    second = run_with_checkpoints(
        _program(name), _budget(name), config=CONFIG, engine=engine,
        store=store, resume=True)
    assert second.result.displays == ref.displays
    assert state_digest(second.machine) == ref_digest


# ---------------------------------------------------------------------------
# Server layer: preempt, migrate, resume.
# ---------------------------------------------------------------------------


async def _preempt_once_running(server, job, deadline_s: float) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        if job.finished:
            return False
        if job.state == "running" and server.preempt(job.id):
            return True
        await asyncio.sleep(0.002)
    return False


def test_server_preempts_migrates_and_matches_uninterrupted_run():
    name, engine = "mc", "strict"
    ref, ref_digest = _direct(name, engine)

    async def go():
        async with SimulationServer(workers=2, mode="thread",
                                    config=CONFIG,
                                    preempt_grain=4) as server:
            job = await server.submit(design=name, engine=engine,
                                      cycles=_budget(name))
            delivered = await _preempt_once_running(server, job, WAIT_S)
            assert delivered, "job finished before it could be preempted"
            done = await server.wait(job.id, timeout=WAIT_S)
            return done

    job = asyncio.run(go())
    assert job.state == "done", job.error
    assert job.preemptions == 1
    # Migration: the resume ran on a different worker than the
    # preempted attempt.
    assert len(job.workers) == 2
    assert len(set(job.workers)) == 2
    # And the interruption is invisible in the result.
    assert job.result["displays"] == ref.displays
    assert job.result["finished"] == ref.finished
    assert job.result["vcycles"] == ref.vcycles
    assert job.result["state_sha256"] == ref_digest


def test_priority_submission_preempts_running_low_priority_job():
    """With every worker busy, a higher-priority submission preempts
    the weakest preemptible running job; both still finish correctly."""
    name, engine = "mc", "strict"
    _, ref_digest = _direct(name, engine)

    async def go():
        async with SimulationServer(workers=1, mode="thread",
                                    config=CONFIG,
                                    preempt_grain=4) as server:
            low = await server.submit(design=name, engine=engine,
                                      cycles=_budget(name), priority=1)
            # Wait until the low-priority job holds the only worker.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + WAIT_S
            while low.state != "running" and loop.time() < deadline:
                await asyncio.sleep(0.002)
            assert low.state == "running"
            high = await server.submit(design=name, engine=engine,
                                       cycles=_budget(name), priority=5)
            low_done = await server.wait(low.id, timeout=WAIT_S)
            high_done = await server.wait(high.id, timeout=WAIT_S)
            return low_done, high_done

    low, high = asyncio.run(go())
    assert high.state == "done" and high.preemptions == 0
    assert low.state == "done"
    assert low.preemptions >= 1, \
        "the high-priority submission should have preempted the runner"
    assert low.result["state_sha256"] == ref_digest
    assert high.result["state_sha256"] == ref_digest


def test_priority_preemption_aimed_during_compile_is_kept():
    """A job still compiling holds its worker, so a higher-priority
    submission may pick it as the victim; the request must survive the
    compile and preempt the job once it runs."""
    name, engine = "mc", "strict"
    _, ref_digest = _direct(name, engine)
    entered, gate = threading.Event(), threading.Event()

    def held_compile(circuit, options):
        entered.set()
        gate.wait(WAIT_S)
        return compile_circuit(circuit, options)

    async def go():
        async with SimulationServer(workers=1, mode="thread",
                                    config=CONFIG,
                                    preempt_grain=4) as server:
            low = await server.submit(tenant="a", design=name,
                                      engine=engine, cycles=_budget(name),
                                      priority=1)
            assert await asyncio.to_thread(entered.wait, WAIT_S)
            assert low.state == "compiling"
            high = await server.submit(tenant="b", design=name,
                                       engine=engine, cycles=_budget(name),
                                       priority=2)
            assert low.preempt_flag.is_set(), "no victim was picked"
            gate.set()
            low_done = await server.wait(low.id, timeout=WAIT_S)
            high_done = await server.wait(high.id, timeout=WAIT_S)
            return low_done, high_done, server.counter["preempted"]

    with mock.patch.object(serve_server, "compile_circuit", held_compile):
        low, high, preempted = asyncio.run(go())
    assert low.state == "done" and high.state == "done"
    assert low.preemptions == 1 and preempted == 1
    assert high.preemptions == 0
    assert low.result["state_sha256"] == ref_digest
    assert high.result["state_sha256"] == ref_digest


# ---------------------------------------------------------------------------
# Fault injection: SIGKILLed workers.
# ---------------------------------------------------------------------------


async def _kill_once_running(job, deadline_s: float) -> int | None:
    """SIGKILL the worker process executing ``job`` once it has a pid
    and is running; returns the killed pid (None if the job finished
    first)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        if job.finished:
            return None
        if job.state == "running" and job.pids:
            pid = job.pids[-1]
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return None
            return pid
        await asyncio.sleep(0.002)
    return None


def test_sigkilled_worker_is_retried_and_result_still_bit_identical():
    name, engine = "bc", "fast"
    ref, ref_digest = _direct(name, engine)

    async def go():
        async with SimulationServer(workers=1, mode="process",
                                    config=CONFIG, chunk_vcycles=64,
                                    retries=1) as server:
            job = await server.submit(design=name, engine=engine,
                                      cycles=_budget(name))
            killed = await _kill_once_running(job, WAIT_S)
            assert killed is not None, \
                "job finished before the worker could be killed"
            done = await asyncio.wait_for(
                server.wait(job.id, timeout=WAIT_S), timeout=WAIT_S)
            return done, killed

    job, killed = asyncio.run(go())
    assert job.state == "done", job.error
    assert job.attempts == 1, "the lost worker must consume a retry"
    # The retry ran on a freshly spawned process.
    assert len(job.pids) == 2
    assert job.pids[0] == killed
    assert job.pids[1] != killed
    # And the crash is invisible in the result.
    assert job.result["displays"] == ref.displays
    assert job.result["finished"] == ref.finished
    assert job.result["state_sha256"] == ref_digest


def test_sigkilled_worker_with_no_retries_fails_loudly_never_hangs():
    name, engine = "bc", "fast"

    async def go():
        async with SimulationServer(workers=1, mode="process",
                                    config=CONFIG, chunk_vcycles=64,
                                    retries=0) as server:
            job = await server.submit(design=name, engine=engine,
                                      cycles=_budget(name))
            killed = await _kill_once_running(job, WAIT_S)
            assert killed is not None, \
                "job finished before the worker could be killed"
            done = await asyncio.wait_for(
                server.wait(job.id, timeout=WAIT_S), timeout=WAIT_S)
            return done

    job = asyncio.run(go())
    assert job.state == "failed"
    assert job.attempts == 1
    assert "worker lost" in job.error
    assert "retries exhausted" in job.error


def test_worker_lease_surfaces_death_immediately():
    """The pool-lease primitive itself: SIGKILL between calls raises
    PoolWorkerLost on the next call instead of blocking."""
    from repro.pool import PersistentPool, PoolWorkerLost

    pool = PersistentPool()
    try:
        lease = pool.lease()
        assert lease.run(len, [1, 2, 3]) == 3
        os.kill(lease.pid, signal.SIGKILL)
        with pytest.raises(PoolWorkerLost):
            lease.run(len, [1])
        lease._worker.proc.join(timeout=10)   # reap before checking
        assert not lease.alive
        pool.reclaim(lease)            # burying a dead lease is fine
        fresh = pool.lease()           # and the next lease is healthy
        assert fresh.pid != lease.pid
        assert fresh.run(len, [1]) == 1
        pool.reclaim(fresh)
    finally:
        pool.close()
