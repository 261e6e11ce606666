"""Leased worker processes (``repro.pool``): the substrate of the job
server's ``mode="process"``.  A reclaimed healthy worker is reused,
worker exceptions keep their type without killing the worker, only
functions importable by name are dispatchable, and ``close()`` leaves
no process behind.  Worker death mid-lease is covered in
``tests/test_serve_preemption.py``."""

import pickle

import pytest

from repro.pool import PersistentPool, start_method, task_ref


def _square(x: int) -> int:   # module-level: dispatchable into workers
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


@pytest.fixture
def pool():
    pool = PersistentPool()
    try:
        yield pool
    finally:
        pool.close()


def test_reclaimed_worker_is_reused(pool):
    lease = pool.lease()
    assert lease.run(_square, 3) == 9
    pid = lease.pid
    pool.reclaim(lease)
    assert not lease.alive
    with pytest.raises(ValueError, match="reclaimed"):
        lease.run(_square, 1)
    again = pool.lease()
    assert again.pid == pid, "a healthy spare must serve the next lease"
    assert again.run(_square, 4) == 16


def test_worker_exception_reraises_and_worker_survives(pool):
    lease = pool.lease()
    with pytest.raises(ValueError, match="boom 2"):
        lease.run(_boom, 2)
    assert lease.alive
    assert lease.run(_square, 5) == 25


def test_task_ref_rejects_lambdas_and_closures():
    assert task_ref(_square) == (__name__, "_square")

    def closure(x):
        return x

    for fn in (lambda x: x, closure):
        with pytest.raises(pickle.PicklingError):
            task_ref(fn)


def test_close_kills_leased_workers_and_spares(pool):
    leased = pool.lease()
    spare = pool.lease()
    procs = [leased._worker.proc, spare._worker.proc]
    pool.reclaim(spare)
    pool.close()
    assert leased.closed
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()


def test_start_method_ignores_environment(monkeypatch):
    """The start method is a property of the platform alone: no
    environment variable selects another one."""
    monkeypatch.delenv("REPRO_POOL_START", raising=False)
    default = start_method()
    monkeypatch.setenv("REPRO_POOL_START", "forkserver")
    assert start_method() == default
