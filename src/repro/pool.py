"""Leased worker processes for the job server's process mode.

A :class:`PersistentPool` hands out dedicated worker processes as
:class:`WorkerLease` objects (:mod:`repro.serve`, ``mode="process"``):

* a lease pins one process, so a sequence of calls shares its warm
  state (imported modules, page cache); :meth:`PersistentPool.reclaim`
  keeps a healthy worker as a spare for the next lease, so steady-state
  leasing spawns nothing;
* tasks name their function by ``module:qualname`` - only the function
  *reference* and the argument cross the pipe, never code objects, and
  with the default ``fork`` start method the worker already holds every
  imported module warm;
* a dead worker (segfault, ``os._exit``, OOM-kill) raises
  :class:`PoolWorkerLost` at once - the caller retries on a fresh lease
  or fails loudly, it never hangs.

Worker exceptions are pickled back and re-raised in the parent with
their original type.  The start method is ``fork`` where available
(cheapest, inherits warm modules), else the platform default.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import pickle
from typing import Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class PoolWorkerLost(RuntimeError):
    """A leased worker died mid-task.  Raised instead of hanging; the
    caller decides whether to retry on a fresh lease."""


def start_method() -> str:
    """``fork`` when the platform has it (cheap, warm modules), else the
    platform default."""
    if "fork" in mp.get_all_start_methods():
        return "fork"
    return mp.get_start_method()


def _resolve(module: str, qualname: str) -> Callable:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def task_ref(fn: Callable) -> tuple[str, str]:
    """``(module, qualname)`` for a pool-dispatchable function.

    Raises :class:`pickle.PicklingError` for anything that cannot be
    re-imported by name in a worker (lambdas, closures, bound methods).
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise pickle.PicklingError(f"{fn!r} is not importable by name")
    try:
        if _resolve(module, qualname) is not fn:
            raise pickle.PicklingError(
                f"{module}:{qualname} does not resolve back to {fn!r}")
    except (ImportError, AttributeError) as exc:
        raise pickle.PicklingError(str(exc)) from exc
    return module, qualname


def _worker_main(conn) -> None:
    """Loop: receive ``(module, qualname, item)`` tasks, reply
    ``("ok", result)`` / ``("err", pickled_exception)``.  Exits when the
    parent's end of the pipe closes."""
    while True:
        try:
            module, qualname, item = conn.recv()
        except (EOFError, OSError):
            return
        try:
            out = ("ok", _resolve(module, qualname)(item))
        except BaseException as exc:  # noqa: BLE001 — shipped to parent
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = pickle.dumps(RuntimeError(repr(exc)))
            out = ("err", blob)
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child,),
                                daemon=True)
        self.proc.start()
        child.close()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)


class WorkerLease:
    """A worker process leased out of a :class:`PersistentPool` for
    exclusive, stateful use.  Any pipe failure raises
    :class:`PoolWorkerLost` immediately."""

    __slots__ = ("_worker", "closed")

    def __init__(self, worker: _Worker) -> None:
        self._worker = worker
        self.closed = False

    @property
    def pid(self) -> int | None:
        return self._worker.proc.pid

    @property
    def alive(self) -> bool:
        return not self.closed and self._worker.alive

    def run(self, fn: Callable[[T], R], item: T) -> R:
        """``fn(item)`` on the leased worker process.

        Worker exceptions re-raise here with their original type; a
        dead worker (SIGKILL, OOM, segfault) raises
        :class:`PoolWorkerLost` instead of blocking forever.
        """
        if self.closed:
            raise ValueError("lease already reclaimed")
        module, qualname = task_ref(fn)
        w = self._worker
        try:
            w.conn.send((module, qualname, item))
            reply = w.conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            raise PoolWorkerLost(
                f"leased worker (pid {w.proc.pid}) died running "
                f"{module}:{qualname}") from None
        if reply[0] == "err":
            raise pickle.loads(reply[1])
        return reply[1]


class PersistentPool:
    """Worker processes handed out as leases and kept warm as spares."""

    def __init__(self) -> None:
        self._ctx = mp.get_context(start_method())
        #: healthy workers returned by :meth:`reclaim`, reused by the
        #: next :meth:`lease` so steady-state leasing spawns nothing.
        self._spares: list[_Worker] = []
        #: leases currently out, so :meth:`close` can tear them down.
        self._leased: list[WorkerLease] = []

    def lease(self) -> WorkerLease:
        """Claim a dedicated worker process (reusing a reclaimed spare
        when one is alive, spawning otherwise)."""
        worker = None
        while self._spares:
            candidate = self._spares.pop()
            if candidate.alive:
                worker = candidate
                break
            candidate.kill()
        if worker is None:
            worker = _Worker(self._ctx)
        lease = WorkerLease(worker)
        self._leased.append(lease)
        return lease

    def reclaim(self, lease: WorkerLease) -> None:
        """Return a lease to the pool.  A healthy worker becomes a spare
        for the next :meth:`lease`; a dead one is buried.  Idempotent."""
        if lease.closed:
            return
        lease.closed = True
        if lease in self._leased:
            self._leased.remove(lease)
        if lease._worker.alive:
            self._spares.append(lease._worker)
        else:
            lease._worker.kill()

    def close(self) -> None:
        """Kill every leased and spare worker."""
        for lease in self._leased:
            lease.closed = True
            lease._worker.kill()
        self._leased.clear()
        for w in self._spares:
            w.kill()
        self._spares.clear()
