"""The multi-tenant simulation job server (``repro serve``).

One asyncio event loop fronts the whole existing stack:

* **submission queue with tenant priorities and fair scheduling** -
  :class:`FairQueue` keeps one FIFO per tenant and stride-schedules
  across them (a tenant's share of dispatches is proportional to its
  jobs' priority), so a chatty tenant cannot starve a quiet one;
* **content-addressed dedupe** - every submission is keyed through the
  PR-2 compile cache (:func:`~repro.compiler.cache.compile_cache_key`);
  fingerprint-identical circuits from different tenants compile exactly
  once (in-flight submissions share the same compile future, later ones
  hit the in-memory artifact LRU or the disk artifact);
* **preemption and migration** - jobs execute under
  :func:`~repro.checkpoint.driver.run_with_checkpoints` with the PR-5
  snapshot format as the handoff mechanism: a preempted job (priority
  pressure or an explicit :meth:`SimulationServer.preempt`) stops -
  mid-Vcycle on the checking engines - publishes a durable snapshot,
  and resumes bit-identically on a *different* worker;
* **fault isolation** - in ``mode="process"`` each job chunk runs on a
  leased :class:`~repro.pool.PersistentPool` worker; a SIGKILLed worker
  surfaces as :class:`~repro.pool.PoolWorkerLost`, the job is retried
  from its last snapshot (``retries`` budget) or failed loudly - never
  a hang;
* **metrics** - per-job / per-tenant counters and latency percentiles,
  exported through the :mod:`repro.obs` Prometheus textfile path
  (:func:`repro.obs.export.serve_prometheus_textfile`) and validated
  against ``docs/serve.schema.json``.

The server is usable fully in-process (the test suites and the
``serve-closed`` end-to-end workload drive it that way) or over a
unix-domain socket speaking newline-delimited JSON (:func:`serve_unix`,
the ``repro serve`` / ``repro submit`` transport).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import tempfile
import time
from collections import OrderedDict, deque
from pathlib import Path

from ..checkpoint.driver import run_with_checkpoints
from ..checkpoint.store import CheckpointStore
from ..compiler.cache import CompileCache
from ..compiler.driver import CompilerOptions, compile_circuit
from ..machine.config import MachineConfig
from ..machine.grid import ENGINES
from ..pool import PersistentPool, PoolWorkerLost
from .jobs import Job, state_digest

#: Current shape version of :meth:`SimulationServer.metrics_snapshot`.
SERVE_SCHEMA_VERSION = 1

#: Worker execution modes.
MODES = ("thread", "process")

#: Finished compile artifacts a thread-mode server keeps in memory, by
#: cache key, least recently used evicted first.  Jobs of one design
#: then share one ``CompileResult`` - and one ``MachineProgram``, which
#: nothing mutates after compile - instead of unpickling their own.
ARTIFACT_LRU_SIZE = 8


# ---------------------------------------------------------------------------
# Fair scheduling.
# ---------------------------------------------------------------------------


class FairQueue:
    """Stride scheduler over per-tenant FIFOs.

    Each dispatch charges the chosen tenant ``stride / priority`` of
    virtual time and the next dispatch goes to the lowest-virtual-time
    tenant with work queued - so over any window, tenants receive
    dispatch shares proportional to their priorities, independent of
    submission rates.  A tenant going idle and returning is re-based to
    the current minimum (it cannot bank credit while idle).  Ties break
    by tenant name for determinism.
    """

    def __init__(self, stride: int = 1 << 16) -> None:
        self._stride = float(stride)
        self._queues: dict[str, deque] = {}
        self._pass: dict[str, float] = {}

    def push(self, job: Job, front: bool = False) -> None:
        queue = self._queues.get(job.tenant)
        if queue is None:
            queue = self._queues[job.tenant] = deque()
        if not queue:
            active = [self._pass[t] for t, q in self._queues.items()
                      if q and t != job.tenant]
            floor = min(active) if active else 0.0
            self._pass[job.tenant] = max(
                self._pass.get(job.tenant, 0.0), floor)
        if front:
            queue.appendleft(job)
        else:
            queue.append(job)

    def pop(self, avoid_worker: int | None = None) -> Job | None:
        """Next job by stride order; skips tenants whose head job is
        pinned away from ``avoid_worker`` (post-preemption migration).
        Returns None when nothing eligible is queued."""
        best: str | None = None
        for tenant in sorted(self._queues):
            queue = self._queues[tenant]
            if not queue:
                continue
            if avoid_worker is not None \
                    and queue[0].avoid_worker == avoid_worker:
                continue
            if best is None or self._pass[tenant] < self._pass[best]:
                best = tenant
        if best is None:
            return None
        job = self._queues[best].popleft()
        self._pass[best] += self._stride / max(1, job.priority)
        return job

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def queued_tenants(self) -> list[str]:
        return [t for t, q in self._queues.items() if q]


# ---------------------------------------------------------------------------
# The server.
# ---------------------------------------------------------------------------


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class SimulationServer:
    """Asyncio multi-tenant job server over the compile/run/checkpoint
    stack.  Construct, ``await start()``, ``await submit(...)``,
    ``await wait(job_id)``, ``await close()`` - or use it as an async
    context manager."""

    def __init__(self, *, workers: int = 2, mode: str = "thread",
                 config: MachineConfig | None = None,
                 engine_default: str = "fast",
                 cache_dir: str | None = None,
                 work_dir: str | None = None,
                 checkpoint_every: int = 0,
                 chunk_vcycles: int = 256,
                 preempt_grain: int = 16,
                 retries: int = 1,
                 keep_snapshots: int = 3) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if engine_default not in ENGINES:
            raise ValueError(f"unknown engine {engine_default!r}")
        self.workers = workers
        self.mode = mode
        self.config = config or MachineConfig(grid_x=8, grid_y=8)
        self.engine_default = engine_default
        self.checkpoint_every = checkpoint_every
        self.chunk_vcycles = chunk_vcycles
        self.preempt_grain = preempt_grain
        self.retries = retries
        self.keep_snapshots = keep_snapshots

        self._owned_dirs: list[Path] = []
        self.cache_dir = Path(cache_dir) if cache_dir \
            else self._own_dir("repro-serve-cache-")
        self.work_dir = Path(work_dir) if work_dir \
            else self._own_dir("repro-serve-work-")
        self._options = CompilerOptions(config=self.config,
                                        cache_dir=str(self.cache_dir))
        self._cache = CompileCache(self.cache_dir)

        self._jobs: dict[int, Job] = {}
        self._circuits: dict[int, object] = {}
        self._queue = FairQueue()
        self._running: dict[int, Job] = {}
        self._compiles: dict[str, asyncio.Future] = {}
        self._artifacts: OrderedDict[str, object] = OrderedDict()
        self._next_id = 1
        self._tasks: list[asyncio.Task] = []
        self._cond: asyncio.Condition | None = None
        self._pool: PersistentPool | None = None
        self._started = time.monotonic()
        self.shutdown_event: asyncio.Event | None = None

        # Counters (per-event, monotonic; state counts are derived from
        # the live job table in metrics_snapshot).
        self.counter = {"submitted": 0, "completed": 0, "failed": 0,
                        "preempted": 0, "retried": 0,
                        "compiles": 0, "cache_hits": 0,
                        "inflight_shared": 0}
        self._tenant_counters: dict[str, dict[str, int]] = {}
        self._latencies: list[float] = []

    def _own_dir(self, prefix: str) -> Path:
        path = Path(tempfile.mkdtemp(prefix=prefix))
        self._owned_dirs.append(path)
        return path

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "SimulationServer":
        if self._cond is not None:
            raise RuntimeError("server already started")
        self._cond = asyncio.Condition()
        self.shutdown_event = asyncio.Event()
        self._tasks = [asyncio.create_task(self._worker_loop(wid),
                                           name=f"serve-worker-{wid}")
                       for wid in range(self.workers)]
        return self

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._artifacts.clear()
        for path in self._owned_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._owned_dirs = []

    async def __aenter__(self) -> "SimulationServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission ----------------------------------------------------
    async def submit(self, *, tenant: str = "default",
                     design: str | None = None, circuit=None,
                     cycles: int | None = None, engine: str | None = None,
                     priority: int = 1, preemptible: bool = True) -> Job:
        """Queue one simulation job; returns the live :class:`Job`.

        ``design`` names a registry design; ``circuit`` submits an IR
        circuit directly (in-process callers).  ``cycles`` defaults to
        the design's driver-complete budget + 300.
        """
        if self._cond is None:
            raise RuntimeError("server is not started")
        engine = engine or self.engine_default
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if circuit is None:
            if design is None:
                raise ValueError("submit needs design= or circuit=")
            from ..designs import DESIGNS
            info = DESIGNS[design]
            circuit = info.build()
            if cycles is None:
                cycles = info.cycles + 300
        elif cycles is None:
            cycles = 1_000_000
        if priority < 1:
            raise ValueError("priority must be >= 1")

        job = Job(id=self._next_id, tenant=tenant, design=design,
                  cycles=int(cycles), engine=engine, priority=priority,
                  preemptible=preemptible)
        self._next_id += 1
        job.done_flag = asyncio.Event()
        self._jobs[job.id] = job
        self._circuits[job.id] = circuit
        self.counter["submitted"] += 1
        self._tenant_counter(tenant, "submitted")
        async with self._cond:
            self._queue.push(job)
            self._maybe_preempt(job)
            self._cond.notify_all()
        return job

    async def wait(self, job_id: int, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self._jobs[job_id]
        if not job.finished:
            await asyncio.wait_for(job.done_flag.wait(), timeout)
        return job

    def job(self, job_id: int) -> Job:
        return self._jobs[job_id]

    def preempt(self, job_id: int) -> bool:
        """Request preemption of a running job; True when delivered."""
        job = self._jobs[job_id]
        if job.state != "running" or not job.preemptible:
            return False
        job.preempt_flag.set()
        return True

    def _maybe_preempt(self, incoming: Job) -> None:
        """Priority preemption on submit: if every worker is busy and
        the newcomer outranks the weakest preemptible running job, that
        victim is asked to yield (it will requeue and migrate)."""
        if len(self._running) < self.workers:
            return
        victims = [j for j in self._running.values()
                   if j.preemptible and not j.preempt_flag.is_set()
                   and j.priority < incoming.priority]
        if not victims:
            return
        victim = min(victims, key=lambda j: (j.priority, j.id))
        victim.preempt_flag.set()

    def _tenant_counter(self, tenant: str, key: str) -> None:
        counters = self._tenant_counters.setdefault(
            tenant, {"submitted": 0, "completed": 0, "failed": 0,
                     "preempted": 0})
        counters[key] += 1

    # -- scheduling / execution ----------------------------------------
    async def _worker_loop(self, wid: int) -> None:
        while True:
            async with self._cond:
                avoid = wid if self.workers > 1 else None
                job = self._queue.pop(avoid_worker=avoid)
                while job is None:
                    await self._cond.wait()
                    job = self._queue.pop(avoid_worker=avoid)
                self._running[wid] = job
            try:
                await self._execute(wid, job)
            finally:
                async with self._cond:
                    self._running.pop(wid, None)
                    self._cond.notify_all()

    async def _execute(self, wid: int, job: Job) -> None:
        job.workers.append(wid)
        job.avoid_worker = None
        try:
            if job.state == "pending":
                job.advance("compiling")
            compiled = await self._compiled(job)
            job.advance("running")
            if self.mode == "process":
                payload = await self._run_process(job)
            else:
                payload = await asyncio.to_thread(
                    self._run_thread, job, compiled)
        except PoolWorkerLost as exc:
            await self._lost_worker(wid, job, exc)
            return
        except Exception as exc:  # noqa: BLE001 - job-scoped failure
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        if payload is None:
            await self._requeue_preempted(wid, job)
        else:
            self._finish(job, result=payload)

    async def _lost_worker(self, wid: int, job: Job,
                           exc: PoolWorkerLost) -> None:
        """A worker process died under the job: retry from the last
        durable snapshot on a fresh worker, or fail loudly."""
        job.attempts += 1
        if job.attempts > self.retries:
            self._finish(job, error=f"worker lost ({exc}); "
                                    f"retries exhausted")
            return
        self.counter["retried"] += 1
        job.advance("pending")
        job.preempt_flag.clear()
        job.avoid_worker = wid if self.workers > 1 else None
        async with self._cond:
            self._queue.push(job, front=True)
            self._cond.notify_all()

    async def _requeue_preempted(self, wid: int, job: Job) -> None:
        job.advance("preempted")
        job.preemptions += 1
        job.preempt_flag.clear()
        # Migration contract: the resume lands on a different worker
        # whenever the fleet has one.
        job.avoid_worker = wid if self.workers > 1 else None
        self.counter["preempted"] += 1
        self._tenant_counter(job.tenant, "preempted")
        async with self._cond:
            self._queue.push(job, front=True)
            self._cond.notify_all()

    def _finish(self, job: Job, result: dict | None = None,
                error: str | None = None) -> None:
        if error is not None:
            job.fail(error)
            self.counter["failed"] += 1
            self._tenant_counter(job.tenant, "failed")
        else:
            job.result = result
            job.progress = result["vcycles"]
            job.advance("done")
            self.counter["completed"] += 1
            self._tenant_counter(job.tenant, "completed")
        self._latencies.append(job.latency_s)
        job.done_flag.set()
        shutil.rmtree(self._job_dir(job), ignore_errors=True)

    # -- compilation / dedupe ------------------------------------------
    async def _compiled(self, job: Job):
        """CompileResult for the job's circuit, deduped across tenants.

        The first job for a cache key runs the compile (and stores the
        artifact); concurrent jobs for the same key await that same
        future (``status="shared"``); later jobs hit the in-memory
        artifact (thread mode, :data:`ARTIFACT_LRU_SIZE` keys) or the
        disk artifact (``status="hit"``).  ``CompileReport.cache``
        statistics back every status, so the dedupe contract is
        test-assertable.
        """
        circuit = self._circuits[job.id]
        key = self._cache.key(circuit, self._options)
        job.cache_key = key
        record = job.cache is None
        compiled = self._artifacts.get(key)
        if compiled is not None:
            self._artifacts.move_to_end(key)
            if record:
                self._cache.stats.hits += 1
                job.cache = self._cache.describe("hit", key)
                self.counter["cache_hits"] += 1
            return compiled
        fut = self._compiles.get(key)
        if fut is None:
            fut = asyncio.get_running_loop().create_future()
            self._compiles[key] = fut
            try:
                compiled = await asyncio.to_thread(
                    compile_circuit, circuit, self._options)
            except BaseException as exc:
                fut.set_exception(exc)
                self._compiles.pop(key, None)
                # Consume the exception so an un-awaited shared future
                # does not warn; sharers re-raise via await below.
                fut.exception()
                raise
            fut.set_result(compiled)
            self._compiles.pop(key, None)
            if self.mode == "thread":
                # Process-mode workers load the artifact from disk, so
                # every job there keeps going through compile_circuit.
                self._artifacts[key] = compiled
                if len(self._artifacts) > ARTIFACT_LRU_SIZE:
                    self._artifacts.popitem(last=False)
            if record:
                job.cache = dict(compiled.report.cache)
                if job.cache["status"] == "miss":
                    self.counter["compiles"] += 1
                else:
                    self.counter["cache_hits"] += 1
        else:
            compiled = await asyncio.shield(fut)
            if record:
                job.cache = dict(compiled.report.cache)
                job.cache["status"] = "shared"
                self.counter["inflight_shared"] += 1
        return compiled

    # -- execution backends --------------------------------------------
    def _job_dir(self, job: Job) -> Path:
        return self.work_dir / f"job-{job.id:06d}"

    def _run_thread(self, job: Job, compiled) -> dict | None:
        """Thread-mode executor (runs in a worker thread): advance the
        job to completion, a preemption point, or its budget."""
        store = CheckpointStore(self._job_dir(job),
                                keep=self.keep_snapshots)
        resume = job.preemptions > 0 or job.attempts > 0
        run = run_with_checkpoints(
            compiled.program, job.cycles, config=self.config,
            engine=job.engine, store=store,
            checkpoint_every=self.checkpoint_every, resume=resume,
            preempt=job.preempt_flag.is_set,
            preempt_grain=self.preempt_grain)
        job.progress = run.result.vcycles
        if run.preempted:
            return None
        return self._result_payload(run)

    async def _run_process(self, job: Job) -> dict | None:
        """Process-mode executor: run the job in bounded-Vcycle chunks
        on a leased pool worker, each chunk resuming from (and ending
        with) a durable snapshot.  Preemption is honored between
        chunks; a dead worker raises PoolWorkerLost to the caller."""
        if self._pool is None:
            self._pool = PersistentPool()
        lease = await asyncio.to_thread(self._pool.lease)
        job.pids.append(lease.pid or -1)
        try:
            while True:
                request = {
                    "key": job.cache_key,
                    "cache_dir": str(self.cache_dir),
                    "config": dataclasses.asdict(self.config),
                    "engine": job.engine,
                    "budget": job.cycles,
                    "chunk": self.chunk_vcycles,
                    "ckpt_dir": str(self._job_dir(job)),
                    "keep": self.keep_snapshots,
                    "checkpoint_every": self.checkpoint_every,
                    "resume": (job.progress > 0 or job.preemptions > 0
                               or job.attempts > 0),
                }
                reply = await asyncio.to_thread(
                    lease.run, _serve_run_chunk, request)
                job.progress = reply["vcycles"]
                if reply["done"]:
                    return {k: reply[k] for k in
                            ("vcycles", "finished", "displays",
                             "counters", "state_sha256", "resumed_from")}
                if job.preempt_flag.is_set():
                    return None
        finally:
            await asyncio.to_thread(self._pool.reclaim, lease)

    @staticmethod
    def _result_payload(run) -> dict:
        mres = run.result
        return {
            "vcycles": mres.vcycles,
            "finished": mres.finished,
            "displays": list(mres.displays),
            "counters": mres.counters.as_dict(),
            "state_sha256": state_digest(run.machine),
            "resumed_from": run.resumed_from,
        }

    # -- metrics -------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The service metrics export (``docs/serve.schema.json``)."""
        states = {"pending": 0, "compiling": 0, "running": 0,
                  "preempted": 0, "done": 0, "failed": 0}
        for job in self._jobs.values():
            states[job.state] += 1
        compile_events = (self.counter["compiles"]
                          + self.counter["cache_hits"]
                          + self.counter["inflight_shared"])
        deduped = (self.counter["cache_hits"]
                   + self.counter["inflight_shared"])
        latencies = self._latencies
        latency = {"count": len(latencies)}
        if latencies:
            latency.update({
                "mean_s": sum(latencies) / len(latencies),
                "p50_s": _percentile(latencies, 0.50),
                "p99_s": _percentile(latencies, 0.99),
            })
        else:
            latency.update({"mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0})
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "workers": self.workers,
            "mode": self.mode,
            "uptime_s": time.monotonic() - self._started,
            "jobs": {
                "submitted": self.counter["submitted"],
                "completed": self.counter["completed"],
                "failed": self.counter["failed"],
                "preempted": self.counter["preempted"],
                "retried": self.counter["retried"],
                "states": states,
            },
            "compile": {
                "compiles": self.counter["compiles"],
                "cache_hits": self.counter["cache_hits"],
                "inflight_shared": self.counter["inflight_shared"],
                "hit_rate": (deduped / compile_events
                             if compile_events else 0.0),
            },
            "latency": latency,
            "tenants": {t: dict(c)
                        for t, c in sorted(self._tenant_counters.items())},
        }

    def prometheus(self) -> str:
        from ..obs.export import serve_prometheus_textfile
        return serve_prometheus_textfile(self.metrics_snapshot())


# ---------------------------------------------------------------------------
# Process-mode worker entry point (dispatched by name through the pool).
# ---------------------------------------------------------------------------


def _serve_run_chunk(request: dict) -> dict:
    """Advance one job by up to ``chunk`` Vcycles on a leased worker.

    The compiled program travels as a content-addressed cache key, never
    over the pipe; job state travels as PR-5 snapshots in the job's
    checkpoint directory.  Each chunk that does not finish the job ends
    with a durable snapshot (the driver's preemption handoff), so a
    SIGKILL at any instant loses at most one chunk of progress.
    """
    cache = CompileCache(request["cache_dir"])
    compiled = cache.get(request["key"])
    if compiled is None:
        raise RuntimeError(
            f"compiled artifact {request['key'][:12]}... missing from "
            f"cache {request['cache_dir']}")
    store = CheckpointStore(request["ckpt_dir"], keep=request["keep"])
    seen = {"n": 0}

    def on_vcycle(_machine) -> None:
        seen["n"] += 1

    run = run_with_checkpoints(
        compiled.program, request["budget"],
        config=MachineConfig(**request["config"]),
        engine=request["engine"], store=store,
        checkpoint_every=request["checkpoint_every"],
        resume=request["resume"], on_vcycle=on_vcycle,
        preempt=lambda: seen["n"] >= request["chunk"])
    mres = run.result
    done = mres.finished or mres.vcycles >= request["budget"]
    out = {"vcycles": mres.vcycles, "finished": mres.finished,
           "done": done, "resumed_from": run.resumed_from}
    if done:
        out["displays"] = list(mres.displays)
        out["counters"] = mres.counters.as_dict()
        out["state_sha256"] = state_digest(run.machine)
    return out


# ---------------------------------------------------------------------------
# Unix-domain-socket front end (newline-delimited JSON).
# ---------------------------------------------------------------------------


async def _dispatch(server: SimulationServer, request: dict) -> dict:
    op = request.get("op")
    if op == "submit":
        job = await server.submit(
            tenant=request.get("tenant", "default"),
            design=request.get("design"),
            cycles=request.get("cycles"),
            engine=request.get("engine"),
            priority=int(request.get("priority", 1)),
            preemptible=bool(request.get("preemptible", True)))
        return {"ok": True, "job": job.id}
    if op == "wait":
        try:
            job = await server.wait(int(request["job"]),
                                    timeout=request.get("timeout"))
        except asyncio.TimeoutError:
            return {"ok": False, "error": "timeout",
                    "job": server.job(int(request["job"])).as_dict()}
        return {"ok": True, "job": job.as_dict()}
    if op == "status":
        if "job" in request:
            return {"ok": True,
                    "job": server.job(int(request["job"])).as_dict()}
        return {"ok": True, "metrics": server.metrics_snapshot()}
    if op == "preempt":
        return {"ok": True,
                "delivered": server.preempt(int(request["job"]))}
    if op == "metrics":
        return {"ok": True, "prometheus": server.prometheus()}
    if op == "shutdown":
        server.shutdown_event.set()
        return {"ok": True, "shutdown": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


async def serve_unix(server: SimulationServer, path: str):
    """Expose ``server`` on a unix socket; one JSON object per line in,
    one per line out.  Returns the asyncio server (close it to stop
    accepting; the SimulationServer itself is closed separately)."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = await _dispatch(server, json.loads(line))
                except Exception as exc:  # noqa: BLE001 - wire boundary
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers;
            # that is a clean exit, not an error to log.
            pass
        finally:
            writer.close()

    return await asyncio.start_unix_server(handle, path=path)
