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
* **preemption and migration** - both modes run a job through one
  executor, :func:`run_job`, over
  :func:`~repro.checkpoint.driver.run_with_checkpoints` with the PR-5
  snapshot format as the handoff mechanism: a preempted job (priority
  pressure or an explicit :meth:`SimulationServer.preempt`) stops -
  mid-Vcycle on the checking engines - publishes a durable snapshot,
  and resumes bit-identically on a *different* worker.  The executor
  polls the job's flag in thread mode and its slot's pipe in process
  mode;
* **fault isolation** - in ``mode="process"`` every job slot owns one
  worker process, and each dispatch of a job runs there as one request;
  a SIGKILLed worker surfaces as :class:`WorkerLost`, the job is
  retried on a fresh process from its last durable snapshot (one every
  ``checkpoint_every`` Vcycles, or a preemption handoff; from Vcycle 0
  without either) within the ``retries`` budget, or failed loudly -
  never a hang;
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
import json
import multiprocessing as mp
import pickle
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
from .jobs import Job, state_digest

#: Current shape version of :meth:`SimulationServer.metrics_snapshot`.
SERVE_SCHEMA_VERSION = 1

#: Worker execution modes.
MODES = ("thread", "process")

#: Finished compile artifacts a thread-mode server keeps in memory, by
#: cache key, least recently used evicted first.  Jobs of one design
#: then share one ``CompileResult`` - and one ``MachineProgram``, which
#: nothing mutates after compile - instead of unpickling their own.
#: Process-mode workers load the artifact from disk, so there every job
#: goes through ``compile_circuit``, which re-stores an artifact the
#: disk cache evicted before the worker reads it.
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
        #: process mode: the worker process and pipe of each job slot
        #: (``wid``), started on the slot's first job.
        self._procs: dict[int, tuple] = {}
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
        for wid in list(self._procs):
            self._kill_slot(wid)
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
        self._request_preempt(job)
        return True

    def _request_preempt(self, job: Job) -> None:
        """Set the job's preemption flag.  In process mode a running
        job's worker polls its pipe, not the flag, so the request is
        also written there once; a job still compiling gets it at
        dispatch (:meth:`_run_process`)."""
        if job.preempt_flag.is_set():
            return
        job.preempt_flag.set()
        if self.mode == "process" and job.state == "running":
            slot = self._procs.get(job.workers[-1])
            if slot is not None:
                _send(slot[1], "preempt")

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
        self._request_preempt(victim)

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
            spec = self._job_spec(job)
            if self.mode == "process":
                progress, payload = await self._run_process(wid, job, spec)
            else:
                progress, payload = await asyncio.to_thread(
                    run_job, compiled.program, spec,
                    job.preempt_flag.is_set)
        except WorkerLost as exc:
            await self._lost_worker(wid, job, exc)
            return
        except Exception as exc:  # noqa: BLE001 - job-scoped failure
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        job.progress = progress
        if payload is None:
            await self._requeue_preempted(wid, job)
        else:
            self._finish(job, result=payload)

    async def _lost_worker(self, wid: int, job: Job,
                           exc: WorkerLost) -> None:
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

    def _job_spec(self, job: Job) -> dict:
        """The :func:`run_job` arguments of the job's next dispatch
        besides the program and the preemption poll; plain data, so it
        crosses a worker pipe unchanged."""
        return {
            "budget": job.cycles,
            "config": self.config,
            "engine": job.engine,
            "ckpt_dir": str(self._job_dir(job)),
            "keep": self.keep_snapshots,
            "checkpoint_every": self.checkpoint_every,
            "resume": job.preemptions > 0 or job.attempts > 0,
            "preempt_grain": self.preempt_grain,
        }

    async def _run_process(self, wid: int, job: Job,
                           spec: dict) -> tuple[int, dict | None]:
        """Process-mode dispatch: one request to slot ``wid``'s worker,
        which runs :func:`run_job` on the disk artifact, followed by the
        job's preemption request if one is already pending.  The
        worker's exceptions re-raise here with their original type; a
        closed pipe (SIGKILL, OOM, segfault) kills and forgets the
        worker and raises :class:`WorkerLost` instead of blocking
        forever."""
        proc, conn = self._slot_process(wid)
        job.pids.append(proc.pid or -1)
        _send(conn, {"key": job.cache_key,
                     "cache_dir": str(self.cache_dir), "spec": spec})
        if job.preempt_flag.is_set():
            _send(conn, "preempt")
        try:
            status, value = await asyncio.to_thread(conn.recv)
        except (EOFError, OSError):
            self._kill_slot(wid)
            raise WorkerLost(f"slot {wid} worker (pid {proc.pid}) died "
                             f"running a job") from None
        if status == "err":
            raise pickle.loads(value)
        return value

    def _slot_process(self, wid: int) -> tuple:
        """Slot ``wid``'s ``(process, pipe)``, starting a worker when the
        slot has none or its last one died between jobs.  The start
        method is ``fork`` where the platform has it (cheap, and the
        worker inherits every imported module warm), else the platform
        default.  Workers start on the event-loop thread only, so no
        sibling fork can inherit a new worker's end of its pipe and keep
        the pipe open after the worker died."""
        slot = self._procs.get(wid)
        if slot is not None and slot[0].is_alive():
            return slot
        self._kill_slot(wid)
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        conn, child = ctx.Pipe()
        proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        proc.start()
        child.close()
        self._procs[wid] = proc, conn
        return proc, conn

    def _kill_slot(self, wid: int) -> None:
        slot = self._procs.pop(wid, None)
        if slot is None:
            return
        proc, conn = slot
        conn.close()
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5)

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
# The job executor and the process-mode worker.
# ---------------------------------------------------------------------------


def run_job(program, spec: dict, preempt) -> tuple[int, dict | None]:
    """Advance one job (``spec`` from :meth:`SimulationServer._job_spec`)
    to completion, its budget, or a ``preempt()`` that returned True.

    Both serve modes run every dispatch through here.  Returns the
    Vcycles completed and the result payload, or None for the payload
    when preempted - the handoff snapshot is then durable in the job's
    checkpoint directory.
    """
    run = run_with_checkpoints(
        program, spec["budget"], config=spec["config"],
        engine=spec["engine"],
        store=CheckpointStore(spec["ckpt_dir"], keep=spec["keep"]),
        checkpoint_every=spec["checkpoint_every"], resume=spec["resume"],
        preempt=preempt, preempt_grain=spec["preempt_grain"])
    mres = run.result
    if run.preempted:
        return mres.vcycles, None
    return mres.vcycles, {
        "vcycles": mres.vcycles,
        "finished": mres.finished,
        "displays": list(mres.displays),
        "counters": mres.counters.as_dict(),
        "state_sha256": state_digest(run.machine),
        "resumed_from": run.resumed_from,
    }


class WorkerLost(RuntimeError):
    """A job slot's worker process died mid-job.  Raised instead of
    hanging; the job is retried on a fresh process or failed."""


def _send(conn, message) -> None:
    """Write to a slot worker's pipe (on the event-loop thread only, so
    messages never interleave).  A dead worker is ignored: the dispatch
    waiting on its reply raises :class:`WorkerLost`."""
    try:
        conn.send(message)
    except OSError:
        pass


def _worker_main(conn) -> None:
    """A slot worker's loop: receive a job request, reply ``("ok",
    (progress, payload))`` or ``("err", pickled exception)``.  The job
    loads its compiled program from the disk cache by key (the program
    never crosses the pipe) and polls the pipe for a ``"preempt"``
    message; one read between jobs arrived after its job ended and is
    dropped.  Exits when the server's end of the pipe closes."""
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request == "preempt":
            continue
        try:
            compiled = CompileCache(request["cache_dir"]).get(request["key"])
            if compiled is None:
                raise RuntimeError(
                    f"compiled artifact {request['key'][:12]}... missing "
                    f"from cache {request['cache_dir']}")
            out = ("ok", run_job(compiled.program, request["spec"],
                                 conn.poll))
        except BaseException as exc:  # noqa: BLE001 - shipped to server
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = pickle.dumps(RuntimeError(repr(exc)))
            out = ("err", blob)
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            return


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
