"""Client API + load generator for the ``repro serve`` socket protocol.

:class:`ServeClient` is a small synchronous client for the
newline-delimited JSON protocol of :func:`repro.serve.server.serve_unix`
(one request object per line, one response per line).  It is what
``repro submit`` and the CI ``serve-smoke`` job use; tests drive the
:class:`~repro.serve.server.SimulationServer` in-process instead.

:func:`plan_load` builds the deterministic zipfian tenant workload the
smoke job replays: design popularity follows a zipf distribution (rank
``r`` drawn with probability proportional to ``1/r**s``), so with
``s=1.1`` a handful of designs dominate and the content-addressed
compile cache should serve most submissions — the ``serve-smoke``
job's >= 50 % hit-rate check measures exactly that.
"""

from __future__ import annotations

import json
import random
import socket
import time


class ServeClientError(RuntimeError):
    """The server answered ``ok: false`` (the error text is the
    server's) or the connection failed permanently."""


class ServeClient:
    """Blocking unix-socket client; one JSON object per request line."""

    def __init__(self, path: str, connect_timeout: float = 10.0) -> None:
        self.path = path
        deadline = time.monotonic() + connect_timeout
        while True:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                # Server may still be binding (CI starts it in the
                # background); retry until the timeout.
                self._sock.close()
                if time.monotonic() >= deadline:
                    raise ServeClientError(
                        f"no server on {path!r} after "
                        f"{connect_timeout:.0f}s")
                time.sleep(0.05)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def call(self, request: dict) -> dict:
        """One request/response round trip; raises on ``ok: false``."""
        self._file.write(json.dumps(request).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeClientError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServeClientError(response.get("error", "request failed"))
        return response

    def submit(self, design: str, *, tenant: str = "default",
               cycles: int | None = None, engine: str | None = None,
               priority: int = 1, preemptible: bool = True) -> int:
        """Submit one job; returns its id."""
        request = {"op": "submit", "design": design, "tenant": tenant,
                   "priority": priority, "preemptible": preemptible}
        if cycles is not None:
            request["cycles"] = cycles
        if engine is not None:
            request["engine"] = engine
        return self.call(request)["job"]

    def wait(self, job_id: int, timeout: float | None = None) -> dict:
        """Job dict once terminal; raises :class:`ServeClientError` on
        timeout (the server reports ``error: timeout``)."""
        request: dict = {"op": "wait", "job": job_id}
        if timeout is not None:
            request["timeout"] = timeout
        return self.call(request)["job"]

    def status(self, job_id: int | None = None) -> dict:
        """One job's dict, or the whole metrics snapshot."""
        if job_id is not None:
            return self.call({"op": "status", "job": job_id})["job"]
        return self.call({"op": "status"})["metrics"]

    def preempt(self, job_id: int) -> bool:
        return self.call({"op": "preempt", "job": job_id})["delivered"]

    def prometheus(self) -> str:
        return self.call({"op": "metrics"})["prometheus"]

    def shutdown(self) -> None:
        self.call({"op": "shutdown"})


# ---------------------------------------------------------------------------
# Load generation.
# ---------------------------------------------------------------------------

#: Default design catalog for generated load: small enough that a 25-job
#: smoke run finishes in CI seconds, varied enough to exercise dedupe.
DEFAULT_CATALOG = ("mm", "cgra", "noc", "mc")


def plan_load(jobs: int = 25, *, zipf_s: float = 1.1, tenants: int = 4,
              seed: int = 0, designs: tuple[str, ...] | None = None,
              engine: str = "fast") -> list[dict]:
    """Deterministic zipfian submission plan.

    Each entry is ``{"design", "tenant", "priority", "engine"}``.
    Design rank ``r`` (1-based over ``designs``) is drawn with
    probability proportional to ``1 / r**zipf_s``; tenants round-robin
    with priority 1 except tenant 0, which submits at priority 2 — so a
    replayed plan exercises fair scheduling, priority, and dedupe at
    once, reproducibly for any fixed ``seed``.
    """
    designs = designs or DEFAULT_CATALOG
    rng = random.Random(seed)
    weights = [1.0 / (rank ** zipf_s)
               for rank in range(1, len(designs) + 1)]
    plan = []
    for i in range(jobs):
        design = rng.choices(designs, weights=weights, k=1)[0]
        tenant_i = i % tenants
        plan.append({
            "design": design,
            "tenant": f"tenant-{tenant_i}",
            "priority": 2 if tenant_i == 0 else 1,
            "engine": engine,
        })
    return plan


def run_load(client: ServeClient, plan: list[dict], *,
             preempt_one: bool = False, wait: bool = True,
             timeout: float = 600.0) -> dict:
    """Replay a :func:`plan_load` plan against a live server.

    With ``preempt_one=True`` one job is forced through a preemption
    round trip (preempt it while running, let the scheduler resume it)
    — the smoke-job knob that proves the preemption path works end to
    end.  Delivery races are retried on the next running job: a flag
    that lands in a job's final Vcycle preempts nothing, so the forcing
    loop keeps trying until a preemption actually *registers* or every
    job drains.  Returns a summary with the final job dicts and the
    server metrics snapshot.
    """
    ids = [client.submit(entry["design"], tenant=entry["tenant"],
                         priority=entry["priority"],
                         engine=entry.get("engine"))
           for entry in plan]

    preempted_id = None
    if preempt_one and ids:
        preempted_id = _force_one_preemption(client, ids, timeout)

    jobs = []
    if wait:
        jobs = [client.wait(job_id, timeout=timeout) for job_id in ids]
    return {
        "submitted": len(ids),
        "preempt_requested": preempted_id,
        "jobs": jobs,
        "metrics": client.status(),
    }


def _force_one_preemption(client: ServeClient, ids: list[int],
                          timeout: float) -> int | None:
    """Preempt running jobs until one preemption registers; returns the
    preempted job id (None if every job drained first)."""
    deadline = time.monotonic() + timeout
    live = set(ids)
    while live and time.monotonic() < deadline:
        target = None
        for job_id in sorted(live):
            job = client.status(job_id)
            if job["state"] in ("done", "failed"):
                live.discard(job_id)
            elif job["state"] == "running" and client.preempt(job_id):
                target = job_id
                break
        if target is None:
            time.sleep(0.01)
            continue
        # Confirm the preemption landed (it races the job's own
        # completion) before claiming success.
        while time.monotonic() < deadline:
            job = client.status(target)
            if job["preemptions"] > 0:
                return target
            if job["state"] in ("done", "failed"):
                live.discard(target)
                break
            time.sleep(0.01)
    return None
