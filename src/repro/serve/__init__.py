"""Multi-tenant simulation job service (``repro serve``).

Fronts the existing stack — content-addressed compile cache (dedupe),
``run_with_checkpoints`` + PR-5 snapshots (preemption and migration),
one worker process per job slot (process isolation), and the
:mod:`repro.obs` Prometheus textfile path (metrics) — behind one asyncio
server with a per-tenant fair-share queue.
"""

from .client import ServeClient, ServeClientError, plan_load, run_load
from .jobs import (Job, JobStateError, TERMINAL_STATES, TRANSITIONS,
                   state_digest)
from .server import (FairQueue, SERVE_SCHEMA_VERSION, SimulationServer,
                     serve_unix)

__all__ = [
    "FairQueue", "Job", "JobStateError", "SERVE_SCHEMA_VERSION",
    "ServeClient", "ServeClientError", "SimulationServer",
    "TERMINAL_STATES", "TRANSITIONS", "plan_load", "run_load",
    "serve_unix", "state_digest",
]
