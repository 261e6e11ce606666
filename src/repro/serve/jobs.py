"""Job model for the multi-tenant simulation service.

A :class:`Job` is one tenant's request to simulate one circuit for a
Vcycle budget on a chosen engine.  Its lifecycle is a small explicit
state machine::

    pending ──> compiling ──> running ──> done
                    │            │  ▲└──> failed
                    └──> failed  ▼  │
                             preempted

``running -> preempted -> running`` may repeat any number of times
(priority preemption, worker migration); ``running -> pending`` is the
retry edge after a lost worker.  Every transition is validated by
:meth:`Job.advance` - an illegal edge raises :class:`JobStateError`
instead of silently corrupting the scheduler's bookkeeping, which is
what makes the preemption test suite trustworthy: a job that reports
``done`` provably walked a legal path to get there.

:func:`state_digest` is the equivalence oracle the server-path test
suite compares against direct ``Machine.run`` executions: a sha256 over
the machine's engine-independent architectural state (registers,
scratchpads, cache+DRAM, displays, completion) in canonical JSON form.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: Legal state-machine edges (see module docstring).
TRANSITIONS: dict[str, frozenset[str]] = {
    "pending": frozenset({"compiling", "failed"}),
    "compiling": frozenset({"running", "failed"}),
    "running": frozenset({"done", "failed", "preempted", "pending"}),
    "preempted": frozenset({"running", "failed"}),
    "done": frozenset(),
    "failed": frozenset(),
}

#: States a job can never leave.
TERMINAL_STATES = frozenset(s for s, nxt in TRANSITIONS.items() if not nxt)


class JobStateError(RuntimeError):
    """An illegal job state transition was attempted."""


def state_digest(machine) -> str:
    """Engine-independent digest of a machine's architectural state.

    Built from the checkpoint image (which already syncs compiled-engine
    frame locals back into architectural state) but stripped of
    everything engine- or schedule-sensitive: only the register files,
    scratchpads, cache+DRAM contents, display log, and completion flag
    contribute.  Two runs of the same program with the same budget must
    digest identically on every engine - this is the byte-equality the
    server-path equivalence suite asserts.
    """
    state = machine.checkpoint_state()
    arch = {
        # Per-core: register file, scratchpad, flags.  The transient
        # fields (pending writebacks, NoC receive queues) are excluded:
        # messages sent in the final Vcycle that nothing will ever
        # consume are engine-schedule residue, not architecture.
        "cores": {cid: {"regs": core["regs"], "scratch": core["scratch"],
                        "carry": core["carry"],
                        "predicate": core["predicate"]}
                  for cid, core in state["cores"].items()},
        "cache": state["cache"],
        "displays": state["displays"],
        "finished": state["finished"],
    }
    blob = json.dumps(arch, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Job:
    """One submission and everything that happened to it."""

    id: int
    tenant: str
    design: str | None
    cycles: int
    engine: str
    priority: int = 1
    preemptible: bool = True
    state: str = "pending"

    #: wall-clock submission time and monotonic latency anchors.
    submitted_at: float = field(default_factory=time.time)
    _t_submit: float = field(default_factory=time.monotonic, repr=False)
    _t_done: float | None = field(default=None, repr=False)

    #: compile-cache outcome for this job: ``status`` is ``"miss"``
    #: (this job ran the pipeline), ``"hit"`` (disk artifact reused) or
    #: ``"shared"`` (attached to another tenant's in-flight compile).
    cache: dict | None = None
    cache_key: str | None = None

    #: worker ids (and, in process mode, worker PIDs) that executed this
    #: job, in order - a preempted-and-migrated job lists several.
    workers: list[int] = field(default_factory=list)
    pids: list[int] = field(default_factory=list)
    preemptions: int = 0
    #: lost-worker retries consumed.
    attempts: int = 0
    #: Vcycles completed so far (updated when a dispatch ends: at a
    #: preemption or completion).
    progress: int = 0
    #: worker id that must NOT resume this job next (migration target
    #: exclusion after a preemption), or None.
    avoid_worker: int | None = None

    result: dict | None = None
    error: str | None = None

    #: cooperative preemption flag, polled by the checkpoint driver in
    #: thread mode; in process mode the server forwards it to the slot
    #: worker's pipe, which the driver polls instead.
    preempt_flag: threading.Event = field(default_factory=threading.Event,
                                          repr=False)
    #: set by the server when the job reaches a terminal state.
    done_flag: Any = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def advance(self, new_state: str) -> None:
        """Transition to ``new_state``, enforcing the state machine."""
        if new_state not in TRANSITIONS:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id}: illegal transition "
                f"{self.state!r} -> {new_state!r}")
        self.state = new_state
        if new_state in TERMINAL_STATES:
            self._t_done = time.monotonic()

    def fail(self, error: str) -> None:
        """Move to ``failed`` from any non-terminal state."""
        if self.state in TERMINAL_STATES:
            raise JobStateError(
                f"job {self.id}: cannot fail from terminal state "
                f"{self.state!r}")
        self.error = error
        self.state = "failed"
        self._t_done = time.monotonic()

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> float | None:
        """Submit-to-terminal latency, or None while in flight."""
        if self._t_done is None:
            return None
        return self._t_done - self._t_submit

    def as_dict(self) -> dict:
        """JSON-safe view (the wire format of the socket protocol)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "design": self.design,
            "cycles": self.cycles,
            "engine": self.engine,
            "priority": self.priority,
            "preemptible": self.preemptible,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "cache": self.cache,
            "cache_key": self.cache_key,
            "workers": list(self.workers),
            "pids": list(self.pids),
            "preemptions": self.preemptions,
            "attempts": self.attempts,
            "progress": self.progress,
            "result": self.result,
            "error": self.error,
            "latency_s": self.latency_s,
        }
