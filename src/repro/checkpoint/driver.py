"""The long-run driver: execute in chunks, snapshot, survive kills.

:func:`run_with_checkpoints` is what ``repro run`` (and the CI
kill-and-resume smoke job) sits on: it optionally resumes from the
newest valid snapshot in a :class:`~repro.checkpoint.store.CheckpointStore`,
steps the machine to completion or the Vcycle budget, and publishes a
snapshot every ``checkpoint_every`` completed Vcycles.  Because every
publish is atomic and every restore is fingerprint-checked, the driver
can be SIGKILLed at any instant and the next invocation continues from
the last published generation - producing results bit-identical to a
run that was never interrupted (``tests/test_checkpoint.py``).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..machine.grid import Machine, MachineResult
from .format import SnapshotError, encode_snapshot
from .state import capture, program_fingerprint, restore
from .store import CheckpointStore, RejectedSnapshot


class _AsyncPublisher:
    """Publishes captured payloads on a worker thread.

    ``capture`` must run synchronously (it reads live machine state),
    but its payload is detached plain data - so the expensive half of a
    save (canonical JSON, sha256, zlib, write, double fsync) overlaps
    the simulation instead of stalling it.  Ordering and durability are
    unchanged from synchronous publishing: snapshots go out in capture
    order, at most one is in flight (``submit`` applies backpressure),
    and a crash loses only work past the last *durable* snapshot -
    exactly as if the process had died just before a synchronous
    publish.  ``close`` drains the queue and re-raises any publish
    failure in the caller's thread.
    """

    def __init__(self, store: CheckpointStore) -> None:
        self._store = store
        self._queue: queue.Queue = queue.Queue(maxsize=1)
        self._published: list[Path] = []
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._loop, name="ckpt-publish", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            payload = self._queue.get()
            if payload is None:
                return
            if self._error is not None:
                continue  # drain without publishing after a failure
            try:
                self._published.append(
                    self._store.publish(encode_snapshot(payload)))
            except BaseException as exc:  # re-raised from close()
                self._error = exc

    def submit(self, payload: dict) -> None:
        self._queue.put(payload)

    def close(self) -> list[Path]:
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._published


@dataclass
class CheckpointedRun:
    """Everything one driver invocation did."""

    result: MachineResult
    machine: Machine
    #: Vcycle of the snapshot this run resumed from (None = fresh start).
    resumed_from: int | None = None
    resumed_path: Path | None = None
    #: snapshot files published by this invocation, in order.
    published: list[Path] = field(default_factory=list)
    #: snapshot files recovery refused, with reasons (torn, corrupt,
    #: wrong program, wrong config).
    rejected: list[RejectedSnapshot] = field(default_factory=list)
    #: True when the run stopped because ``preempt`` fired; the final
    #: published snapshot is the handoff point for the next invocation.
    preempted: bool = False


def run_with_checkpoints(
        program, max_vcycles: int, *,
        config=None, engine: str | None = None,
        exception_stall: int = 500, profiler=None,
        store: CheckpointStore | None = None,
        checkpoint_every: int = 0, resume: bool = False,
        on_start: Callable[[Machine, bool], None] | None = None,
        on_vcycle: Callable[[Machine], None] | None = None,
        preempt: Callable[[], bool] | None = None,
        preempt_grain: int = 0,
) -> CheckpointedRun:
    """Run ``program`` for up to ``max_vcycles``, checkpointing as it goes.

    With ``resume=True`` the driver first scans ``store`` for the newest
    snapshot that decodes cleanly and fingerprint-matches ``program``
    (and ``config``, if given); anything it refuses is reported in
    ``CheckpointedRun.rejected``.  ``checkpoint_every=K`` captures a
    snapshot after every K-th completed Vcycle; encoding and the
    fsync'd publish happen on a worker thread (:class:`_AsyncPublisher`)
    so the simulation only ever pays for capture.  All snapshots are
    durable by the time this function returns.  ``on_start`` fires once
    with ``(machine, resumed)`` before the first step - where waveform
    collectors bind to the machine; ``on_vcycle`` after every completed
    Vcycle - the hook tests and the CLI throttle use to make runs
    interruptible at known points.

    ``preempt`` (the :mod:`repro.serve` preemption hook) is polled while
    the run advances; when it returns True the driver stops, publishes a
    final handoff snapshot synchronously (so it is durable before the
    job is handed to another worker), and returns with ``preempted=True``.
    With ``preempt_grain=G > 0`` a machine on a *checking* engine is
    advanced ``G`` events at a time and the hook is polled between
    chunks, so a preemption can land mid-Vcycle - messages in flight,
    pending writebacks and all - and still resume bit-identically
    (mid-Vcycle snapshots are a PR-5 capability).  Trusted compiled
    engines execute Vcycles atomically, so they are polled at Vcycle
    boundaries regardless of the grain.
    """
    rejected: list[RejectedSnapshot] = []
    machine: Machine | None = None
    resumed_from: int | None = None
    resumed_path: Path | None = None

    if resume and store is not None:
        valid, rejected = store.scan(program_fingerprint(program))
        for path, snapshot in valid:
            try:
                machine = restore(snapshot, program=program,
                                  config=config, engine=engine,
                                  profiler=profiler)
            except SnapshotError as exc:
                rejected.append(RejectedSnapshot(path, str(exc)))
                continue
            resumed_from = snapshot.vcycle
            resumed_path = path
            break

    if machine is None:
        machine = Machine(program, config, engine=engine,
                          exception_stall=exception_stall,
                          profiler=profiler)

    if on_start is not None:
        on_start(machine, resumed_from is not None)

    publisher: _AsyncPublisher | None = None
    preempted = False
    try:
        while not machine.finished \
                and machine.counters.vcycles < max_vcycles:
            if preempt is not None and preempt_grain > 0 \
                    and not machine._trusted:
                # Checking engine: advance event-by-event so the hook
                # can fire (and the snapshot land) mid-Vcycle.
                completed = machine.step_events(preempt_grain)
                while not completed:
                    if preempt():
                        preempted = True
                        break
                    completed = machine.step_events(preempt_grain)
                if not completed:
                    break
            else:
                if preempt is not None and preempt():
                    preempted = True
                    break
                machine.step_vcycle()
            if on_vcycle is not None:
                on_vcycle(machine)
            if store is not None and checkpoint_every > 0 \
                    and not machine.finished \
                    and machine.counters.vcycles % checkpoint_every == 0:
                if publisher is None:
                    publisher = _AsyncPublisher(store)
                publisher.submit(capture(machine))
    finally:
        published = publisher.close() if publisher is not None else []

    if preempted and store is not None:
        # Handoff snapshot: published synchronously - the caller may
        # hand the job to another worker the moment we return.
        published.append(store.publish(encode_snapshot(capture(machine))))

    return CheckpointedRun(
        result=machine.run(0),  # package a MachineResult, no stepping
        machine=machine,
        resumed_from=resumed_from,
        resumed_path=resumed_path,
        published=published,
        rejected=rejected,
        preempted=preempted,
    )
