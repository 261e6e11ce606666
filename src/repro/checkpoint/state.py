"""Capture a running :class:`~repro.machine.grid.Machine` into a
snapshot payload, and reconstruct one that continues bit-identically.

The payload is self-contained: alongside the machine's dynamic state
(``Machine.checkpoint_state``) it embeds the bootloader binary of the
program and the full :class:`~repro.machine.config.MachineConfig`, both
of which define the *semantics* the state was captured under.  Restore
therefore needs nothing but the snapshot - and when the caller supplies
a freshly compiled program (the usual ``--resume`` path), its bootloader
fingerprint must match the snapshot's or the restore is refused: resuming
state under a different schedule would be silently wrong.

Bit-identity contract (enforced by ``tests/test_checkpoint_equivalence``
over all nine designs x three engines): an interrupted run restored from
its snapshot produces the same :class:`~repro.machine.grid.MachineResult`
- Vcycles, displays, every counter, cache statistics - and the same
per-core registers/scratchpads as the uninterrupted run, including runs
snapshotted *mid-Vcycle* with messages in flight.  A restored
``engine="fast"`` machine rebuilds its verified closures immediately
from the compiled program (no strict re-verification Vcycles) when the
snapshot recorded the fast path as trusted.
"""

from __future__ import annotations

import base64
import dataclasses

from ..machine.boot import deserialize, serialize
from ..machine.config import MachineConfig
from ..machine.grid import COMPILED_ENGINES, Machine
from ..netlist.serialize import blob_sha256
from .format import Snapshot, SnapshotError


def program_fingerprint(program) -> str:
    """Content fingerprint of a compiled program: sha256 of its
    bootloader stream (the canonical wire format)."""
    return blob_sha256(serialize(program))


def capture(machine: Machine) -> dict:
    """Snapshot payload for ``machine`` as it stands right now.

    Captures are legal at any Vcycle boundary on every engine, and
    additionally mid-Vcycle (``Machine.step_events``) on the checking
    engines - in-flight NoC messages, pending writebacks, and the
    half-populated link-reservation set are all part of the payload.

    The program's bootloader stream is immutable for the machine's
    lifetime, so its (relatively expensive) serialization and base64
    form are computed once per machine and reused by every subsequent
    capture - the periodic-checkpoint steady state pays only for the
    dynamic state.
    """
    cached = getattr(machine, "_ckpt_program_cache", None)
    if cached is None:
        stream = serialize(machine.program)
        cached = (base64.b64encode(stream).decode("ascii"),
                  blob_sha256(stream))
        machine._ckpt_program_cache = cached
    encoded, sha = cached
    return {
        "design": machine.program.name,
        "vcycle": machine.counters.vcycles,
        "engine": machine.engine,
        "program_sha256": sha,
        "program": encoded,
        "config": dataclasses.asdict(machine.config),
        "state": machine.checkpoint_state(),
    }


def restore(snapshot: Snapshot, program=None, config=None,
            engine: str | None = None, profiler=None) -> Machine:
    """Reconstruct a machine that continues the snapshotted run.

    ``program``/``config`` default to the embedded copies; passing
    either cross-checks it against the snapshot (bootloader fingerprint
    for the program, field equality for the config) and refuses on
    mismatch.  ``engine`` defaults to the engine the run used;
    overriding it is allowed - machine state is engine-independent - but
    mid-Vcycle snapshots can only continue on the checking engines.
    ``profiler`` (optional) is loaded with the snapshot's profiler
    counters when present, so a profile of the resumed run equals the
    single-run profile.
    """
    payload = snapshot.payload
    if program is None:
        program = deserialize(base64.b64decode(payload["program"]))
    else:
        got = program_fingerprint(program)
        if got != payload["program_sha256"]:
            raise SnapshotError(
                f"snapshot was taken under program "
                f"{payload['program_sha256'][:12]} but the supplied "
                f"program is {got[:12]} (recompiled differently, or the "
                "wrong design)")
    saved_config = MachineConfig(**payload["config"])
    if config is None:
        config = saved_config
    elif dataclasses.asdict(config) != payload["config"]:
        raise SnapshotError(
            "snapshot was taken under a different MachineConfig "
            f"({saved_config} != {config})")
    engine = engine or payload["engine"]
    state = payload["state"]
    if state["event_pos"] and engine in COMPILED_ENGINES \
            and state["fastpath"]["trusted"]:
        raise SnapshotError(
            "snapshot is mid-Vcycle with a trusted compiled engine - "
            "impossible state (corrupt snapshot?)")
    machine = Machine(program, config, engine=engine,
                      exception_stall=int(state["exception_stall"]),
                      profiler=profiler)
    machine.load_checkpoint_state(state)
    return machine
