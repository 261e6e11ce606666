"""The checkpoint/restore subsystem (``repro.checkpoint``).

Covers the wire format (round-trip, determinism, torn/corrupt/mismatch
rejection), the snapshot store (atomic publish, prune, recovery report),
mid-Vcycle capture with messages in flight, fast-path trust restore,
profiler merge across resume segments, waveform continuity, the long-run
driver, the schema document, and the ``repro run`` CLI.  The full
designs x engines bit-identity sweep lives in
``tests/test_checkpoint_equivalence.py``.
"""

from __future__ import annotations

import functools
import io
import json

import pytest

from repro import checkpoint as ck
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import ENGINES, Machine, MachineConfig
from repro.machine.waveform import WaveformCollector, trace_map_for
from repro.obs import Profiler

CONFIG = MachineConfig(grid_x=8, grid_y=8)


@functools.lru_cache(maxsize=None)
def _compiled(name: str):
    return compile_circuit(DESIGNS[name].build(),
                           CompilerOptions(config=CONFIG))


def _budget(name: str) -> int:
    return max(64, DESIGNS[name].cycles + 300)


def _machine(name: str, engine: str = "strict", **kw) -> Machine:
    return Machine(_compiled(name).program, CONFIG, engine=engine, **kw)


def _snap(machine: Machine) -> ck.Snapshot:
    """Capture through the full wire format (encode -> decode)."""
    return ck.decode_snapshot(ck.encode_snapshot(ck.capture(machine)))


# ---------------------------------------------------------------------------
# Wire format.
# ---------------------------------------------------------------------------

def test_format_round_trip_and_header():
    machine = _machine("mm")
    machine.run(20)
    blob = ck.encode_snapshot(ck.capture(machine))
    snap = ck.decode_snapshot(blob)
    assert snap.vcycle == 20
    assert snap.engine == "strict"
    assert snap.design == machine.program.name
    assert snap.program_sha256 == ck.program_fingerprint(machine.program)
    assert snap.header["format"] == ck.FORMAT
    assert blob.startswith(ck.MAGIC)


def test_format_is_deterministic():
    def capture_at(v):
        machine = _machine("mm")
        machine.run(v)
        return ck.encode_snapshot(ck.capture(machine))

    assert capture_at(20) == capture_at(20)
    assert capture_at(20) != capture_at(21)


@pytest.mark.parametrize("mutate", [
    lambda b: b[:len(b) // 2],                       # truncated payload
    lambda b: b[:40],                                # truncated header
    lambda b: b"NOTCKPT!" + b[8:],                   # bad magic
    lambda b: b[:-30] + bytes(30),                   # corrupted tail
    lambda b: b.replace(b"repro-checkpoint/v1",
                        b"repro-checkpoint/v9", 1),  # future version
])
def test_format_rejects_torn_and_corrupt(mutate):
    machine = _machine("mm")
    machine.run(20)
    blob = ck.encode_snapshot(ck.capture(machine))
    with pytest.raises(ck.SnapshotError):
        ck.decode_snapshot(mutate(blob))


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_snapshot_matches_schema(engine):
    with open("docs/checkpoint.schema.json") as f:
        schema = json.load(f)
    from repro.obs.export import validate_profile
    machine = _machine("mc", engine=engine, profiler=Profiler())
    machine.run(30)
    snap = _snap(machine)
    errors = validate_profile(
        {"header": snap.header, "payload": snap.payload}, schema)
    assert errors == []
    assert "profiler" in snap.payload["state"]


# ---------------------------------------------------------------------------
# Restore guards.
# ---------------------------------------------------------------------------

def test_restore_rejects_wrong_program():
    machine = _machine("mm")
    machine.run(20)
    snap = _snap(machine)
    with pytest.raises(ck.SnapshotError, match="program"):
        ck.restore(snap, program=_compiled("mc").program)


def test_restore_rejects_wrong_config():
    machine = _machine("mm")
    machine.run(20)
    snap = _snap(machine)
    with pytest.raises(ck.SnapshotError, match="MachineConfig"):
        ck.restore(snap, config=MachineConfig(grid_x=8, grid_y=8,
                                              result_latency=9))


def test_restore_is_self_contained():
    """No program/config arguments: the embedded copies suffice."""
    machine = _machine("mm")
    ref = _machine("mm")
    budget = _budget("mm")
    ref_r = ref.run(budget)
    machine.run(20)
    restored = ck.restore(_snap(machine))
    assert restored.run(budget).counters == ref_r.counters


# ---------------------------------------------------------------------------
# Mid-Vcycle capture: messages in flight, pending writebacks.
# ---------------------------------------------------------------------------

def _pause_with_traffic(machine: Machine, limit: int = 200_000) -> bool:
    """Advance event-by-event into a Vcycle and pause at a point where
    NoC messages are in flight (received-this-Vcycle queue entries)."""
    for _ in range(limit):
        done = machine.step_events(1)
        if machine._event_pos and any(
                core.queue for core in machine.cores.values()):
            return True
        if done and machine.finished:
            return False
    return False


@pytest.mark.parametrize("engine", ["strict"])
def test_mid_vcycle_snapshot_with_inflight_messages(engine):
    budget = _budget("noc")
    ref = _machine("noc", engine)
    ref_r = ref.run(budget)

    machine = _machine("noc", engine)
    machine.run(30)
    assert _pause_with_traffic(machine), "no NoC traffic found to pause in"
    assert machine._event_pos > 0
    snap = _snap(machine)
    state = snap.payload["state"]
    assert state["event_pos"] > 0
    assert any(core["queue"] for core in state["cores"].values())

    restored = ck.restore(snap)
    r = restored.run(budget)
    assert r.vcycles == ref_r.vcycles
    assert r.displays == ref_r.displays
    assert r.counters == ref_r.counters
    assert r.cache == ref_r.cache
    for cid, core in ref.cores.items():
        assert restored.cores[cid].regs == core.regs
        assert restored.cores[cid].scratch == core.scratch


def test_step_events_refuses_trusted_fastpath():
    machine = _machine("mc", engine="fast")
    budget = _budget("mc")
    while not machine._trusted:
        assert not machine.finished and \
            machine.counters.vcycles < budget, "fast path never trusted"
        machine.step_vcycle()
    with pytest.raises(ValueError):
        machine.step_events(1)


def test_fastpath_trust_restored_without_reverification():
    machine = _machine("mc", engine="fast")
    budget = _budget("mc")
    while not machine._trusted:
        machine.step_vcycle()
    snap = _snap(machine)
    assert snap.payload["state"]["fastpath"]["trusted"] is True

    restored = ck.restore(snap)
    assert restored._trusted is True          # no strict re-verify burned
    ref = _machine("mc", engine="fast")
    ref_r = ref.run(budget)
    assert restored.run(budget).counters == ref_r.counters


def test_restored_engine_can_differ():
    """Machine state is engine-independent: a strict snapshot finishes
    identically on the fast engine (at a Vcycle boundary)."""
    budget = _budget("mc")
    ref_r = _machine("mc", "strict").run(budget)
    machine = _machine("mc", "strict")
    machine.run(30)
    restored = ck.restore(_snap(machine), engine="fast")
    r = restored.run(budget)
    assert r.counters == ref_r.counters
    assert r.displays == ref_r.displays


# ---------------------------------------------------------------------------
# Profiler merge across resume segments.
# ---------------------------------------------------------------------------

def test_profiler_counters_merge_across_resume():
    budget = _budget("mc")
    ref_prof = Profiler()
    ref = _machine("mc", "strict", profiler=ref_prof)
    ref.run(budget)

    prof1 = Profiler()
    machine = _machine("mc", "strict", profiler=prof1)
    machine.run(30)
    machine.step_events(5)  # split a Vcycle across the snapshot too
    prof2 = Profiler()
    restored = ck.restore(_snap(machine), profiler=prof2)
    restored.run(budget)

    assert prof2.state_dict() == ref_prof.state_dict()
    assert prof2.totals() == ref_prof.totals()


# ---------------------------------------------------------------------------
# Waveform continuity.
# ---------------------------------------------------------------------------

def test_waveform_resume_appends_without_duplicates():
    budget = _budget("mc")
    probes = trace_map_for(_compiled("mc"))
    assert probes, "mc should expose traceable registers"

    ref = _machine("mc")
    ref_coll = WaveformCollector(ref, probes)
    ref_coll.run(budget)
    ref_vcd = ref_coll.vcd_text()

    machine = _machine("mc")
    coll1 = WaveformCollector(machine, probes)
    coll1.sample()
    while not machine.finished and machine.counters.vcycles < 30:
        machine.step_vcycle()
        coll1.sample()
    snap = _snap(machine)

    restored = ck.restore(snap)
    coll2 = WaveformCollector.resumed_from(restored, probes)
    coll2.sample()  # boundary Vcycle: must NOT re-emit
    while not restored.finished and restored.counters.vcycles < budget:
        restored.step_vcycle()
        coll2.sample()

    buf = io.StringIO()
    coll1.write_vcd(buf)
    coll2.write_vcd(buf, header=False)
    assert buf.getvalue() == ref_vcd


# ---------------------------------------------------------------------------
# Store: atomic publish, prune, recovery report.
# ---------------------------------------------------------------------------

def _blob_at(vcycle: int) -> bytes:
    machine = _machine("mm")
    machine.run(vcycle)
    return ck.encode_snapshot(ck.capture(machine))


def test_store_publish_prune_latest(tmp_path):
    store = ck.CheckpointStore(tmp_path / "ckpts", keep=3)
    for v in (5, 10, 15, 20, 25):
        store.publish(_blob_at(v))
    names = [p.name for p in store.snapshot_paths()]
    assert names == ["ckpt-000000000015.ckpt", "ckpt-000000000020.ckpt",
                     "ckpt-000000000025.ckpt"]
    found = store.latest()
    assert found is not None and found[1].vcycle == 25


def test_store_reports_torn_and_mismatched(tmp_path):
    store = ck.CheckpointStore(tmp_path, keep=0)
    store.publish(_blob_at(5))
    good = _blob_at(10)
    store.publish(good)
    # Newest generation is torn (as if the writer died mid-write and
    # rename never happened but bytes leaked anyway).
    store.path_for(15).write_bytes(_blob_at(15)[:-20])

    valid, rejected = store.scan()
    assert [s.vcycle for _, s in valid] == [10, 5]
    assert len(rejected) == 1
    assert rejected[0].path == store.path_for(15)
    assert "torn" in rejected[0].reason

    # Program-fingerprint filter rejects everything from other programs.
    valid, rejected = store.scan(program_sha256="0" * 64)
    assert valid == []
    assert len(rejected) == 3
    assert any("fingerprint" in r.reason for r in rejected)

    found = store.latest()
    assert found is not None and found[1].vcycle == 10


def test_store_prune_removes_stale_tempfiles(tmp_path):
    store = ck.CheckpointStore(tmp_path, keep=2)
    (tmp_path / ".wip-ckpt-000000000005.ckpt-999").write_bytes(b"junk")
    store.publish(_blob_at(5))
    assert list(tmp_path.glob(".wip-*")) == []
    assert len(store.snapshot_paths()) == 1


# ---------------------------------------------------------------------------
# Driver: chunked runs, resume, rejection reporting.
# ---------------------------------------------------------------------------

def test_driver_interrupt_and_resume_matches_clean_run(tmp_path):
    program = _compiled("mc").program
    budget = _budget("mc")
    clean = ck.run_with_checkpoints(program, budget, config=CONFIG,
                                    engine="fast")
    assert clean.result.finished and clean.resumed_from is None

    store = ck.CheckpointStore(tmp_path, keep=3)
    first = ck.run_with_checkpoints(
        program, 25, config=CONFIG, engine="fast", store=store,
        checkpoint_every=10)
    assert [p.name for p in first.published] == \
        ["ckpt-000000000010.ckpt", "ckpt-000000000020.ckpt"]

    second = ck.run_with_checkpoints(
        program, budget, config=CONFIG, engine="fast", store=store,
        checkpoint_every=10, resume=True)
    assert second.resumed_from == 20
    assert second.rejected == []
    assert second.result.vcycles == clean.result.vcycles
    assert second.result.displays == clean.result.displays
    assert second.result.counters == clean.result.counters
    assert second.result.cache == clean.result.cache


def test_driver_discards_bad_newest_and_reports(tmp_path):
    program = _compiled("mc").program
    budget = _budget("mc")
    clean = ck.run_with_checkpoints(program, budget, config=CONFIG)

    store = ck.CheckpointStore(tmp_path, keep=0)
    ck.run_with_checkpoints(program, 25, config=CONFIG, store=store,
                            checkpoint_every=10)
    # A torn newest generation and a snapshot from a different program.
    store.path_for(30).write_bytes(b"RPROCKPTgarbage")
    other = _machine("mm")
    other.run(35)
    store.path_for(35).write_bytes(ck.encode_snapshot(ck.capture(other)))

    resumed = ck.run_with_checkpoints(program, budget, config=CONFIG,
                                      store=store, resume=True)
    assert resumed.resumed_from == 20
    reasons = {r.path.name: r.reason for r in resumed.rejected}
    assert set(reasons) == {"ckpt-000000000030.ckpt",
                            "ckpt-000000000035.ckpt"}
    assert resumed.result.counters == clean.result.counters


def test_driver_fresh_start_when_store_empty(tmp_path):
    program = _compiled("mm").program
    run = ck.run_with_checkpoints(
        program, _budget("mm"), config=CONFIG,
        store=ck.CheckpointStore(tmp_path), resume=True)
    assert run.resumed_from is None and run.result.finished


def test_driver_on_start_hook_sees_resume_flag(tmp_path):
    program = _compiled("mm").program
    store = ck.CheckpointStore(tmp_path)
    seen = []
    ck.run_with_checkpoints(program, 10, config=CONFIG, store=store,
                            checkpoint_every=5,
                            on_start=lambda m, r: seen.append(r))
    ck.run_with_checkpoints(program, 20, config=CONFIG, store=store,
                            resume=True,
                            on_start=lambda m, r: seen.append(r))
    assert seen == [False, True]


# ---------------------------------------------------------------------------
# CLI: repro run --checkpoint-every/--resume/--json.
# ---------------------------------------------------------------------------

def _cli_run(capsys, *extra) -> dict:
    from repro.cli import main
    args = ["run", "--design", "mc", "--engine", "fast", "--no-cache",
            "--grid", "8", "8", "--json", *extra]
    assert main(args) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_run_checkpoint_resume_matches_clean(tmp_path, capsys):
    clean = _cli_run(capsys)
    ckdir = str(tmp_path / "ckpts")
    partial = _cli_run(capsys, "--checkpoint-dir", ckdir,
                       "--checkpoint-every", "10", "--cycles", "25")
    assert partial["finished"] is False
    resumed = _cli_run(capsys, "--checkpoint-dir", ckdir,
                       "--checkpoint-every", "10", "--resume")
    assert resumed.pop("resumed_from") == 20
    clean.pop("resumed_from")
    assert resumed == clean


def test_cli_run_flags_require_checkpoint_dir(capsys):
    from repro.cli import main
    assert main(["run", "--design", "mm", "--resume"]) == 2
    assert main(["run"]) == 2
