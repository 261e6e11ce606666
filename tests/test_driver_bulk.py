"""The checkpoint driver's bulk trusted stepping is the same run as
stepping one Vcycle at a time.

``run_with_checkpoints`` advances a trusted, unprofiled codegen machine
with no ``on_vcycle`` hook in bulk calls that stop at the budget, the
next ``checkpoint_every`` boundary and the next preemption poll.  Passing
``on_vcycle`` forces the per-Vcycle loop, so the two are compared here
on bc, mc and jpeg at ``small`` for codegen on its Python kernel, codegen
on the native tier, and ``fast`` (which has no bulk loop): the same
snapshot files byte for byte at the same Vcycles, the same final state,
displays and counters, and the same result when resumed from the middle
snapshot.  A preemption flag set from another thread mid-run stops a
bulk run at a Vcycle boundary within ``PREEMPT_POLL_VCYCLES``, and the
handoff resumes bit-identically.
"""

from __future__ import annotations

import functools
import shutil
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import checkpoint as ck
from repro.checkpoint.driver import PREEMPT_POLL_VCYCLES
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS, mc
from repro.machine import Machine, MachineConfig
from repro.machine import native
from repro.serve.jobs import state_digest

CONFIG = MachineConfig(grid_x=8, grid_y=8)
EVERY = 7
TIERS = ("python", "native", "fast")
HAVE_CC = shutil.which("cc") is not None


@contextmanager
def _tier(tier: str):
    """``native``: codegen's C tier from the first trusted Vcycle;
    ``python``: codegen's Python kernel only; ``fast``: as is."""
    if tier == "native":
        with native.forced():
            yield
    elif tier == "python":
        with mock.patch.object(native, "_threshold", sys.maxsize), \
                mock.patch.object(native, "_LIBS", {}):
            yield
    else:
        yield


def _engine(tier: str) -> str:
    return "fast" if tier == "fast" else "codegen"


def _check_tier(machine, tier: str) -> None:
    """The C tier ran exactly when asked for (and ``cc`` exists)."""
    if tier != "fast":
        ran = machine._fastpath.native_vcycles > 0
        assert ran == (tier == "native" and HAVE_CC)


@functools.lru_cache(maxsize=None)
def _small(name: str):
    return compile_circuit(DESIGNS[name].build_at("small"),
                           CompilerOptions(config=CONFIG)).program


def _observed(machine, result):
    return (state_digest(machine), result.finished, result.vcycles,
            result.displays, result.counters.as_dict(), result.cache)


def _direct(program, budget, tier):
    machine = Machine(program, CONFIG, engine=_engine(tier))
    with _tier(tier):
        result = machine.run(budget)
    return _observed(machine, result)


def _drive(program, budget, tier, directory, per_vcycle, **kw):
    """One checkpointed run; returns it and how many bulk calls ran."""
    bulk_calls = []
    real = Machine._run_bulk

    def counting(machine, until):
        ran = real(machine, until)
        bulk_calls.append(ran)
        return ran

    store = ck.CheckpointStore(directory, keep=0)
    with _tier(tier), mock.patch.object(Machine, "_run_bulk", counting):
        run = ck.run_with_checkpoints(
            program, budget, config=CONFIG, engine=_engine(tier),
            store=store, checkpoint_every=EVERY,
            on_vcycle=(lambda m: None) if per_vcycle else None, **kw)
    return run, sum(bulk_calls)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", ["bc", "mc", "jpeg"])
def test_bulk_equals_per_vcycle(name, tier, tmp_path):
    program = _small(name)
    budget = DESIGNS[name].cycles_at("small")
    expected = _direct(program, budget, tier)

    runs = {}
    for mode in ("bulk", "step"):
        run, bulk_calls = _drive(program, budget, tier, tmp_path / mode,
                                 per_vcycle=mode == "step")
        assert _observed(run.machine, run.result) == expected
        _check_tier(run.machine, tier)
        files = [(p.name, p.read_bytes()) for p in run.published]
        assert [ck.decode_snapshot(blob).vcycle for _n, blob in files] \
            == list(range(EVERY, run.result.vcycles, EVERY))
        runs[mode] = files
        if mode == "step" or tier == "fast":
            assert bulk_calls == 0
        else:
            # The bulk path ran, in fewer calls than there were Vcycles.
            assert 0 < bulk_calls < run.result.vcycles
    assert runs["bulk"] == runs["step"]

    # Resume from the middle snapshot: same result as the direct run.
    name_mid, blob = runs["bulk"][len(runs["bulk"]) // 2]
    resume_dir = tmp_path / "resume"
    resume_dir.mkdir()
    (resume_dir / name_mid).write_bytes(blob)
    with _tier(tier):
        resumed = ck.run_with_checkpoints(
            program, budget, config=CONFIG, engine=_engine(tier),
            store=ck.CheckpointStore(resume_dir, keep=0), resume=True)
    assert resumed.resumed_from == ck.decode_snapshot(blob).vcycle
    assert _observed(resumed.machine, resumed.result) == expected


@functools.lru_cache(maxsize=None)
def _long_mc():
    """mc long enough that a second thread can act mid-run."""
    return compile_circuit(mc.build(walkers=8, steps=20000),
                           CompilerOptions(config=CONFIG)).program


@pytest.mark.parametrize("tier", ["python", "native"])
def test_preempt_from_another_thread_lands_within_the_poll_bound(
        tier, tmp_path):
    program = _long_mc()
    budget = 21000
    flag = threading.Event()
    seen = {}

    def setter(machine):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if machine._trusted and machine.counters.vcycles >= 64:
                seen["at"] = machine.counters.vcycles
                flag.set()
                return
            time.sleep(0.0005)

    threads = []

    def on_start(machine, _resumed):
        thread = threading.Thread(target=setter, args=(machine,))
        thread.start()
        threads.append(thread)

    store = ck.CheckpointStore(tmp_path / "run", keep=0)
    with _tier(tier):
        run = ck.run_with_checkpoints(
            program, budget, config=CONFIG, engine="codegen", store=store,
            on_start=on_start, preempt=flag.is_set)
    for thread in threads:
        thread.join()

    assert run.preempted and not run.result.finished
    _check_tier(run.machine, tier)
    assert 0 <= run.result.vcycles - seen["at"] <= PREEMPT_POLL_VCYCLES
    handoff = ck.load_snapshot(run.published[-1])
    assert handoff.vcycle == run.result.vcycles
    assert handoff.payload["state"]["event_pos"] == 0

    resume_dir = tmp_path / "resume"
    shutil.copytree(tmp_path / "run", resume_dir)
    with _tier(tier):
        resumed = ck.run_with_checkpoints(
            program, budget, config=CONFIG, engine="codegen",
            store=ck.CheckpointStore(resume_dir), resume=True)
    assert resumed.resumed_from == handoff.vcycle
    assert resumed.result.finished
    assert _observed(resumed.machine, resumed.result) \
        == _direct(program, budget, tier)
