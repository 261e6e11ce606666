"""The codegen engine's native C tier vs its Python kernel vs strict.

:mod:`repro.machine.native` translates the emitted ``grid_kernel`` to C
and runs it through ctypes.  Nothing observable may change: this file
holds the state digest, displays, counters and cache statistics equal
across the three on the design registry at ``small``/8x8, both Verilog
examples, the fuzz corpus and 200 generated circuits; drives every abort
sentinel, exception-serviced Vcycles, syncs at arbitrary Vcycles and
host-call exceptions through both kernels; checks the translator's
range proofs; and holds every fallback (no ``cc``, an unsupported
construct, a cc failure or timeout, the line ceiling) to identical
results with a named reason.

Without ``cc`` on ``PATH`` the same file runs with every native run
falling back: the digests must still match and ``native_error`` must
name the missing compiler (see :func:`_check_tier`).
"""

from __future__ import annotations

import asyncio
import functools
import glob
import os
import shutil
import sys
from array import array
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

from repro import checkpoint as ck
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.fuzz import load_entry
from repro.fuzz.generator import GeneratorParams, generate
from repro.fuzz.oracle import FUZZ_CONFIG, check_profile_invariants
from repro.machine import Machine, MachineConfig
from repro.machine import codegen as cg
from repro.machine import native
from repro.netlist.verilog import parse_verilog
from repro.obs import Profiler, Tracer, use_tracer
from repro.serve.jobs import state_digest

HAVE_CC = shutil.which("cc") is not None
CONFIG = MachineConfig(grid_x=8, grid_y=8)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERILOG = {"uart_loopback.v": 384, "packet_switch.v": 64}
CORPUS = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.json")))
FUZZ_PARAMS = GeneratorParams(n_regs=2, n_ops=8, max_width=24,
                              mem_depth=4, cycles=6)


@contextmanager
def _tier(tier: str):
    """``native``: the C tier from the first trusted Vcycle; ``python``:
    the Python kernel only (no build starts, no built kernel is used)."""
    if tier == "native":
        with native.forced():
            yield
    else:
        with mock.patch.object(native, "_threshold", sys.maxsize), \
                mock.patch.object(native, "_LIBS", {}):
            yield


def _run(program, config, budget, tier, profiler=None):
    machine = Machine(program, config,
                      engine="strict" if tier == "strict" else "codegen",
                      profiler=profiler)
    with _tier(tier):
        result = machine.run(budget)
    return machine, result


def _observed(machine, result):
    return (state_digest(machine), result.finished, result.vcycles,
            result.displays, result.counters.as_dict(), result.cache)


def _check_tier(machine) -> None:
    """The native tier ran - or, without ``cc``, fell back and said so."""
    engine = machine._fastpath
    assert engine is not None, machine._fastpath_error
    if HAVE_CC:
        assert engine.native_error is None, engine.native_error
        assert engine.native_vcycles > 0
    else:
        assert engine.native_vcycles == 0
        assert "'cc' is not on PATH" in engine.native_error


def _three_way(program, config, budget):
    """strict == Python kernel == native; returns the native machine."""
    ref = _observed(*_run(program, config, budget, "strict"))
    assert _observed(*_run(program, config, budget, "python")) == ref
    machine, result = _run(program, config, budget, "native")
    assert _observed(machine, result) == ref
    return machine


@functools.lru_cache(maxsize=None)
def _small(name: str):
    options = CompilerOptions(config=CONFIG)
    return compile_circuit(DESIGNS[name].build_at("small"),
                           options).program


def _fuzz_program(circuit):
    return compile_circuit(circuit,
                           CompilerOptions(config=FUZZ_CONFIG)).program


# ---------------------------------------------------------------------------
# Bit-identity.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_designs_small_bit_identical(name):
    machine = _three_way(_small(name), CONFIG,
                         DESIGNS[name].cycles_at("small"))
    _check_tier(machine)


@pytest.mark.parametrize("path", sorted(VERILOG))
def test_verilog_examples_bit_identical(path):
    with open(os.path.join(ROOT, "examples", path)) as fh:
        circuit = parse_verilog(fh.read())
    program = compile_circuit(circuit,
                              CompilerOptions(config=CONFIG)).program
    _check_tier(_three_way(program, CONFIG, VERILOG[path]))


@pytest.mark.parametrize("path", CORPUS,
                         ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_bit_identical(path):
    entry = load_entry(path)
    _three_way(_fuzz_program(entry.circuit), FUZZ_CONFIG, entry.cycles)


@pytest.mark.parametrize("block", range(4))
def test_generated_circuits_bit_identical(block):
    """200 generated circuits (50 seeds per block) on the fuzz grid."""
    ran = 0
    for seed in range(block * 50, block * 50 + 50):
        program = _fuzz_program(generate(seed, FUZZ_PARAMS))
        machine = _three_way(program, FUZZ_CONFIG, FUZZ_PARAMS.cycles + 4)
        engine = machine._fastpath
        ran += engine is not None and engine.native_vcycles > 0
    assert ran == (50 if HAVE_CC else 0)


# ---------------------------------------------------------------------------
# The kernel's exits: abort sentinels, serviced exceptions, syncs.
# ---------------------------------------------------------------------------
def _finish_at(machine, eid: int) -> None:
    """Make ``$finish`` land at the first exception ``eid`` raises, so
    the kernel aborts through that Expect's sentinel."""
    service = machine.service_exception

    def service_then_finish(cid: int, got: int) -> None:
        service(cid, got)
        if got == eid:
            machine.finished = True

    machine.service_exception = service_then_finish


def _expect_ids(program) -> list[int]:
    from repro.isa import instructions as isa
    core = program.cores[program.privileged_core]
    return sorted({i.eid for i in core.body if isinstance(i, isa.Expect)})


@pytest.fixture
def native_codes(monkeypatch):
    """Every yield code the C kernel returned during the test."""
    codes = []
    run = native.NativeKernel.run

    def spy(self, budget):
        got = run(self, budget)
        codes.append(got[0])
        return got

    monkeypatch.setattr(native.NativeKernel, "run", spy)
    return codes


@pytest.mark.parametrize("name", ["bc", "mc"])
def test_every_abort_sentinel(name, native_codes):
    """A mid-Vcycle ``$finish`` at each Expect that fires: the stop
    bodies replay the other cores' prefixes from the C kernel's
    write-back exactly as from the Python kernel's."""
    program = _small(name)
    budget = DESIGNS[name].cycles_at("small")
    fired = 0
    for eid in _expect_ids(program):
        seen = []
        for tier in ("strict", "python", "native"):
            machine = Machine(program, CONFIG, engine="strict"
                              if tier == "strict" else "codegen")
            _finish_at(machine, eid)
            with _tier(tier):
                result = machine.run(budget)
            seen.append(_observed(machine, result))
        assert seen[0] == seen[1] == seen[2], f"eid {eid}"
        fired += seen[0][1] and seen[0][2] < budget
    # An Expect firing on the strict verification Vcycle never reaches
    # the kernel, so the C kernel sees at most ``fired`` sentinels.
    sentinels = {code for code in native_codes if code >= 0}
    assert fired >= 2 and (len(sentinels) >= 2) == HAVE_CC


def test_exception_serviced_vcycles(native_codes):
    """bc displays mid-run: code -2 Vcycles retire the C kernel, which
    rehydrates on the next trusted Vcycle (strict identity is
    test_designs_small_bit_identical[bc])."""
    program = _small("bc")
    budget = DESIGNS["bc"].cycles_at("small")
    ref = _observed(*_run(program, CONFIG, budget, "python"))
    machine, result = _run(program, CONFIG, budget, "native")
    assert _observed(machine, result) == ref
    assert (native_codes.count(-2) >= 2) == HAVE_CC


@pytest.mark.parametrize("stops", [(1, 2, 3, 5, 8, 13, 40, 41, 97),
                                   (7, 64, 65, 66, 200)])
def test_sync_at_arbitrary_vcycles(stops):
    """``run`` ends with a sync and ``peek_reg`` syncs mid-run; each
    later Vcycle rehydrates the C state from the cores."""
    program = _small("bc")
    budget = DESIGNS["bc"].cycles_at("small")
    ref_m, ref_r = _run(program, CONFIG, budget, "python")
    machine = Machine(program, CONFIG, engine="codegen")
    with native.forced():
        for stop in stops:
            machine.run(stop)
            machine.peek_reg(program.privileged_core, 1)
        result = machine.run(budget)
    assert _observed(machine, result) == _observed(ref_m, ref_r)
    _check_tier(machine)


def test_checkpoint_while_native_is_live():
    """Capture while the C kernel holds the state, restore into a fresh
    machine, finish there: same digest as an uninterrupted run (the
    native variant of test_codegen_checkpoint_resume_bit_identical)."""
    program = _small("mc")
    budget = DESIGNS["mc"].cycles_at("small")
    ref_m, ref_r = _run(program, CONFIG, budget, "python")
    with native.forced():
        machine = Machine(program, CONFIG, engine="codegen")
        machine.run(ref_r.vcycles // 2)
        _check_tier(machine)
        snapshot = ck.decode_snapshot(ck.encode_snapshot(
            ck.capture(machine)))
        restored = ck.restore(snapshot, program=program, config=CONFIG)
        result = restored.run(budget)
    assert _observed(restored, result) == _observed(ref_m, ref_r)
    _check_tier(restored)


def test_profiler_does_not_perturb_native():
    """``test_obs_perturbation`` with the native tier running: profiled
    per-Vcycle C calls == unprofiled bulk C calls == the Python kernel."""
    program = _small("mc")
    budget = DESIGNS["mc"].cycles_at("small")
    ref = _observed(*_run(program, CONFIG, budget, "python"))
    assert _observed(*_run(program, CONFIG, budget, "native")) == ref
    profiler = Profiler()
    machine, result = _run(program, CONFIG, budget, "native",
                           profiler=profiler)
    assert _observed(machine, result) == ref
    _check_tier(machine)
    assert check_profile_invariants(profiler, result) is None


def test_bulk_runs_are_split_into_bounded_calls(monkeypatch):
    monkeypatch.setattr(native, "CHUNK_VCYCLES", 7)
    program = _small("mc")
    machine = Machine(program, CONFIG, engine="codegen")
    with native.forced():
        machine.step_vcycle()                  # verification Vcycle
        assert machine._trusted
        before = machine.counters.vcycles
        machine._fastpath.run_vcycles(50)
        _check_tier(machine)
        assert machine.counters.vcycles - before == (7 if HAVE_CC else 50)


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_hydrate_outside_proven_range_keeps_python_kernel():
    """A carry/predicate the C preamble cannot prove 16-bit (only a
    foreign write gets there) retires the C tier, never an error."""
    program = _small("mc")
    machine = Machine(program, CONFIG, engine="codegen")
    with native.forced():
        machine.run(20)
        engine = machine._fastpath
        cid, attr = engine._native._tr.attrs[0]
        setattr(machine.cores[cid], attr, 1 << 16)
        ran = engine.native_vcycles
        machine.run(40)                     # a budget in total Vcycles
    assert engine._native is None and engine.native_vcycles == ran
    assert f"core {cid} {attr}=65536 is outside" in engine.native_error
    assert machine.counters.vcycles > 20


@pytest.mark.parametrize("name", ["bc", "mc"])
@pytest.mark.parametrize("background", [False, True],
                         ids=["synchronous", "background"])
def test_switch_after_threshold_mid_run(name, background, monkeypatch):
    """The production hand-off: the Python kernel runs the first trusted
    Vcycles up to the threshold, the build starts (and, in the
    background, lands while the Python kernel runs capped bulk calls),
    and at a Vcycle boundary the live generator is flushed and the C
    state hydrated from the cores."""
    program = _small(name)
    budget = DESIGNS[name].cycles_at("small")
    ref = _observed(*_run(program, CONFIG, budget, "strict"))
    assert _observed(*_run(program, CONFIG, budget, "python")) == ref
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "_SPANS", {})
    monkeypatch.setattr(native, "_threshold", 37)
    monkeypatch.setattr(native, "_synchronous", not background)
    monkeypatch.setattr(cg, "_TRUSTED", {})
    monkeypatch.setattr(cg, "_PENDING_CHUNK", 5)
    request = native.request

    def land_at_the_next_boundary(key, *args):
        # A build already in flight lands before this boundary looks.
        thread = native._BUILDS.get(key)
        if thread is not None:
            thread.join()
        return request(key, *args)

    monkeypatch.setattr(native, "request", land_at_the_next_boundary)
    switches = []   # (generator live before the switch, Python Vcycles)
    native_budget = cg.CodegenEngine._native_budget

    def spy(self, budget):
        live = self._gen is not None
        got = native_budget(self, budget)
        if self._native is not None:
            switches.append((live, cg._TRUSTED[self._key]))
        return got

    monkeypatch.setattr(cg.CodegenEngine, "_native_budget", spy)
    machine = Machine(program, CONFIG, engine="codegen")
    result = machine.run(budget)
    assert _observed(machine, result) == ref
    engine = machine._fastpath
    if not HAVE_CC:
        assert switches == [] and engine.native_vcycles == 0
        assert "'cc' is not on PATH" in engine.native_error
        return
    assert engine.native_error is None, engine.native_error
    assert len(switches) == 1 and switches[0][0]
    python_vcycles = switches[0][1]
    assert 37 < python_vcycles <= 37 + 5 if background else python_vcycles == 37
    assert 0 < engine.native_vcycles < result.vcycles


# ---------------------------------------------------------------------------
# Host calls: exceptions surface as themselves, state matches.
# ---------------------------------------------------------------------------
def _raise_on_call(machine, attr: str, at: int, exc: BaseException):
    real = getattr(machine, attr)
    calls = []

    def host(*args):
        calls.append(args)
        if len(calls) == at:
            raise exc
        return real(*args)

    setattr(machine, attr, host)
    return lambda: setattr(machine, attr, real)


ONE_CORE = MachineConfig(grid_x=1, grid_y=1)


@functools.lru_cache(maxsize=None)
def _global_memory(kind: str):
    """A micro benchmark whose buffer lives in DRAM: one ``_gr`` and one
    ``_gw`` per Vcycle, behind the privileged core's cache."""
    from repro.designs import micro
    build = micro.build_ram if kind == "ram" else micro.build_fifo
    return compile_circuit(build(64 << 10, cycles=300),
                           CompilerOptions(config=ONE_CORE)).program


@pytest.mark.parametrize("kind", ["ram", "fifo"])
def test_global_memory_bit_identical(kind):
    machine = _three_way(_global_memory(kind), ONE_CORE, 308)
    _check_tier(machine)
    assert machine.cache.stats.accesses > 500


@pytest.mark.parametrize("attr,at", [("global_read", 40),
                                     ("global_write", 7),
                                     ("service_exception", 3)])
def test_host_call_exception(attr, at):
    """A host call raising mid-Vcycle kills either kernel un-flushed;
    the exception, the state left behind and the rest of the run
    (after rehydrating) are the same for both."""
    if attr == "service_exception":
        program, config, budget = (_small("bc"), CONFIG,
                                   DESIGNS["bc"].cycles_at("small"))
    else:
        program, config, budget = _global_memory("ram"), ONE_CORE, 308
    seen = []
    for tier in ("python", "native"):
        machine = Machine(program, config, engine="codegen")
        restore = _raise_on_call(machine, attr, at, RuntimeError("boom"))
        with _tier(tier):
            with pytest.raises(RuntimeError, match="boom"):
                machine.run(budget)
            after = ([bytes(c.regs) for c in machine.cores.values()],
                     [bytes(c.scratch or b"") for c in
                      machine.cores.values()],
                     machine.counters.as_dict())
            restore()
            result = machine.run(budget)
        seen.append((after, _observed(machine, result)))
    assert seen[0] == seen[1]


def test_keyboard_interrupt_from_host_callback_surfaces_as_itself():
    machine = Machine(_global_memory("ram"), ONE_CORE, engine="codegen")
    _raise_on_call(machine, "global_read", 50, KeyboardInterrupt())
    with native.forced():
        with pytest.raises(KeyboardInterrupt):
            machine.run(308)
    # Raised inside the first C call, which therefore counted nothing.
    assert (machine._fastpath._native is not None) == HAVE_CC


def _state(machine):
    return ([bytes(c.regs) for c in machine.cores.values()],
            [bytes(c.scratch or b"") for c in machine.cores.values()],
            machine.counters.as_dict())


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")
def test_interrupt_before_callback_try_still_stops_the_kernel(monkeypatch):
    """A Ctrl-C whose handler runs as a host callback's frame starts
    raises before the callback's ``try``; ctypes reports and drops it.
    The call is still pending, so the C kernel stops there and the
    run raises KeyboardInterrupt, leaving what the Python kernel
    leaves when that host call raises - and the run continues alike."""
    program, budget, at = _global_memory("ram"), 308, 40
    py = Machine(program, ONE_CORE, engine="codegen")
    restore = _raise_on_call(py, "global_read", at, KeyboardInterrupt())
    with _tier("python"):
        with pytest.raises(KeyboardInterrupt):
            py.run(budget)
        after_py = _state(py)
        restore()
        ref = _observed(py, py.run(budget))

    machine = Machine(program, ONE_CORE, engine="codegen")
    reads = []
    read = machine.global_read

    def counted(*args):
        reads.append(args)
        return read(*args)

    machine.global_read = counted
    gr = native.NativeKernel._gr

    def raises_at_entry(self, cid, addr):
        if len(reads) == at - 1:
            reads.append(None)      # the read that never happens
            raise KeyboardInterrupt
        return gr(self, cid, addr)

    monkeypatch.setattr(native.NativeKernel, "_gr", raises_at_entry)
    with native.forced():
        with pytest.raises(KeyboardInterrupt):
            machine.run(budget)
        assert _state(machine) == after_py
        result = machine.run(budget)
    assert _observed(machine, result) == ref
    _check_tier(machine)


# ---------------------------------------------------------------------------
# The translator: range proofs, 16-bit stores, the whitelist.
# ---------------------------------------------------------------------------
KERNEL = """\
def make_kernel(machine, cores, msgs, park):
    _m = machine
    core0 = cores[0]
    regs0 = core0.regs
    sc0 = core0.scratch

    def grid_kernel():
        c0_r1 = regs0[1]
        c0_r2 = regs0[2]
        while True:
{body}
            cmd = yield -1
            if cmd is not None:
{sync}
                yield -3
                return

    return grid_kernel
"""
LENGTHS = {(0, "regs"): 16, (0, "scratch"): 8}


def _kernel(body: str, sync: str = "                regs0[1] = c0_r1"):
    return KERNEL.format(body=body, sync=sync)


def _fake_machine(r1: int, r2: int):
    core = SimpleNamespace(regs=array("H", [0] * 16),
                           scratch=array("H", [0] * 8), carry=0,
                           predicate=0)
    core.regs[1], core.regs[2] = r1, r2
    return SimpleNamespace(cores={0: core}, finished=False,
                           service_exception=None, global_read=None,
                           global_write=None)


@pytest.mark.parametrize("body,sync,r1,r2,message,in_sync", [
    ("            sc0[c0_r1 & 7] = c0_r1 + c0_r2",
     "                regs0[1] = c0_r1", 60000, 10000,
     "unsigned short is greater than maximum", False),
    ("            c0_r1 = c0_r2",
     "                regs0[3] = c0_r1 - 7", 0, 3,
     "unsigned short is less than minimum", True),
])
def test_unproven_16bit_store_keeps_the_python_kernel(body, sync, r1, r2,
                                                      message, in_sync):
    """A 16-bit store not proven in range refuses the kernel, so the
    Python kernel runs it and an out-of-range value raises OverflowError,
    exactly as ``array("H")`` does."""
    source = _kernel(body, sync)
    with pytest.raises(native.NativeUnsupported, match="16-bit store"):
        native.translate(source, LENGTHS, 0)
    ns = {}
    exec(compile(source, "<kernel>", "exec"), ns)
    machine = _fake_machine(r1, r2)
    gen = ns["make_kernel"](machine, machine.cores, [], [])()
    if in_sync:
        assert next(gen) == -1
    with pytest.raises(OverflowError, match=message):
        gen.send(True) if in_sync else next(gen)


@pytest.mark.parametrize("body,reason", [
    ("            sc0[c0_r1 + 1] = c0_r2", "not proven inside an array"),
    ("            sc0[c0_r1 & 8] = c0_r2", "not proven inside an array"),
    ("            sc0[(c0_r1 & 65535) % 9] = c0_r2",
     "not proven inside an array"),
    ("            sc0[9] = c0_r2", "not proven inside an array"),
    ("            c0_r3 = regs0[16]", "not proven inside an array"),
    ("            c0_r3 = (c0_r1 - c0_r2) % 7", "non-negative"),
    ("            c0_r3 = (c0_r1 << c0_r2) & 65535", "shift amount"),
    ("            c0_r3 = c0_r1 + c0_r2", "stays in"),
    ("            c0_r3 = c0_r9", "read before assignment"),
    ("            print(c0_r1)", "non-host function"),
    ("            x = 1", "unknown local"),
    ("            for i in range(3):\n                pass", "statement"),
    ("            c0_r3 = c0_r1 // 2", "expression"),
])
def test_translator_refuses(body, reason):
    with pytest.raises(native.NativeUnsupported, match=reason):
        native.translate(_kernel(body), LENGTHS, 0)


def test_translator_accepts_proven_indices():
    body = "\n".join([
        "            sc0[c0_r1 & 7] = c0_r2",
        "            c0_r3 = sc0[(c0_r1 & 65535) % 8]",
        "            c0_r4 = sc0[5] & c0_r3",
        "            c0_r5 = ((c0_r1 << c0_r2) & 65535 if c0_r2 < 16 else 0)",
    ])
    tr = native.translate(_kernel(body), LENGTHS, 0)
    assert tr.arrays == [(0, "regs"), (0, "scratch")]


# ---------------------------------------------------------------------------
# Fallbacks: identical results, a named reason, never an error.
# ---------------------------------------------------------------------------
def _fallback_run(name="mc"):
    program = _small(name)
    budget = DESIGNS[name].cycles_at("small")
    ref = _observed(*_run(program, CONFIG, budget, "python"))
    machine, result = _run(program, CONFIG, budget, "native")
    assert _observed(machine, result) == ref
    engine = machine._fastpath
    assert engine.native_vcycles == 0
    return engine.native_error


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "_SPANS", {})


def test_fallback_without_cc(fresh_memo, monkeypatch, tmp_path):
    """Decided before the kernel source is loaded or re-emitted."""
    monkeypatch.setenv("PATH", str(tmp_path))

    def no_source(self):
        raise AssertionError("kernel source loaded without a C compiler")

    monkeypatch.setattr(cg.CodegenEngine, "_native_source", no_source)
    assert "'cc' is not on PATH" in _fallback_run()


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_fallback_on_cc_failure(fresh_memo, monkeypatch):
    monkeypatch.setattr(native, "CC_FLAGS",
                        native.CC_FLAGS + ("-no-such-flag-at-all",))
    assert "cc failed with exit status" in _fallback_run()


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_fallback_on_cc_timeout(fresh_memo, monkeypatch):
    monkeypatch.setattr(native, "CC_TIMEOUT_S", 0.001)
    assert "cc timed out" in _fallback_run()


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_fallback_above_line_ceiling(fresh_memo, monkeypatch):
    monkeypatch.setattr(native, "MAX_KERNEL_LINES", 100)
    assert "ceiling 100" in _fallback_run()


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_fallback_on_unsupported_construct(fresh_memo, monkeypatch):
    """An emitted line outside the whitelist refuses the whole kernel."""
    source_of = cg.CodegenEngine._native_source

    def with_unknown_line(self):
        return source_of(self).replace(
            "            exc = False\n",
            "            exc = False\n            print(exc)\n", 1)

    monkeypatch.setattr(cg.CodegenEngine, "_native_source",
                        with_unknown_line)
    assert "non-host function" in _fallback_run()


@pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")
def test_damaged_source_entry_is_restored_at_native_build(
        fresh_memo, monkeypatch, tmp_path):
    """The code entry loads, so only the native build reads the source
    entry: a damaged one is emitted once and put back byte-identical,
    and the run keeps its digest."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    monkeypatch.setattr(cg, "_MEMO", {})
    program = _small("mc")
    budget = DESIGNS["mc"].cycles_at("small")
    ref = _observed(*_run(program, CONFIG, budget, "python"))
    (entry,) = tmp_path.glob("*.py")
    good = entry.read_bytes()
    entry.write_bytes(good[:len(good) // 2])

    monkeypatch.setattr(cg, "_MEMO", {})
    before = cg.EMISSIONS
    machine, result = _run(program, CONFIG, budget, "native")
    assert cg.EMISSIONS == before + 1
    assert entry.read_bytes() == good, "the source entry was not restored"
    assert _observed(machine, result) == ref
    _check_tier(machine)


# ---------------------------------------------------------------------------
# Concurrency, observability.
# ---------------------------------------------------------------------------
def test_thread_server_runs_native_reentrantly():
    """Two thread-mode workers run the same .so at once (ctypes releases
    the interpreter lock); every job digests like the Python kernel."""
    from repro.serve.server import SimulationServer
    budget = DESIGNS["mc"].cycles + 300
    program = compile_circuit(DESIGNS["mc"].build(),
                              CompilerOptions(config=CONFIG)).program
    ref = state_digest(_run(program, CONFIG, budget, "python")[0])

    async def go():
        async with SimulationServer(workers=2, mode="thread",
                                    config=CONFIG) as server:
            jobs = [await server.submit(tenant=f"t{i}", design="mc",
                                        engine="codegen", cycles=budget)
                    for i in range(6)]
            return [await server.wait(j.id, timeout=300) for j in jobs]

    with native.forced():
        done = asyncio.run(go())
    for job in done:
        assert job.state == "done", job.error
        assert job.result["state_sha256"] == ref


def test_build_span_and_profile_line(fresh_memo):
    program = _small("jpeg")
    tracer = Tracer()
    with use_tracer(tracer):
        machine, _result = _run(program, CONFIG, 64, "native")
    spans = [s for s in tracer.spans if s.name == "machine.codegen.native"]
    assert len(spans) == 1
    assert (spans[0].args["seconds"] > 0) == HAVE_CC
    assert spans[0].args["outcome"] == ("ok" if HAVE_CC
                                        else machine._fastpath.native_error)

    from repro.obs import profile_circuit
    with native.forced():
        run = profile_circuit(DESIGNS["jpeg"].build_at("small"),
                              engine="codegen", max_vcycles=64,
                              options=CompilerOptions(config=CONFIG))
    count = run.machine._fastpath.native_vcycles
    assert f"native C tier      : {count} Vcycles" in run.render()
    assert (count > 0) == HAVE_CC


def test_recorded_span_keeps_start_order_and_parents():
    """A build span picked up late lands in start order; the spans after
    it and the open-span stack keep pointing at the right parents."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        tracer.record("built", 1.5, 9.0, outcome="ok")
        with tracer.span("b"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("built", -1), ("a", 0), ("b", 0)]
