"""Codegen engine vs strict: bit-identity, trust, caching, checkpoints.

The codegen engine's contract is the fast engine's contract taken one
step further: the per-core schedules are lowered to specialized Python
source (register-slot locals, folded constants, no dispatch), exec'd as
a module, and - once verified against one strict Vcycle - trusted for
the rest of the run.  None of that may change anything observable.
This file enforces bit-identity over the whole design registry, that
the trusted kernel actually runs (no vacuous pass), that the exec
module cache skips re-emission on warm starts and re-emits a damaged
entry, that the emitted source and the compiled programs stay pinned
byte for byte, and that checkpoint/restore re-binds kernels without
losing state.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro import checkpoint as ck
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import Machine, MachineConfig
from repro.machine import codegen as cg
from repro.machine.boot import serialize
from repro.obs import Profiler
from repro.workloads import build_workload, load_workloads

CONFIG = MachineConfig(grid_x=8, grid_y=8)

ALL_DESIGNS = sorted(DESIGNS)


@functools.lru_cache(maxsize=None)
def _program(name: str):
    options = CompilerOptions(config=CONFIG)
    return compile_circuit(DESIGNS[name].build(), options).program


def _budget(name: str) -> int:
    return max(64, DESIGNS[name].cycles + 300)


def _assert_same(strict_m, strict_r, other_m, other_r):
    assert other_r.vcycles == strict_r.vcycles
    assert other_r.finished == strict_r.finished
    assert other_r.displays == strict_r.displays
    assert other_r.counters == strict_r.counters
    assert other_r.cache == strict_r.cache
    for cid, core in strict_m.cores.items():
        other_core = other_m.cores[cid]
        assert other_core.regs == core.regs, f"core {cid} registers"
        assert other_core.scratch == core.scratch, f"core {cid} scratch"


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_codegen_bit_identical(name):
    budget = _budget(name)
    strict_m = Machine(_program(name), CONFIG, engine="strict")
    strict_r = strict_m.run(budget)
    cg_m = Machine(_program(name), CONFIG, engine="codegen")
    cg_r = cg_m.run(budget)
    _assert_same(strict_m, strict_r, cg_m, cg_r)


def test_codegen_bit_identical_without_verification():
    """``fastpath_verify_vcycles=0`` trusts the emitted kernel from the
    first Vcycle - the strongest differential check of the emitter, with
    no strict Vcycle to paper over a miscompiled schedule."""
    config = MachineConfig(grid_x=8, grid_y=8, fastpath_verify_vcycles=0)
    for name in ("mc", "bc"):
        budget = _budget(name)
        strict_m = Machine(_program(name), CONFIG, engine="strict")
        strict_r = strict_m.run(budget)
        cg_m = Machine(_program(name), config, engine="codegen")
        cg_r = cg_m.run(budget)
        _assert_same(strict_m, strict_r, cg_m, cg_r)


def test_codegen_engine_actually_engages():
    """Guards against the equivalence tests passing vacuously: the
    dispatcher must hand Vcycles to the trusted generated kernel (mc
    runs long enough and is display-quiet mid-run)."""
    machine = Machine(_program("mc"), CONFIG, engine="codegen")
    budget = _budget("mc")
    trusted = 0
    while not machine.finished and machine.counters.vcycles < budget:
        if machine._trusted:
            trusted += 1
        machine.step_vcycle()
    assert trusted > 0


def test_codegen_checkpoint_resume_bit_identical():
    """Snapshot mid-run under codegen, restore into a fresh machine (the
    kernel is re-bound from the exec-module cache, not re-verified), and
    the continued run must match an uninterrupted profiled run."""
    name = "mc"
    budget = _budget(name)

    ref_profiler = Profiler()
    ref_m = Machine(_program(name), CONFIG, engine="codegen",
                    profiler=ref_profiler)
    ref_r = ref_m.run(budget)

    profiler = Profiler()
    machine = Machine(_program(name), CONFIG, engine="codegen",
                      profiler=profiler)
    machine.run(max(1, ref_r.vcycles // 2))
    snapshot = ck.decode_snapshot(ck.encode_snapshot(ck.capture(machine)))
    resumed_profiler = Profiler()
    restored = ck.restore(snapshot, program=_program(name), config=CONFIG,
                          profiler=resumed_profiler)
    assert restored.engine == "codegen"
    result = restored.run(budget)

    _assert_same(ref_m, ref_r, restored, result)
    assert resumed_profiler.totals() == ref_profiler.totals()
    assert resumed_profiler.state_dict() == ref_profiler.state_dict()


def test_codegen_source_cache_warm_start(tmp_path, monkeypatch):
    """A warm disk cache skips source re-emission entirely: the second
    cold machine (in-memory memo cleared) execs the cached source and
    still produces bit-identical results."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    monkeypatch.setattr(cg, "_MEMO", {})
    monkeypatch.setattr(cg, "_KEYS", {})

    name = "jpeg"
    budget = _budget(name)
    before = cg.EMISSIONS
    cold_m = Machine(_program(name), CONFIG, engine="codegen")
    cold_r = cold_m.run(budget)
    assert cg.EMISSIONS == before + 1
    assert list(tmp_path.glob("*.py")), "emitted source not cached"

    # Fresh process simulation: drop the in-memory memo so the module
    # must come back through the disk cache, not a new emission.
    monkeypatch.setattr(cg, "_MEMO", {})
    monkeypatch.setattr(cg, "_KEYS", {})
    warm_m = Machine(_program(name), CONFIG, engine="codegen")
    warm_r = warm_m.run(budget)
    assert cg.EMISSIONS == before + 1, "warm start re-emitted source"
    _assert_same(cold_m, cold_r, warm_m, warm_r)


def _flip_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]


@pytest.mark.parametrize("damage", [
    _flip_byte,
    lambda data: data[:len(data) // 2],
    lambda data: data.partition(b"\n")[2],  # pre-header entry format
], ids=["flipped-byte", "truncated", "headerless"])
def test_codegen_damaged_cache_entry_is_re_emitted(tmp_path, monkeypatch,
                                                   damage):
    """A cache entry whose ``# sha256:`` header does not match its
    source is a miss: the kernel is emitted again, the entry is
    overwritten, and the run is bit-identical to the cold one."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    monkeypatch.setattr(cg, "_MEMO", {})
    monkeypatch.setattr(cg, "_KEYS", {})

    name = "jpeg"
    budget = _budget(name)
    cold_m = Machine(_program(name), CONFIG, engine="codegen")
    cold_r = cold_m.run(budget)
    (entry,) = tmp_path.glob("*.py")
    good = entry.read_bytes()
    entry.write_bytes(damage(good))

    monkeypatch.setattr(cg, "_MEMO", {})
    monkeypatch.setattr(cg, "_KEYS", {})
    before = cg.EMISSIONS
    warm_m = Machine(_program(name), CONFIG, engine="codegen")
    warm_r = warm_m.run(budget)
    assert cg.EMISSIONS == before + 1, "damaged entry was exec'd"
    assert entry.read_bytes() == good, "damaged entry not overwritten"
    _assert_same(cold_m, cold_r, warm_m, warm_r)


# sha256 of the emitted kernel source at 8x8, taken with the rescanning
# fusion pass the indexed one replaced.  Any change to emission - not
# only to fusion - moves these; re-pin only for a deliberate change.
SOURCE_PINS = {
    "bc":
        "d96f3d9b7415079066162edcb923eb6d81de964f669f017efe7e1ebdb8a4ca51",
    "blur":
        "0d298c24e4de82326524d7d07e9e8243f9196b47de4108510247709eb77dde2b",
    "cgra":
        "7d6446b5946497c3bce9808a6856e61de84e0512ccb50707707021d34b565294",
    "jpeg":
        "e5553554f8380030e3ed687e7bddf62d66339317d79e247f661f6b2d067e5f35",
    "mc":
        "8f982290538bfd87cbdd92adfd390dd902b2d123cea849e95c06ccf73b2a6cc2",
    "mm":
        "74cb372582129833e0d35e4efa068ce3bad58370ece7a6a1d1672444505dd064",
    "noc":
        "6d68b3cc8ba04f9ae0bfa61629fa6e77bbc4b6c2d49d517d0f8ad431d2b5f215",
    "rv32r":
        "0c7bf0b94d0e73d34af4cf5d3c6efde82f48f2c0774214014aa6af33250666c2",
    "vta":
        "ad4528fc23f195c22abd103b822b9e2caa05febbd200b19e2a536847a92c84e6",
    "fuzz-1":
        "48d6190857c2b5f42f110c951fb9c673e936475c78694c1ed9c2b591dfe109b2",
    "fuzz-3":
        "a1949b9aeaac9cba6f983794302d02f520c58dca1866361dc2bc8d79154b749e",
    "fuzz-5":
        "762e4aa1e1386983d6fbe231f9912d690e0abdb3ab5092d2eb1a42083879c080",
}


@functools.lru_cache(maxsize=None)
def _corpus_program(name: str):
    circuit = build_workload(load_workloads()[name])
    return compile_circuit(circuit, CompilerOptions(config=CONFIG)).program


@pytest.mark.parametrize("name", sorted(SOURCE_PINS))
def test_emitted_source_is_pinned(name):
    program = (_program(name) if name in DESIGNS
               else _corpus_program(name))
    machine = Machine(program, CONFIG)
    source = cg._emit(machine, cg._analyze(machine))
    assert hashlib.sha256(source.encode()).hexdigest() == SOURCE_PINS[name]


#: sha256 of ``serialize(program)`` for every design at small/8x8: the
#: compiler's output itself, pinned beside the emitted kernel sources.
PROGRAM_PINS = {
    "bc":
        "b5d010baf2b461c665ea73cc7cef5f17ee75cea6192bed04d22230d8ada8963b",
    "blur":
        "4dbcc5797b3eb170a4e8b2abd84551121cc5c61d646d9e6e903b4b75b953fba8",
    "cgra":
        "d6d83f722415676af7277cf19fa16fd07b9decc7426ade8df304525dc707fdf1",
    "jpeg":
        "8f92b05eef275a7ad2be719b8a1791ed5376cf4040a6cb2e5266bb9a15859bae",
    "mc":
        "497e3e89dde2801057a497e13d90dc8bbc6631226d6ef19904f9129aa9950bd7",
    "mm":
        "714f6fddb4241c9075026c9353edeaf9b81bd2adffd2e4dc4d56895ba296ad3f",
    "noc":
        "8486c9c40b6ac18136f02bb6447699ddbbebb984e8c91c9f2a7bba0d55ef0a02",
    "rv32r":
        "72cde2516f643035e703cef38b463be0dd31e602b4dac0a961d54a60ecc6d70c",
    "vta":
        "19deeb6746b4edf592d24d34e816abe936467264bb905168c252c666a4c976b2",
}


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_compiled_program_is_pinned(name):
    digest = hashlib.sha256(serialize(_program(name))).hexdigest()
    assert digest == PROGRAM_PINS[name]


def test_codegen_cache_can_be_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", "off")
    monkeypatch.setattr(cg, "_MEMO", {})
    monkeypatch.setattr(cg, "_KEYS", {})
    machine = Machine(_program("jpeg"), CONFIG, engine="codegen")
    machine.run(_budget("jpeg"))
    assert not list(tmp_path.glob("*.py"))
