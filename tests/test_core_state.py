"""Per-core state as packed 16-bit arrays: encoding and representation.

Register files and scratchpads are ``array("H")`` objects that every
engine binds by identity.  This file pins the three promises that
representation makes: ``pack_words`` encodes arrays byte-for-byte as the
list-based encoder did (so snapshots, ``state_digest`` values and pins
are unchanged), a restore refills the arrays in place on every engine,
and a snapshot written by the list-based machine restores and finishes
with its pinned digest.
"""

from __future__ import annotations

import base64
import functools
import random
import struct
import zlib
from array import array
from pathlib import Path

import pytest

from repro import checkpoint as ck
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import ENGINES, Machine, MachineConfig
from repro.netlist.serialize import pack_words, unpack_words
from repro.serve.jobs import state_digest

from .util_state import assert_packed_core_state

CONFIG = MachineConfig(grid_x=8, grid_y=8)
DATA = Path(__file__).parent / "data"

#: ``blur@small`` on ``engine="codegen"`` captured at Vcycle 20 by the
#: list-backed machine, and the digest its run reaches at ``$finish``.
FIXTURE = DATA / "blur-small-codegen-v20.ckpt"
FIXTURE_FINISH_VCYCLE = 66
FIXTURE_DIGEST = \
    "88272af74b4d6311d4c7aa4289ce8137cc2dccefab2c438550a161b7a331642c"


# ---------------------------------------------------------------------------
# pack_words: byte identity with the list-based encoder.
# ---------------------------------------------------------------------------

_REF_ZERO_BLOCK = [0] * 4096


def _reference_pack_words(values, strip_zeros=False):
    """The list-based encoder, frozen verbatim as the reference."""
    if strip_zeros:
        n = len(values)
        while n >= len(_REF_ZERO_BLOCK) \
                and values[n - len(_REF_ZERO_BLOCK):n] == _REF_ZERO_BLOCK:
            n -= len(_REF_ZERO_BLOCK)
        values = values[:n]
    raw = struct.pack(f"<{len(values)}H", *values)
    if strip_zeros:
        kept = len(raw.rstrip(b"\x00"))
        raw = raw[:kept + (kept & 1)]
    packed = zlib.compress(raw, 1)
    if len(packed) < len(raw):
        return "z16:" + base64.b64encode(packed).decode("ascii")
    return "u16:" + base64.b64encode(raw).decode("ascii")


def _zero_tailed(rng: random.Random, n: int, last: int) -> list[int]:
    """``n`` words: a random live prefix ending in ``last`` (zeros
    allowed inside it), then a zero tail."""
    live = rng.randint(0, n)
    words = [rng.choice((0, rng.getrandbits(16))) for _ in range(live)]
    if live:
        words[-1] = last
    return words + [0] * (n - live)


@pytest.mark.parametrize("n", [*range(17), 2048, 4096, 4097, 16384])
def test_pack_words_matches_list_encoder(n):
    rng = random.Random(n)
    for last in (0x0005, 0x0100):
        for _ in range(8):
            words = _zero_tailed(rng, n, last)
            for strip_zeros in (False, True):
                expect = _reference_pack_words(words, strip_zeros)
                for values in (list(words), array("H", words)):
                    got = pack_words(values, strip_zeros=strip_zeros)
                    assert got == expect, (n, last, strip_zeros,
                                           type(values).__name__)
                    back = unpack_words(got)
                    assert back + [0] * (n - len(back)) == words
                    if not strip_zeros:
                        assert len(back) == n


def test_pack_words_zero_tail_boundaries():
    """The last live word decides the kept length, whichever of its
    bytes is the non-zero one; all-zero input packs to nothing."""
    for last in (0x0005, 0x0100, 0xFFFF):
        for pos in (0, 1, 4095, 4096, 16383):
            words = array("H", bytes(2 * 16384))
            words[pos] = last
            assert unpack_words(pack_words(words, strip_zeros=True)) == \
                list(words[:pos + 1])
    assert unpack_words(pack_words(array("H", bytes(32)),
                                   strip_zeros=True)) == []


# ---------------------------------------------------------------------------
# Representation guard: arrays, untracked, refilled in place.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _program(name: str):
    return compile_circuit(DESIGNS[name].build(),
                           CompilerOptions(config=CONFIG)).program


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_restore_refills_core_arrays_in_place(engine):
    """Restoring an earlier image into a running machine keeps every
    core's arrays (the objects the fast closures and codegen kernels
    hold) and continues bit-identically to an uninterrupted run."""
    budget = max(64, DESIGNS["blur"].cycles + 300)
    ref = Machine(_program("blur"), CONFIG, engine=engine)
    ref.run(budget)

    machine = Machine(_program("blur"), CONFIG, engine=engine)
    machine.run(10)
    ids = assert_packed_core_state(machine)
    image = machine.checkpoint_state()
    machine.run(15)
    machine.load_checkpoint_state(image)
    assert assert_packed_core_state(machine) == ids
    machine.run(budget)
    assert assert_packed_core_state(machine) == ids
    assert machine.finished and ref.finished
    assert state_digest(machine) == state_digest(ref)


# ---------------------------------------------------------------------------
# Snapshot written by the list-backed machine.
# ---------------------------------------------------------------------------

def test_list_era_snapshot_restores_bit_identically():
    blob = FIXTURE.read_bytes()
    snapshot = ck.decode_snapshot(blob)
    assert (snapshot.design, snapshot.engine, snapshot.vcycle) == \
        ("blur", "codegen", 20)
    machine = ck.restore(snapshot)
    assert_packed_core_state(machine)
    assert ck.encode_snapshot(ck.capture(machine)) == blob
    result = machine.run(FIXTURE_FINISH_VCYCLE + 100)
    assert result.finished
    assert result.vcycles == FIXTURE_FINISH_VCYCLE
    assert state_digest(machine) == FIXTURE_DIGEST
