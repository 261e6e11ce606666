"""JSON-friendly (de)serialization of netlist circuits.

The fuzzing subsystem (:mod:`repro.fuzz`) persists minimized failing
circuits into corpus files that must replay bit-identically years later,
on machines that never saw the generator that produced them.  A corpus
entry therefore stores the *reduced IR itself*, not a seed recipe; this
module is the stable wire format for that IR.

``circuit_to_dict`` emits plain dicts/lists/ints/strings only, so the
result round-trips through ``json`` without custom encoders.
``circuit_from_dict`` validates the rebuilt circuit before returning it.
The format is versioned (``"format": "repro-circuit/v1"``) so later
schema changes stay detectable.

This module also hosts the shared JSON/binary helpers every persisted
artifact in the repo builds on (fuzz corpus, checkpoint snapshots):
:func:`canonical_json` (byte-stable encoding, so equal states produce
equal files), :func:`blob_sha256` (the fingerprint those files carry),
and :func:`pack_words`/:func:`unpack_words` (compact, deterministic
encoding of 16-bit word arrays - register files, scratchpads, cache
lines).
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import sys
import zlib
from array import array
from typing import Iterable, Sequence

from .ir import (
    AssertEffect,
    Circuit,
    CircuitError,
    Display,
    Finish,
    MemWrite,
    Memory,
    Op,
    OpKind,
    Register,
    Wire,
)

FORMAT = "repro-circuit/v1"


# ---------------------------------------------------------------------------
# Shared JSON/binary helpers (used by fuzz corpus + checkpoint snapshots).
# ---------------------------------------------------------------------------

def canonical_json(obj) -> bytes:
    """Byte-stable JSON encoding: sorted keys, no whitespace, UTF-8.

    Two equal Python structures always encode to the same bytes, which is
    what makes content fingerprints and "identical state => identical
    snapshot file" guarantees possible.
    """
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def blob_sha256(data: bytes) -> str:
    """Hex sha256 of a byte blob (the standard fingerprint everywhere)."""
    return hashlib.sha256(data).hexdigest()


#: All-zero bytes the zero-tail search compares windows against: one
#: default 16 Ki-word scratchpad, sliced through a memoryview (no copy).
_ZEROS = memoryview(bytes(1 << 15))


def _live_bytes(raw: bytes) -> int:
    """Byte length of ``raw`` (little-endian ``u16`` words) up to and
    including its last non-zero word.

    A bisection on the word index where the zero tail starts; each probe
    is one ``endswith`` memcmp of the not-yet-known window against
    all-zero bytes, so the probes compare ``len(raw)`` bytes in all.  An
    all-zero ``raw`` (an untouched scratchpad) costs one probe.
    """
    zeros = _ZEROS if len(raw) <= len(_ZEROS) \
        else memoryview(bytes(len(raw)))
    tail_is_zero = raw.endswith
    lo, hi = 0, len(raw)           # even byte offsets; raw[hi:] is zero
    if tail_is_zero(zeros[:hi]):
        return 0
    while lo < hi:
        mid = (lo + hi) // 4 * 2
        if tail_is_zero(zeros[:hi - mid], mid, hi):
            hi = mid
        else:
            lo = mid + 2
    return hi


def pack_words(values: Sequence[int],
               strip_zeros: bool = False) -> str:
    """Encode a sequence of 16-bit words as a compact, deterministic
    string: little-endian ``u16`` array, zlib-compressed when that is
    smaller, base64-wrapped, with a self-describing prefix.

    Large mostly-zero arrays (scratchpads, cache line images) compress by
    orders of magnitude; tiny arrays skip the zlib header overhead.
    Level 1 keeps per-snapshot capture cheap (the checkpoint driver
    packs every core's register file at every publish); decompression
    is level-agnostic, so the level is not part of the format.

    ``values`` is an ``array("H")`` (the machine's register files and
    scratchpads: one ``tobytes()`` copy, byteswapped on big-endian
    hosts) or any other sequence of ints in ``[0, 0xFFFF]`` (converted
    to one first); both encode to the same string.

    With ``strip_zeros`` the zero tail - every trailing all-zero word -
    is dropped before encoding: register files and scratchpads are
    overwhelmingly zero-tailed (allocation packs live registers low;
    untouched memory reads 0), so callers that pad back to the
    architected length on load - the machine state hooks - pack
    typically 50-400x fewer words, which is what keeps periodic
    checkpoint capture cheap.  The tail is found by bisection with a
    memcmp per probe (:func:`_live_bytes`), never by a per-byte scan.
    """
    if not (isinstance(values, array) and values.typecode == "H"):
        values = array("H", values)
    if sys.byteorder == "big":
        values = array("H", values)
        values.byteswap()
    raw = values.tobytes()
    if strip_zeros:
        raw = raw[:_live_bytes(raw)]
    # A zlib stream is never shorter than 8 bytes (2-byte header, >= 2
    # deflate bytes, 4-byte Adler-32), so it cannot win on <= 8 bytes;
    # skipping the call there also skips a GIL release per empty
    # scratchpad, which under thread contention costs a convoy wait.
    if len(raw) > 8:
        packed = zlib.compress(raw, 1)
        if len(packed) < len(raw):
            return "z16:" + base64.b64encode(packed).decode("ascii")
    return "u16:" + base64.b64encode(raw).decode("ascii")


def unpack_words(text: str) -> list[int]:
    """Decode :func:`pack_words` output back into a list of ints."""
    kind, _, body = text.partition(":")
    raw = base64.b64decode(body.encode("ascii"), validate=True)
    if kind == "z16":
        raw = zlib.decompress(raw)
    elif kind != "u16":
        raise CircuitError(f"unknown packed-word encoding {kind!r}")
    if len(raw) % 2:
        raise CircuitError("truncated packed-word payload")
    return list(struct.unpack(f"<{len(raw) // 2}H", raw))


def pack_pairs(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Deterministic (sorted) list-of-pairs form for sparse int->int maps
    (DRAM images, scratch init) whose keys exceed 16 bits."""
    return [[int(k), int(v)] for k, v in sorted(pairs)]


def unpack_pairs(data: Iterable[Sequence[int]]) -> dict[int, int]:
    return {int(k): int(v) for k, v in data}


def _wire_to_list(wire: Wire) -> list:
    return [wire.name, wire.width]


def _wire_from_list(data) -> Wire:
    name, width = data
    return Wire(str(name), int(width))


def circuit_to_dict(circuit: Circuit) -> dict:
    """Serialize a :class:`Circuit` into JSON-compatible plain data."""
    ops = []
    for op in circuit.ops:
        entry: dict = {
            "result": _wire_to_list(op.result),
            "kind": op.kind.value,
        }
        if op.args:
            entry["args"] = [_wire_to_list(a) for a in op.args]
        if op.attrs:
            entry["attrs"] = {k: op.attrs[k] for k in op.attrs}
        ops.append(entry)

    registers = [
        {
            "name": reg.name,
            "width": reg.width,
            "init": reg.init,
            "next": (None if reg.next_value is None
                     else _wire_to_list(reg.next_value)),
        }
        for reg in circuit.registers.values()
    ]

    memories = [
        {
            "name": mem.name,
            "width": mem.width,
            "depth": mem.depth,
            "init": list(mem.init),
            "writes": [
                {
                    "addr": _wire_to_list(wr.addr),
                    "data": _wire_to_list(wr.data),
                    "enable": _wire_to_list(wr.enable),
                }
                for wr in mem.writes
            ],
            "global_hint": mem.global_hint,
            "sram_hint": mem.sram_hint,
        }
        for mem in circuit.memories.values()
    ]

    effects = []
    for eff in circuit.effects:
        if isinstance(eff, Display):
            effects.append({
                "type": "display",
                "enable": _wire_to_list(eff.enable),
                "fmt": eff.fmt,
                "args": [_wire_to_list(a) for a in eff.args],
            })
        elif isinstance(eff, Finish):
            effects.append({
                "type": "finish",
                "enable": _wire_to_list(eff.enable),
            })
        elif isinstance(eff, AssertEffect):
            effects.append({
                "type": "assert",
                "enable": _wire_to_list(eff.enable),
                "cond": _wire_to_list(eff.cond),
                "message": eff.message,
            })
        else:  # pragma: no cover - Effect union is closed today
            raise CircuitError(f"cannot serialize effect {eff!r}")

    return {
        "format": FORMAT,
        "name": circuit.name,
        "ops": ops,
        "registers": registers,
        "memories": memories,
        "inputs": [_wire_to_list(w) for w in circuit.inputs.values()],
        "outputs": {n: _wire_to_list(w)
                    for n, w in circuit.outputs.items()},
        "effects": effects,
    }


def circuit_from_dict(data: dict, validate: bool = True) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_to_dict` output."""
    if data.get("format") != FORMAT:
        raise CircuitError(
            f"unsupported circuit format {data.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    circuit = Circuit(str(data["name"]))
    for entry in data["ops"]:
        attrs = dict(entry.get("attrs", {}))
        circuit.ops.append(Op(
            result=_wire_from_list(entry["result"]),
            kind=OpKind(entry["kind"]),
            args=tuple(_wire_from_list(a) for a in entry.get("args", [])),
            attrs=attrs,
        ))
    for entry in data["registers"]:
        reg = Register(str(entry["name"]), int(entry["width"]),
                       int(entry["init"]))
        if entry.get("next") is not None:
            reg.next_value = _wire_from_list(entry["next"])
        circuit.registers[reg.name] = reg
    for entry in data["memories"]:
        mem = Memory(
            str(entry["name"]), int(entry["width"]), int(entry["depth"]),
            tuple(int(v) for v in entry.get("init", [])),
            global_hint=bool(entry.get("global_hint", False)),
            sram_hint=bool(entry.get("sram_hint", False)),
        )
        for wr in entry.get("writes", []):
            mem.writes.append(MemWrite(
                _wire_from_list(wr["addr"]),
                _wire_from_list(wr["data"]),
                _wire_from_list(wr["enable"]),
            ))
        circuit.memories[mem.name] = mem
    for wire_data in data.get("inputs", []):
        wire = _wire_from_list(wire_data)
        circuit.inputs[wire.name] = wire
    for name, wire_data in data.get("outputs", {}).items():
        circuit.outputs[str(name)] = _wire_from_list(wire_data)
    for entry in data["effects"]:
        etype = entry["type"]
        if etype == "display":
            circuit.effects.append(Display(
                _wire_from_list(entry["enable"]), str(entry["fmt"]),
                tuple(_wire_from_list(a) for a in entry.get("args", [])),
            ))
        elif etype == "finish":
            circuit.effects.append(Finish(_wire_from_list(entry["enable"])))
        elif etype == "assert":
            circuit.effects.append(AssertEffect(
                _wire_from_list(entry["enable"]),
                _wire_from_list(entry["cond"]),
                str(entry.get("message", "assertion failed")),
            ))
        else:
            raise CircuitError(f"unknown effect type {etype!r}")
    if validate:
        circuit.validate()
    return circuit


def copy_circuit(circuit: Circuit) -> Circuit:
    """Deep, independent copy of a circuit (via the wire format).

    The shrinker mutates candidate circuits destructively; copying through
    the serializer guarantees no structure is shared with the original.
    """
    return circuit_from_dict(circuit_to_dict(circuit), validate=False)
