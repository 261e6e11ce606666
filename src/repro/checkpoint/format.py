"""The snapshot wire format: versioned, fingerprint-checked, atomic.

A snapshot file is::

    MAGIC (8 bytes)  b"RPROCKPT"
    header length    u32 little-endian
    header           canonical JSON (format version, Vcycle, engine,
                     design name, program/payload fingerprints, sizes)
    payload          canonical JSON (the machine state + embedded
                     program binary + MachineConfig)

Design rules, in order of importance:

* **Torn files are detectable, always.**  The payload's sha256 is in the
  header; a partially written, truncated, or bit-flipped file fails
  :func:`decode_snapshot` with a :class:`SnapshotError` instead of
  restoring silently-wrong state.  (Publishing is also atomic - see
  :func:`write_atomic`, via :mod:`repro.store` - so torn files only appear
  when something went *very* wrong; the format refuses them anyway.)
* **Snapshots are deterministic.**  Equal machine states encode to
  byte-identical files (canonical JSON, sorted collections, no
  timestamps), so "same run, same snapshot" is checkable with ``cmp``.
* **Snapshots are self-contained.**  The payload embeds the bootloader
  binary and the :class:`~repro.machine.config.MachineConfig`, so
  ``restore()`` needs no source files; a caller that *does* recompile
  gets a fingerprint cross-check for free.
* **Versioned.**  ``FORMAT`` participates in the header; decoding a
  snapshot from a different format version fails loudly.

``docs/checkpoint.schema.json`` documents the header and payload
structure; ``tests/test_checkpoint.py`` validates real snapshots
against it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from ..netlist.serialize import blob_sha256, canonical_json
from ..store import write_atomic as _publish

MAGIC = b"RPROCKPT"
FORMAT = "repro-checkpoint/v1"

#: Upper bound on a sane header, to reject garbage length fields fast.
_MAX_HEADER_BYTES = 1 << 20


class SnapshotError(ValueError):
    """A snapshot file is torn, corrupt, or from an unknown format."""


@dataclass(frozen=True)
class Snapshot:
    """A decoded, fingerprint-verified snapshot."""

    header: dict
    payload: dict

    @property
    def vcycle(self) -> int:
        return self.header["vcycle"]

    @property
    def engine(self) -> str:
        return self.header["engine"]

    @property
    def design(self) -> str:
        return self.header["design"]

    @property
    def program_sha256(self) -> str:
        return self.header["program_sha256"]


def encode_snapshot(payload: dict) -> bytes:
    """Encode a checkpoint payload (from ``checkpoint.state.capture``)
    into the snapshot wire format."""
    body = canonical_json(payload)
    header = {
        "format": FORMAT,
        "vcycle": payload["vcycle"],
        "engine": payload["engine"],
        "design": payload["design"],
        "program_sha256": payload["program_sha256"],
        "payload_sha256": blob_sha256(body),
        "payload_bytes": len(body),
    }
    head = canonical_json(header)
    return MAGIC + struct.pack("<I", len(head)) + head + body


def read_header(blob: bytes) -> dict:
    """Decode and sanity-check only the header (cheap scan path)."""
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise SnapshotError("not a repro checkpoint (bad magic)")
    (head_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    if head_len > _MAX_HEADER_BYTES or len(blob) < start + head_len:
        raise SnapshotError("truncated checkpoint header")
    try:
        header = json.loads(blob[start:start + head_len])
    except ValueError as exc:
        raise SnapshotError(f"unreadable checkpoint header: {exc}") \
            from exc
    if header.get("format") != FORMAT:
        raise SnapshotError(
            f"unsupported checkpoint format {header.get('format')!r} "
            f"(expected {FORMAT!r})")
    return header


def decode_snapshot(blob: bytes) -> Snapshot:
    """Decode a snapshot, verifying the payload fingerprint."""
    header = read_header(blob)
    start = len(MAGIC) + 4 + struct.unpack_from("<I", blob, len(MAGIC))[0]
    body = blob[start:]
    if len(body) != header.get("payload_bytes"):
        raise SnapshotError(
            f"torn checkpoint: payload is {len(body)} bytes, header "
            f"promised {header.get('payload_bytes')}")
    digest = blob_sha256(body)
    if digest != header.get("payload_sha256"):
        raise SnapshotError(
            f"checkpoint fingerprint mismatch: payload hashes to "
            f"{digest[:12]}, header says "
            f"{str(header.get('payload_sha256'))[:12]}")
    try:
        payload = json.loads(body)
    except ValueError as exc:  # pragma: no cover - sha pinned the bytes
        raise SnapshotError(f"unreadable checkpoint payload: {exc}") \
            from exc
    return Snapshot(header=header, payload=payload)


def load_snapshot(path: str | os.PathLike) -> Snapshot:
    """Read + decode one snapshot file."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}") from exc
    return decode_snapshot(blob)


def write_atomic(path: str | os.PathLike, blob: bytes) -> None:
    """Crash-safe publish: :func:`repro.store.write_atomic` with both
    fsyncs (the file, then its directory, so the rename is durable)."""
    _publish(path, blob, fsync=True)
