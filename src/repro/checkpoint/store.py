"""On-disk snapshot directory: generation naming, pruning, recovery.

A :class:`CheckpointStore` owns one directory of ``ckpt-<vcycle>.ckpt``
files.  Publishing goes through :func:`~repro.checkpoint.format.write_atomic`
(:mod:`repro.store`, fsynced), so a reader never sees a torn generation;
recovery (:meth:`CheckpointStore.scan`) nevertheless re-verifies every
candidate file - magic, format version, payload fingerprint, and
optionally the program fingerprint - and reports what it discarded
instead of silently skipping, because the whole point of resume is
trusting the state you load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .format import Snapshot, SnapshotError, load_snapshot, read_header, \
    write_atomic

#: ``ckpt-<vcycle>.ckpt``, zero-padded so lexicographic == numeric order.
_NAME = "ckpt-{vcycle:012d}.ckpt"
_GLOB = "ckpt-*.ckpt"


@dataclass(frozen=True)
class RejectedSnapshot:
    """One snapshot file recovery refused, and the reason why."""

    path: Path
    reason: str

    def __str__(self) -> str:
        return f"{self.path.name}: {self.reason}"


class CheckpointStore:
    """A directory of snapshot generations with bounded retention.

    ``keep`` bounds how many generations survive a :meth:`prune`
    (newest first); 0 disables pruning.  Stale ``.wip-ckpt-*`` temp files
    a crashed :func:`~repro.store.write_atomic` left are pruned too.
    """

    def __init__(self, directory: str | os.PathLike,
                 keep: int = 3) -> None:
        self.directory = Path(directory)
        self.keep = int(keep)

    def path_for(self, vcycle: int) -> Path:
        return self.directory / _NAME.format(vcycle=int(vcycle))

    def snapshot_paths(self) -> list[Path]:
        """All snapshot files, oldest first (by filename = by Vcycle)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(_GLOB))

    # ------------------------------------------------------------------
    def publish(self, blob: bytes) -> Path:
        """Atomically publish one encoded snapshot under its generation
        name (taken from the header), then prune old generations."""
        header = read_header(blob)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(header["vcycle"])
        write_atomic(path, blob)
        self.prune()
        return path

    def prune(self) -> list[Path]:
        """Drop generations beyond ``keep`` (oldest first) and stale
        temp files; returns what was removed."""
        if not self.directory.is_dir():
            return []
        stale = list(self.directory.glob(".wip-ckpt-*"))
        if self.keep > 0:
            paths = self.snapshot_paths()
            stale += paths[:max(0, len(paths) - self.keep)]
        removed: list[Path] = []
        for path in stale:
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    def scan(self, program_sha256: str | None = None) \
            -> tuple[list[tuple[Path, Snapshot]], list[RejectedSnapshot]]:
        """Decode every snapshot in the store, newest first.

        Returns ``(valid, rejected)``: torn, corrupt, wrong-format, and
        (when ``program_sha256`` is given) wrong-program files land in
        ``rejected`` with a human-readable reason rather than being
        silently ignored or - worse - restored.
        """
        valid: list[tuple[Path, Snapshot]] = []
        rejected: list[RejectedSnapshot] = []
        for path in reversed(self.snapshot_paths()):
            try:
                snapshot = load_snapshot(path)
            except SnapshotError as exc:
                rejected.append(RejectedSnapshot(path, str(exc)))
                continue
            if program_sha256 is not None \
                    and snapshot.program_sha256 != program_sha256:
                rejected.append(RejectedSnapshot(
                    path,
                    f"program fingerprint {snapshot.program_sha256[:12]} "
                    f"does not match the current program "
                    f"{program_sha256[:12]}"))
                continue
            valid.append((path, snapshot))
        return valid, rejected

    def latest(self, program_sha256: str | None = None) \
            -> tuple[Path, Snapshot] | None:
        """Newest snapshot that decodes and fingerprint-matches, or
        ``None`` when the store holds nothing usable."""
        valid, _ = self.scan(program_sha256)
        return valid[0] if valid else None
