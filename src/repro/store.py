"""Verified, content-addressed files: the one module that publishes a
file or reads a cached entry back.

:func:`write_atomic` publishes through a unique ``.wip-<name>-<token>``
temp file and ``os.replace``, so readers and killed writers see the old
file or the whole new one, and fsyncs the file and its directory when
asked (snapshots, the fuzz corpus and the workload manifest ask; the
caches do not - a lost entry is only a miss).

A :class:`Store` is a directory of ``<key>.<kind>`` entries (the
compile cache's ``pkl``, the codegen kernel cache's ``py`` and
``code``), each one header line binding :data:`MAGIC`, kind, key,
payload length and sha256, then the payload.  :meth:`Store.get` checks
the header before the caller unpickles, unmarshals or ``exec``'s
anything, so a torn, flipped or foreign entry is a ``corrupt`` miss and
is deleted; every :meth:`Store.put` evicts the oldest-read files,
leftover temps included, back under one size cap.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from contextlib import suppress
from pathlib import Path

from .obs.trace import span as _span

#: First field of every entry's header line.
MAGIC = "#repro-store/1"

#: Default size cap of one store directory (LRU-evicted beyond this).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def write_atomic(path: str | os.PathLike, blob: bytes,
                 fsync: bool = False) -> None:
    """Publish ``blob`` at ``path``; with ``fsync`` the file and its
    directory are fsynced too.  Raises ``OSError`` (no temp file left)."""
    path = Path(path)
    tmp = path.with_name(f".wip-{path.name}-{os.urandom(6).hex()}")
    try:
        with open(tmp, "xb") as f:
            f.write(blob)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    if fsync:
        _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (not supported on every platform)."""
    with suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _unlink(path) -> None:
    with suppress(OSError):
        os.unlink(path)


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`Store` (a corrupt entry is also a
    miss)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class Store:
    """A directory of verified entries with one LRU size cap and one
    :class:`CacheStats`."""

    def __init__(self, directory: str | os.PathLike,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.dir = Path(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def path(self, kind: str, key: str) -> Path:
        return self.dir / f"{key}.{kind}"

    @staticmethod
    def _header(kind: str, key: str, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        return f"{MAGIC} {kind} {key} {len(payload)} {digest}".encode()

    def get(self, kind: str, key: str, decode=None):
        """The verified payload of ``<key>.<kind>``, passed through
        ``decode`` when given, or ``None`` on a miss.  An entry whose
        header does not match, or that ``decode`` rejects, is corrupt:
        a miss, and the file is removed."""
        path = self.path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        header, _, payload = data.partition(b"\n")
        if header == self._header(kind, key, payload):
            try:
                value = payload if decode is None else decode(payload)
            except Exception:  # noqa: BLE001 - undecodable is a miss
                pass
            else:
                with suppress(OSError):   # a read refreshes LRU recency
                    os.utime(path)
                self.stats.hits += 1
                return value
        self.stats.corrupt += 1
        self.stats.misses += 1
        _unlink(path)
        return None

    def put(self, kind: str, key: str, blob: bytes) -> bool:
        """Store ``blob`` as ``<key>.<kind>``, then evict back under the
        cap; False when it cannot be written (never raises)."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            write_atomic(self.path(kind, key),
                         self._header(kind, key, blob) + b"\n" + blob)
            self.stats.stores += 1
            self._evict()
        except OSError:   # unwritable, or the directory went away
            return False
        return True

    def _evict(self) -> None:
        with _span("store.evict", max_bytes=self.max_bytes):
            files = []
            with os.scandir(self.dir) as entries:
                for entry in entries:
                    try:
                        if entry.is_file():
                            st = entry.stat()
                            files.append((st.st_mtime, st.st_size,
                                          entry.path))
                    except OSError:   # removed by a racing process
                        pass
            files.sort()              # oldest mtime first
            total = sum(size for _, size, _ in files)
            for _, size, path in files:
                if total <= self.max_bytes:
                    break
                _unlink(path)
                total -= size
                self.stats.evictions += 1
