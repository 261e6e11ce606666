"""Content-addressed on-disk compile cache.

PR 1 made execution several times faster, which left *compilation* as the
dominant cost of every ``simulate_on_manticore`` call and benchmark sweep
(the paper itself reports compile time as a first-class metric, Table 8 /
Fig. 14).  This module removes repeated compiles entirely: a
:class:`CompileCache` keys pickled :class:`~repro.compiler.driver.
CompileResult` artifacts by

* the **circuit fingerprint** (:meth:`repro.netlist.ir.Circuit.
  fingerprint`) - a structural sha256 stable across process restarts and
  op-insertion order;
* the **options fingerprint** (:func:`options_fingerprint`) - every
  semantic :class:`~repro.compiler.driver.CompilerOptions` field
  (the non-semantic ``cache_dir`` and ``cache_max_bytes`` are excluded
  because they never change the produced binary);
* a **compiler-version salt** (:data:`CACHE_SCHEMA_VERSION`) so stale
  artifacts from an older compiler are never replayed.

Durability rules:

* writes are atomic (temp file in the cache directory + ``os.replace``),
  so concurrent writers never expose a torn entry;
* *any* failure reading or unpickling an entry is a miss, never a crash
  (the offending file is deleted best-effort);
* the cache is LRU size-capped: after every store, oldest-read entries
  are evicted until the directory is back under ``max_bytes``;
* hit/miss/eviction counts are surfaced on
  :class:`~repro.compiler.driver.CompileReport` for benchmarks and the
  CLI ``--json`` output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..netlist.ir import Circuit
from ..obs.trace import span as _span

#: Compiler-version salt mixed into every cache key.  Bump whenever the
#: compiler's output format or semantics change so old artifacts miss.
CACHE_SCHEMA_VERSION = "repro-compiler/2"

#: Default size cap for a cache directory (LRU-evicted beyond this).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: ``CompilerOptions`` fields that never change the compiled binary and
#: therefore must not contribute to the cache key.
NON_SEMANTIC_OPTIONS = frozenset({"cache_dir", "cache_max_bytes"})


def default_cache_dir() -> Path:
    """``$REPRO_COMPILE_CACHE`` or ``~/.cache/repro-compile``."""
    env = os.environ.get("REPRO_COMPILE_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-compile").expanduser()


def options_fingerprint(options) -> str:
    """Deterministic digest of the semantic compiler options.

    Walks the full dataclass tree (``config``, ``lower_options``, ...) so
    *any* knob that can change the binary - grid shape, merge strategy,
    latencies, mem2reg threshold - invalidates the key, while
    :data:`NON_SEMANTIC_OPTIONS` are stripped first.
    """
    tree = dataclasses.asdict(options)
    for key in NON_SEMANTIC_OPTIONS:
        tree.pop(key, None)
    return hashlib.sha256(repr(tree).encode()).hexdigest()


def compile_cache_key(circuit: Circuit, options,
                      salt: str | None = None) -> str:
    """The content address of one (circuit, options) compilation."""
    salt = CACHE_SCHEMA_VERSION if salt is None else salt
    payload = "\0".join(
        (salt, circuit.fingerprint(), options_fingerprint(options)))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Counters for one :class:`CompileCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions,
                "corrupt": self.corrupt}


class CompileCache:
    """A directory of pickled ``CompileResult`` artifacts, keyed by
    content address (``<key>.pkl``)."""

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.dir = (default_cache_dir() if cache_dir is None
                    else Path(cache_dir).expanduser())
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def key(self, circuit: Circuit, options) -> str:
        return compile_cache_key(circuit, options)

    def path(self, key: str) -> Path:
        return self.dir / f"{key}.pkl"

    def get(self, key: str):
        """Cached ``CompileResult`` or ``None``.  Corrupt entries (torn
        writes, stale pickle protocols, truncation) count as misses and
        are removed."""
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._remove(path)
            return None
        # LRU recency: a read refreshes the entry's eviction clock.
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> bool:
        """Atomically store ``result``; returns False when the artifact
        cannot be persisted (never raises)."""
        try:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=".wip-",
                                       suffix=".pkl")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(blob)
                # Atomic publish: concurrent writers of the same key both
                # land a complete artifact; last rename wins.
                os.replace(tmp, self.path(key))
            except BaseException:
                self._remove(Path(tmp))
                raise
        except OSError:
            return False
        self.stats.stores += 1
        self._evict()
        return True

    # ------------------------------------------------------------------
    def entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) per artifact; racing deletions tolerated."""
        out = []
        for path in self.dir.glob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def _evict(self) -> None:
        with _span("compile.cache.evict", max_bytes=self.max_bytes):
            entries = sorted(self.entries())  # oldest mtime first
            total = sum(size for _, size, _ in entries)
            while entries and total > self.max_bytes:
                _, size, path = entries.pop(0)
                self._remove(path)
                total -= size
                self.stats.evictions += 1

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def describe(self, status: str, key: str) -> dict:
        """The ``CompileReport.cache`` stats payload for one lookup."""
        return {"status": status, "key": key, "dir": str(self.dir),
                **self.stats.as_dict()}


def cache_from_options(options) -> CompileCache | None:
    """Build the cache an options object asks for; ``None`` when caching
    is disabled or the directory cannot be created (degrade, not crash)."""
    if options.cache_dir is None:
        return None
    try:
        return CompileCache(options.cache_dir,
                            max_bytes=options.cache_max_bytes)
    except OSError:
        return None
