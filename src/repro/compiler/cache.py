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

Storage is a :class:`repro.store.Store` of ``<key>.pkl`` entries: the
store verifies each entry's sha256 header before it is unpickled,
publishes atomically, evicts least-recently-read entries beyond
``max_bytes`` and counts hits, misses, stores, evictions and corrupt
entries; those counts are surfaced on
:class:`~repro.compiler.driver.CompileReport` for benchmarks and the
CLI ``--json`` output.  An entry that fails verification or unpickling
is a miss (and is deleted), never a crash or a wrong program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from pathlib import Path

from ..netlist.ir import Circuit
from ..store import DEFAULT_MAX_BYTES, CacheStats, Store

#: Compiler-version salt mixed into every cache key.  Bump whenever the
#: compiler's output format or semantics change so old artifacts miss.
CACHE_SCHEMA_VERSION = "repro-compiler/2"

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


class CompileCache:
    """Pickled ``CompileResult`` artifacts in a :class:`~repro.store.
    Store`, keyed by content address (``<key>.pkl``)."""

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        directory = (default_cache_dir() if cache_dir is None
                     else Path(cache_dir).expanduser())
        directory.mkdir(parents=True, exist_ok=True)
        self.store = Store(directory, max_bytes)
        self.stats: CacheStats = self.store.stats

    # ------------------------------------------------------------------
    def key(self, circuit: Circuit, options) -> str:
        return compile_cache_key(circuit, options)

    def get(self, key: str):
        """Cached ``CompileResult`` or ``None``; an entry that fails its
        checksum or does not unpickle is a miss and is removed."""
        return self.store.get("pkl", key, pickle.loads)

    def put(self, key: str, result) -> bool:
        """Store ``result``; returns False when the artifact cannot be
        persisted (never raises)."""
        try:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return self.store.put("pkl", key, blob)

    def describe(self, status: str, key: str) -> dict:
        """The ``CompileReport.cache`` stats payload for one lookup."""
        return {"status": status, "key": key, "dir": str(self.store.dir),
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
