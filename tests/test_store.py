"""The verified artifact store (``repro.store``) under faults.

Every kind the store holds is covered: compile artifacts (``pkl``,
:class:`~repro.compiler.cache.CompileCache`), codegen kernel sources
(``py``) and their marshalled code objects (``code``, both
``repro.machine.codegen``).  Every fault - a truncated entry, a flipped
bit, an entry copied under another key, a read-only directory, a cap
smaller than one entry, a temp file a killed writer left behind, a code
entry of another bytecode version - ends in a miss that rebuilds the
clean program (``serialize``-identical) and a bit-identical run, never
in a wrong program.  A kernel's source is read only when its code entry
does not load, so a case that damages the source removes the code entry
first.
"""

from __future__ import annotations

import errno
import marshal
import os
import shutil
from dataclasses import dataclass
from importlib.util import MAGIC_NUMBER
from pathlib import Path

import pytest

from repro import store as store_mod
from repro.compiler import CompilerOptions, compile_circuit
from repro.compiler.cache import CompileCache, compile_cache_key
from repro.designs import DESIGNS
from repro.fuzz.generator import counter_circuit
from repro.machine import Machine, MachineConfig
from repro.machine import codegen as cg
from repro.machine.boot import serialize
from repro.machine.config import TINY
from repro.serve import state_digest
from repro.store import Store

KINDS = ("pkl", "py", "code")


def _circuit():
    return counter_circuit(limit=40)


def _other_circuit():
    return counter_circuit(limit=50, width=16)


@dataclass
class Build:
    """One compile + codegen run through the caches."""

    compile_missed: bool
    kernel_emitted: bool
    kernel_compiled: bool
    image: bytes
    outcome: tuple
    keys: dict


class Caches:
    """A compile cache and a kernel cache (``py`` and ``code`` entries)
    in two directories under ``root``, seen the way a fresh process sees
    them."""

    def __init__(self, root: Path, monkeypatch, config=TINY) -> None:
        self.dirs = {"pkl": root / "compile"}
        self.config = config
        self.monkeypatch = monkeypatch
        self.move("py", root / "kernel")

    def move(self, kind: str, directory: Path) -> set[str]:
        """Point the cache holding ``kind`` at ``directory``; the kinds
        the next build then misses."""
        if kind == "pkl":
            self.dirs["pkl"] = directory
            return {"pkl"}
        self.dirs["py"] = self.dirs["code"] = directory
        self.monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(directory))
        return {"py", "code"}

    def expose(self, kind: str, build: Build) -> set[str]:
        """Remove the code entry when ``kind`` is the source, so the next
        build reads the source; the kinds that build then misses."""
        if kind != "py":
            return {kind}
        self.entry("code", build).unlink()
        return {"py", "code"}

    def build(self, circuit, **options) -> Build:
        """Compile through the compile cache, then run to ``$finish`` on
        a kernel built through the kernel cache (no in-process memo)."""
        self.monkeypatch.setattr(cg, "_MEMO", {})
        opts = CompilerOptions(config=self.config,
                               cache_dir=str(self.dirs["pkl"]), **options)
        compiled = compile_circuit(circuit, opts)
        emissions = cg.EMISSIONS
        compiles = []

        def counting_compile(*args):
            compiles.append(args)
            return compile(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cg, "compile", counting_compile, raising=False)
            machine = Machine(compiled.program, self.config,
                              engine="codegen")
            result = machine.run(400)
        assert result.finished
        return Build(
            compile_missed=compiled.report.cache["status"] == "miss",
            kernel_emitted=cg.EMISSIONS > emissions,
            kernel_compiled=bool(compiles),
            image=serialize(compiled.program),
            outcome=(result.vcycles, result.displays, result.counters,
                     state_digest(machine)),
            keys={"pkl": compile_cache_key(circuit, opts),
                  "py": cg._content_key(machine),
                  "code": cg._content_key(machine)})

    def entry(self, kind: str, build: Build) -> Path:
        return Store(self.dirs[kind]).path(kind, build.keys[kind])


def _assert_rebuilt(missed: set[str], clean: Build, again: Build) -> None:
    """``again`` missed exactly the entries of the ``missed`` kinds and
    reproduced ``clean`` bit for bit."""
    assert again.compile_missed == ("pkl" in missed)
    assert again.kernel_emitted == ("py" in missed)
    assert again.kernel_compiled == ("code" in missed)
    assert again.image == clean.image
    assert again.outcome == clean.outcome


def _truncate(offset):
    def fault(entry: Path, other: Path) -> None:
        data = entry.read_bytes()
        entry.write_bytes(data[:offset(data)])
    return fault


FAULTS = {
    "truncated-0": _truncate(lambda data: 0),
    "truncated-1": _truncate(lambda data: 1),
    "truncated-header-end": _truncate(lambda data: data.index(b"\n") + 1),
    "truncated-mid-payload": _truncate(
        lambda data: (data.index(b"\n") + len(data)) // 2),
    "other-key": lambda entry, other: shutil.copyfile(other, entry),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_entry_is_a_miss_that_rebuilds(tmp_path, monkeypatch,
                                               kind, fault):
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    other = caches.build(_other_circuit())
    entry = caches.entry(kind, clean)
    good = entry.read_bytes()

    FAULTS[fault](entry, caches.entry(kind, other))
    store = Store(caches.dirs[kind])
    assert store.get(kind, clean.keys[kind]) is None
    assert store.stats.corrupt == 1
    assert not entry.exists(), "a damaged entry is removed"

    entry.write_bytes(good)
    FAULTS[fault](entry, caches.entry(kind, other))
    missed = caches.expose(kind, clean)
    _assert_rebuilt(missed, clean, caches.build(_circuit()))
    assert store.get(kind, clean.keys[kind]) is not None, \
        "the rebuild did not store a verified entry"


@pytest.mark.parametrize("kind", KINDS)
def test_bit_flips_in_a_real_entry_are_all_misses(tmp_path, monkeypatch,
                                                  kind):
    """One bit flipped at every k-th byte of the ``mm@small`` entry
    (8x8), ~200 flips, each read back through the cache's own front
    end: every read is a miss, none loads a program."""
    caches = Caches(tmp_path, monkeypatch,
                    config=MachineConfig(grid_x=8, grid_y=8))
    build = lambda: caches.build(DESIGNS["mm"].build_at("small"))  # noqa: E731
    clean = build()
    entry = caches.entry(kind, clean)
    good = entry.read_bytes()
    key = clean.keys[kind]
    if kind == "pkl":
        cache = CompileCache(caches.dirs["pkl"])
        read, stats = (lambda: cache.get(key)), cache.stats
    else:
        store = Store(caches.dirs[kind])
        decode = bytes.decode if kind == "py" else cg._unmarshal
        read = lambda: store.get(kind, key, decode)  # noqa: E731
        stats = store.stats
    assert read() is not None, "the intact entry does not load"
    step = len(good) // 200
    flips = 0
    for offset in range(0, len(good), step):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        entry.write_bytes(flipped)
        assert read() is None, f"flip at byte {offset} was loaded"
        flips += 1
    assert flips >= 200
    assert stats.corrupt == flips and stats.hits == 1
    _assert_rebuilt(caches.expose(kind, clean), clean, build())


@pytest.mark.parametrize("kind", KINDS)
def test_read_only_directory_stores_nothing_and_still_runs(
        tmp_path, monkeypatch, kind):
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    directory = tmp_path / "read-only"
    missed = caches.move(kind, directory)
    directory.mkdir()
    directory.chmod(0o555)
    # Root ignores mode bits: refuse the store's writes there the way
    # the kernel refuses every other user's.
    real_open = open

    def refusing_open(path, *args, **kwargs):
        if Path(path).parent == directory:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(store_mod, "open", refusing_open, raising=False)
    try:
        assert Store(directory).put(kind, clean.keys[kind], b"x") is False
        for _ in range(2):
            _assert_rebuilt(missed, clean, caches.build(_circuit()))
        assert not list(directory.iterdir())
    finally:
        directory.chmod(0o755)


@pytest.mark.parametrize("kind", KINDS)
def test_cap_smaller_than_one_entry_keeps_nothing(tmp_path, monkeypatch,
                                                  kind):
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    missed = caches.move(kind, tmp_path / "capped")
    options = {}
    if kind == "pkl":
        options["cache_max_bytes"] = 1
    else:
        monkeypatch.setattr(cg, "DEFAULT_MAX_BYTES", 1)
    for _ in range(2):
        _assert_rebuilt(missed, clean, caches.build(_circuit(), **options))
        assert not list(caches.dirs[kind].iterdir())


@pytest.mark.parametrize("kind", KINDS)
def test_leftover_temp_is_never_read_and_is_evicted(tmp_path, monkeypatch,
                                                    kind):
    """A writer killed between writing its temp file and renaming it
    leaves a complete entry under a ``.wip-`` name: ``get`` never reads
    it, and it counts toward the cap, oldest first."""
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    entry = caches.entry(kind, clean)
    temp = entry.with_name(f".wip-{entry.name}-0123456789ab")
    entry.rename(temp)
    os.utime(temp, (1, 1))
    assert Store(caches.dirs[kind]).get(kind, clean.keys[kind]) is None

    _assert_rebuilt(caches.expose(kind, clean), clean,
                    caches.build(_circuit()))
    assert temp.exists() and entry.exists()
    # A cap that holds every live entry (the other kernel kind shares
    # the directory) but not the temp.
    live = sum(path.stat().st_size for path in caches.dirs[kind].iterdir()
               if not path.name.startswith(".wip-"))
    store = Store(caches.dirs[kind], max_bytes=live)
    assert store.put(kind, clean.keys[kind],
                     store.get(kind, clean.keys[kind]))
    assert not temp.exists(), "the leftover temp was not evicted"
    assert entry.exists() and store.stats.evictions == 1


def test_verified_entry_that_does_not_unpickle_is_corrupt(tmp_path):
    cache = CompileCache(tmp_path)
    key = "k" * 64
    assert cache.store.put("pkl", key, b"not a pickle")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1 and cache.stats.misses == 1
    assert not cache.store.path("pkl", key).exists()


def test_verified_entry_that_does_not_unmarshal_is_corrupt(tmp_path):
    store = Store(tmp_path)
    key = "k" * 64
    for payload in (b"not a code object",
                    MAGIC_NUMBER + b"not marshal data",
                    MAGIC_NUMBER + marshal.dumps(42)):
        assert store.put("code", key, payload)
        assert store.get("code", key, cg._unmarshal) is None
        assert not store.path("code", key).exists()
    assert store.stats.corrupt == 3 and store.stats.misses == 3


def test_code_entry_of_another_bytecode_version_is_recompiled(
        tmp_path, monkeypatch):
    """A verified code entry stamped with another interpreter's
    ``MAGIC_NUMBER`` is never unmarshalled: the kernel is compiled again
    from its source, the entry restamped, and the run bit-identical."""
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    entry = caches.entry("code", clean)
    payload = entry.read_bytes().partition(b"\n")[2]
    assert payload.startswith(MAGIC_NUMBER)
    foreign = bytes([MAGIC_NUMBER[0] ^ 1]) + payload[1:]
    assert Store(caches.dirs["code"]).put("code", clean.keys["code"],
                                          foreign)

    loads = []
    real_loads = marshal.loads
    monkeypatch.setattr(cg.marshal, "loads",
                        lambda data: loads.append(data) or real_loads(data))
    _assert_rebuilt({"code"}, clean, caches.build(_circuit()))
    assert loads == [], "a foreign code entry was unmarshalled"
    assert entry.read_bytes().partition(b"\n")[2] == payload


def test_kernel_cache_stats_count_a_damaged_code_entry(tmp_path,
                                                       monkeypatch):
    """Both kernel kinds count into the one ``CacheStats`` of their
    directory, which ``kernel_cache_stats`` reports."""
    caches = Caches(tmp_path, monkeypatch)
    clean = caches.build(_circuit())
    entry = caches.entry("code", clean)
    data = bytearray(entry.read_bytes())
    data[len(data) // 2] ^= 0x01
    entry.write_bytes(data)
    _assert_rebuilt({"code"}, clean, caches.build(_circuit()))
    stats = cg.kernel_cache_stats()
    assert stats.corrupt == 1
    # cold: two misses and two stores; warm: a corrupt code entry, a
    # source hit, the code entry stored again
    assert stats.as_dict() == {"hits": 1, "misses": 3, "stores": 3,
                               "evictions": 0, "corrupt": 1}
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", "off")
    assert cg.kernel_cache_stats() is None
