"""Content-addressed compile cache: fingerprints, hit/miss semantics,
corruption tolerance, atomicity, and LRU eviction."""

import dataclasses
import json
import pickle
import threading
from types import SimpleNamespace

import pytest

from repro.compiler import (
    CompilerOptions,
    compile_circuit,
    options_fingerprint,
)
from repro.compiler import cache as cache_mod
from repro.compiler.cache import (
    CompileCache,
    cache_from_options,
    compile_cache_key,
)
from repro.machine import Machine, codegen
from repro.machine.boot import serialize
from repro.machine.config import TINY
from repro.netlist.ir import Circuit, Op, OpKind, Register, Wire
from repro.fuzz.generator import counter_circuit, logic_heavy_circuit


def _tiny_options(**kw) -> CompilerOptions:
    return CompilerOptions(config=TINY, **kw)


# ----------------------------------------------------------------------
# Circuit fingerprints.
# ----------------------------------------------------------------------

class TestCircuitFingerprint:
    def test_stable_across_rebuilds(self):
        assert (counter_circuit().fingerprint()
                == counter_circuit().fingerprint())

    def test_stable_across_op_insertion_order(self):
        def build(flip):
            a = Op(Wire("a", 8), OpKind.CONST, attrs={"value": 1})
            b = Op(Wire("b", 8), OpKind.ADD, (Wire("s", 8), Wire("a", 8)))
            c = Circuit("perm")
            c.registers["s"] = Register("s", 8, next_value=Wire("b", 8))
            c.ops = [b, a] if flip else [a, b]
            return c
        assert build(False).fingerprint() == build(True).fingerprint()

    def test_sensitive_to_structure(self):
        base = counter_circuit()
        assert (counter_circuit(limit=10).fingerprint()
                != base.fingerprint())
        mutated = counter_circuit()
        mutated.registers["count"].init = 3
        assert mutated.fingerprint() != base.fingerprint()

    def test_sensitive_to_effect_order(self):
        a, b = counter_circuit(), counter_circuit()
        b.effects = list(reversed(b.effects))
        assert a.fingerprint() != b.fingerprint()

    def test_stable_across_processes(self):
        # No dependence on PYTHONHASHSEED / id(): digest is pure content.
        circuit = logic_heavy_circuit()
        assert len(circuit.fingerprint()) == 64
        assert circuit.fingerprint() == logic_heavy_circuit().fingerprint()

    def test_verilog_frontend_stable_across_hash_seeds(self):
        # Regression: the frontend's If-merges iterated set unions, so
        # gensym'd mux wire names — and with them the fingerprint —
        # depended on PYTHONHASHSEED and warm-cache lookups missed
        # across process restarts.
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        source = root / "examples" / "uart_loopback.v"
        prog = ("import sys; from repro.netlist.verilog import "
                "parse_verilog; "
                "print(parse_verilog(open(sys.argv[1]).read())"
                ".fingerprint())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        digests = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", prog, str(source)],
                env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestOptionsFingerprint:
    def test_non_semantic_knobs_are_ignored(self):
        base = _tiny_options()
        assert (options_fingerprint(base)
                == options_fingerprint(_tiny_options(cache_dir="/x"))
                == options_fingerprint(_tiny_options(cache_max_bytes=1)))

    def test_semantic_knobs_invalidate(self):
        base = options_fingerprint(_tiny_options())
        assert options_fingerprint(_tiny_options(merge_strategy="lpt")) != base
        assert options_fingerprint(_tiny_options(coalesce_state=False)) != base
        assert options_fingerprint(
            CompilerOptions(config=dataclasses.replace(TINY, grid_x=3))) != base

    def test_version_salt_changes_key(self, monkeypatch):
        circuit = counter_circuit()
        before = compile_cache_key(circuit, _tiny_options())
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", "bumped/99")
        assert compile_cache_key(circuit, _tiny_options()) != before


# ----------------------------------------------------------------------
# Hit/miss semantics through compile_circuit.
# ----------------------------------------------------------------------

class TestCacheSemantics:
    def test_hit_is_bit_identical(self, tmp_path):
        opts = _tiny_options(cache_dir=str(tmp_path))
        cold = compile_circuit(counter_circuit(), opts)
        warm = compile_circuit(counter_circuit(), opts)
        assert cold.report.cache["status"] == "miss"
        assert warm.report.cache["status"] == "hit"
        assert serialize(warm.program) == serialize(cold.program)
        assert warm.report.vcpl == cold.report.vcpl
        assert warm.report.times.cache > 0.0

    def test_option_change_is_a_miss(self, tmp_path):
        compile_circuit(counter_circuit(),
                        _tiny_options(cache_dir=str(tmp_path)))
        again = compile_circuit(
            counter_circuit(),
            _tiny_options(cache_dir=str(tmp_path), coalesce_state=False))
        assert again.report.cache["status"] == "miss"

    def test_netlist_mutation_is_a_miss(self, tmp_path):
        opts = _tiny_options(cache_dir=str(tmp_path))
        compile_circuit(counter_circuit(), opts)
        mutated = compile_circuit(counter_circuit(limit=5), opts)
        assert mutated.report.cache["status"] == "miss"

    def test_version_bump_is_a_miss(self, tmp_path, monkeypatch):
        opts = _tiny_options(cache_dir=str(tmp_path))
        compile_circuit(counter_circuit(), opts)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", "bumped/99")
        again = compile_circuit(counter_circuit(), opts)
        assert again.report.cache["status"] == "miss"

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        opts = _tiny_options(cache_dir=str(tmp_path))
        cold = compile_circuit(counter_circuit(), opts)
        cache = CompileCache(tmp_path)
        path = cache.store.path("pkl",
                                compile_cache_key(counter_circuit(), opts))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate mid-pickle
        recompiled = compile_circuit(counter_circuit(), opts)
        assert recompiled.report.cache["status"] == "miss"
        assert serialize(recompiled.program) == serialize(cold.program)
        # And garbage that is not pickle at all:
        path.write_bytes(b"not a pickle")
        stats = CompileCache(tmp_path)
        assert stats.get(path.stem) is None
        assert stats.stats.corrupt == 1
        assert not path.exists()   # bad entry was dropped

    def test_disabled_cache(self, tmp_path):
        result = compile_circuit(counter_circuit(), _tiny_options())
        assert result.report.cache is None
        assert cache_from_options(_tiny_options()) is None

    def test_unwritable_cache_dir_degrades(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # cache_dir points *through* a regular file -> mkdir fails.
        opts = _tiny_options(cache_dir=str(blocker / "sub"))
        assert cache_from_options(opts) is None
        result = compile_circuit(counter_circuit(), opts)
        assert result.report.cache is None

    def test_simulate_with_cache(self, tmp_path):
        from repro.machine.runtime import simulate_on_manticore
        kw = dict(options=_tiny_options(), cache_dir=str(tmp_path))
        cold = simulate_on_manticore(counter_circuit(), **kw)
        warm = simulate_on_manticore(counter_circuit(), **kw)
        assert cold.report.cache["status"] == "miss"
        assert warm.report.cache["status"] == "hit"
        assert warm.displays == cold.displays
        assert warm.vcycles == cold.vcycles


# ----------------------------------------------------------------------
# Store-level behavior: atomicity and eviction, for both kinds the
# store holds - compile artifacts (``pkl``) and kernel sources (``py``).
# ----------------------------------------------------------------------

def _compile_kind(tmp_path, monkeypatch, cap):
    """The compile cache over ``tmp_path``, capped at ``cap(size)`` and
    storing one real artifact of ``size`` bytes."""
    result = compile_circuit(counter_circuit(), _tiny_options())
    size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    cache = CompileCache(tmp_path, max_bytes=cap(size))
    return SimpleNamespace(
        put=lambda key: cache.put(key, result),
        get=cache.get,
        same=lambda got: serialize(got.program) == serialize(result.program),
        path=lambda key: cache.store.path("pkl", key))


def _kernel_kind(tmp_path, monkeypatch, cap):
    """The codegen kernel cache over ``tmp_path`` (opened afresh by every
    call, as the engine does), capped at ``cap(size)`` and storing one
    real emitted source of ``size`` bytes."""
    machine = Machine(compile_circuit(counter_circuit(),
                                      _tiny_options()).program, TINY)
    source = codegen._emit(machine, codegen._analyze(machine)).encode()
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    monkeypatch.setattr(codegen, "DEFAULT_MAX_BYTES", cap(len(source)))
    return SimpleNamespace(
        put=lambda key: codegen._kernel_store().put("py", key, source),
        get=lambda key: codegen._kernel_store().get("py", key),
        same=lambda got: got == source,
        path=lambda key: codegen._kernel_store().path("py", key))


KINDS = pytest.mark.parametrize("make_kind", [_compile_kind, _kernel_kind],
                                ids=["pkl", "py"])


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


class TestCacheStore:
    @KINDS
    def test_concurrent_writers_do_not_clobber(self, tmp_path, monkeypatch,
                                               make_kind):
        cache = make_kind(tmp_path, monkeypatch,
                          lambda size: cache_mod.DEFAULT_MAX_BYTES)
        key = "k" * 64
        errors: list[Exception] = []

        def writer():
            try:
                for _ in range(10):
                    assert cache.put(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Whoever won the last rename, the entry is complete and loadable.
        loaded = cache.get(key)
        assert loaded is not None
        assert cache.same(loaded)
        # No temp files leak.
        assert not list(tmp_path.glob(".wip-*"))

    def test_lru_eviction_is_size_capped(self, tmp_path):
        cache = CompileCache(tmp_path, max_bytes=1)
        result = compile_circuit(counter_circuit(), _tiny_options())
        cache.put("a" * 64, result)
        cache.put("b" * 64, result)
        # Cap of one byte: every store immediately evicts down to zero.
        assert _dir_bytes(tmp_path) <= 1
        assert cache.stats.evictions >= 2
        assert cache.get("a" * 64) is None

    @KINDS
    def test_eviction_prefers_least_recently_used(self, tmp_path,
                                                  monkeypatch, make_kind):
        import os
        cache = make_kind(tmp_path, monkeypatch,
                          lambda size: 2 * size + size // 2)
        cache.put("a" * 64)
        cache.put("b" * 64)
        # Backdate "b" so "a" is the most recently used entry.
        os.utime(cache.path("b" * 64), (1, 1))
        cache.put("c" * 64)   # over cap -> evict oldest ("b")
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) is not None


# ----------------------------------------------------------------------
# Report plumbing.
# ----------------------------------------------------------------------

class TestReportSerialization:
    def test_as_dict_is_json_clean(self, tmp_path):
        opts = _tiny_options(cache_dir=str(tmp_path))
        report = compile_circuit(counter_circuit(), opts).report
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["name"] == "counter"
        assert payload["times"]["cache"] >= 0.0
        assert set(payload["times"]) >= {"opt", "lower", "parallelize",
                                         "custom", "schedule", "regalloc",
                                         "cache", "total"}
        assert payload["cache"]["status"] == "miss"
        assert payload["custom"]["instructions_before"] >= 0

    def test_phase_times_include_cache_in_total(self):
        from repro.compiler import PhaseTimes
        t = PhaseTimes(opt=1.0, cache=0.5)
        assert t.total == pytest.approx(1.5)
        assert t.as_dict()["cache"] == pytest.approx(0.5)
