"""Internal-consistency invariants of the observability subsystem.

Perturbation tests (``test_obs_perturbation.py``) prove observing
changes nothing; this file proves what *was* observed is right:

* per-core counters sum to the machine-wide
  :class:`~repro.machine.grid.PerfCounters`;
* per-link hop counts sum to the hop total, and the switch heatmap is
  a lossless regrouping of the link table;
* per-Vcycle samples sum to the run totals (exactly, even after
  pairwise compaction bounds the sample list);
* the strict and fast engines produce *identical* profiler data, not just
  identical architectural results;
* span trees nest without overlap;
* the JSON export validates against ``docs/profile.schema.json`` and
  the fuzz harness's ``machine-fast-profiled`` oracle runs clean.
"""

from __future__ import annotations

import functools
import json
import pathlib

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import ENGINES, Machine, MachineConfig
from repro.obs import (
    Profiler,
    Tracer,
    build_profile,
    chrome_trace,
    metrics_dict,
    profile_circuit,
    prometheus_textfile,
    validate_profile,
)
from repro.obs.report import render_report

CONFIG = MachineConfig(grid_x=8, grid_y=8)

SCHEMA_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "docs" / "profile.schema.json")

#: Designs exercised per-engine below; mc finishes quickly and touches
#: every observable (cache, exceptions, messages, $finish mid-Vcycle).
PROFILED_DESIGNS = ("mc", "mm")


@functools.lru_cache(maxsize=None)
def _compiled(name: str):
    return compile_circuit(DESIGNS[name].build(),
                           CompilerOptions(config=CONFIG))


@functools.lru_cache(maxsize=None)
def _profiled(name: str, engine: str):
    profiler = Profiler()
    machine = Machine(_compiled(name).program, CONFIG, engine=engine,
                      profiler=profiler)
    result = machine.run(max(64, DESIGNS[name].cycles + 300))
    return machine, result, profiler


# ---------------------------------------------------------------------------
# Counter conservation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["strict", "fast"])
@pytest.mark.parametrize("name", PROFILED_DESIGNS)
def test_core_counters_sum_to_machine_counters(name, engine):
    _, result, profiler = _profiled(name, engine)
    totals = profiler.totals()
    counters = result.counters
    assert totals["instructions"] == counters.instructions
    assert totals["sends"] == counters.messages
    assert totals["exceptions"] == counters.exceptions
    # Every global stall is attributed to exactly one core's privileged
    # access or exception - nothing double-counted, nothing orphaned.
    assert totals["stall_caused"] == counters.stall_cycles
    assert profiler.stall_causes.get("total", 0) == counters.stall_cycles


@pytest.mark.parametrize("engine", ["strict", "fast"])
@pytest.mark.parametrize("name", PROFILED_DESIGNS)
def test_link_hops_sum_to_total(name, engine):
    _, _, profiler = _profiled(name, engine)
    assert sum(profiler.links.values()) == profiler.total_hops
    # The switch heatmap is a regrouping of the same data, not a
    # recount.
    assert sum(profiler.switch_utilization().values()) \
        == profiler.total_hops
    for (kind, x, y) in profiler.links:
        assert kind in ("E", "S")
        assert 0 <= x < CONFIG.grid_x and 0 <= y < CONFIG.grid_y


@pytest.mark.parametrize("engine", ["strict", "fast"])
@pytest.mark.parametrize("name", PROFILED_DESIGNS)
def test_vcycle_samples_sum_to_run_totals(name, engine):
    _, result, profiler = _profiled(name, engine)
    counters = result.counters
    assert sum(s.width for s in profiler.samples) == result.vcycles
    assert sum(s.compute_cycles for s in profiler.samples) \
        == counters.compute_cycles
    assert sum(s.stall_cycles for s in profiler.samples) \
        == counters.stall_cycles
    assert sum(s.instructions for s in profiler.samples) \
        == counters.instructions
    assert sum(s.messages for s in profiler.samples) == counters.messages
    assert sum(s.exceptions for s in profiler.samples) \
        == counters.exceptions


@pytest.mark.parametrize("name", PROFILED_DESIGNS)
def test_engines_agree_on_profiler_data(name):
    """Not just identical results: identical *observations*.  The fast
    engine's bulk-merged static counts must equal the strict engine's
    per-event bookkeeping, core by core and link by link."""
    _, _, strict = _profiled(name, "strict")
    _, _, fast = _profiled(name, "fast")
    assert fast.cores == strict.cores
    assert fast.links == strict.links
    assert fast.total_hops == strict.total_hops
    assert fast.stall_causes == strict.stall_causes
    assert fast.cache_latency == strict.cache_latency


def test_cache_histograms_count_every_access():
    _, result, profiler = _profiled("mc", "strict")
    recorded = sum(count for hist in profiler.cache_latency.values()
                   for count in hist.values())
    assert recorded == result.cache.accesses
    hits = sum(count for (op, outcome), hist
               in profiler.cache_latency.items() if outcome == "hit"
               for count in hist.values())
    assert hits == result.cache.hits


def test_sample_compaction_is_lossless():
    """Pairwise compaction halves resolution but conserves totals."""
    profiler = Profiler(sample_cap=8)
    for i in range(100):
        profiler.end_vcycle(i, compute=10, stall=i % 3, instructions=7,
                            messages=2, exceptions=0)
    assert len(profiler.samples) <= 2 * profiler.sample_cap
    assert sum(s.width for s in profiler.samples) == 100
    assert sum(s.compute_cycles for s in profiler.samples) == 1000
    assert sum(s.instructions for s in profiler.samples) == 700
    assert sum(s.messages for s in profiler.samples) == 200
    assert sum(s.stall_cycles for s in profiler.samples) \
        == sum(i % 3 for i in range(100))
    starts = [s.start for s in profiler.samples]
    assert starts == sorted(starts)


# ---------------------------------------------------------------------------
# Span trees.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _profiled_run(engine: str = "fast"):
    return profile_circuit(DESIGNS["mc"].build(), engine=engine,
                           options=CompilerOptions(config=CONFIG),
                           config=CONFIG)


def test_span_tree_nests_without_overlap():
    tracer = _profiled_run().tracer
    spans = tracer.spans
    assert spans, "compile + run should produce spans"
    assert {"compile", "machine.run"} <= {s.name for s in spans}
    for s in spans:
        assert s.end is not None and s.end >= s.start
        if s.parent >= 0:
            parent = spans[s.parent]
            assert s.depth == parent.depth + 1
            assert parent.start <= s.start
            assert s.end <= parent.end
        else:
            assert s.depth == 0
    # Siblings are disjoint in time (spans come from one thread's
    # stack, so a sibling starts only after the previous one closed).
    by_parent: dict[int, list] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    for siblings in by_parent.values():
        for earlier, later in zip(siblings, siblings[1:]):
            assert earlier.end <= later.start


def test_compile_phases_are_spanned():
    names = {s.name for s in _profiled_run().tracer.spans}
    for phase in ("compile.opt", "compile.lower", "compile.parallelize",
                  "compile.custom", "compile.schedule",
                  "compile.regalloc"):
        assert phase in names, phase


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_profile_export_matches_checked_in_schema(engine):
    schema = json.loads(SCHEMA_PATH.read_text())
    profile = _profiled_run(engine).profile
    # Round-trip through JSON so what we validate is what a consumer
    # parses, not Python-only types.
    profile = json.loads(json.dumps(profile))
    assert validate_profile(profile, schema) == []


def test_schema_validator_rejects_broken_profiles():
    schema = json.loads(SCHEMA_PATH.read_text())
    profile = json.loads(json.dumps(_profiled_run().profile))
    del profile["result"]
    assert any("result" in e for e in validate_profile(profile, schema))
    profile = json.loads(json.dumps(_profiled_run().profile))
    profile["result"]["vcycles"] = -1
    assert validate_profile(profile, schema)
    profile["result"]["vcycles"] = "lots"
    assert validate_profile(profile, schema)


def test_chrome_trace_shape():
    trace = _profiled_run().trace_json
    trace = json.loads(json.dumps(trace))
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events[0]["ph"] == "M"
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
        assert event["ts"] >= 0 and event["dur"] >= 0


def test_metrics_dict_is_flat_and_numeric():
    metrics = _profiled_run().metrics
    assert metrics["result.vcycles"] > 0
    assert metrics["noc.total_hops"] > 0
    for key, value in metrics.items():
        assert isinstance(key, str)
        assert isinstance(value, (int, float))
    assert any("." in key for key in metrics)


def test_prometheus_textfile_format():
    text = _profiled_run().prometheus
    assert text.endswith("\n")
    sample_lines = [l for l in text.splitlines()
                    if l and not l.startswith("#")]
    assert sample_lines
    for line in sample_lines:
        name = line.split("{", 1)[0]
        assert name.startswith("repro_")
        value = line.rsplit(" ", 1)[1]
        float(value)  # must parse
    assert 'design="mc"' in text and 'engine="fast"' in text


def test_report_renders_for_zero_cycle_run():
    """The [fix] satellite: reports for runs that never executed must
    say so explicitly, with no division by zero anywhere."""
    profiler = Profiler()
    tracer = Tracer()
    machine = Machine(_compiled("mc").program, CONFIG, engine="fast",
                      profiler=profiler)
    result = machine.run(0)
    from repro.obs.report import ProfiledRun
    run = ProfiledRun(name="mc", engine="fast",
                      compile_result=_compiled("mc"), machine=machine,
                      result=result, profiler=profiler, tracer=tracer,
                      frequency_mhz=CONFIG.frequency_mhz)
    profile = build_profile(run)
    assert profile["result"]["simulation_rate_khz"] == 0.0
    assert profile["result"]["status"] \
        == "did not run (zero Vcycles executed)"
    text = render_report(profile)
    assert "did not run" in text
    assert "n/a (no machine cycles executed)" in text
    # Exports stay well-formed too.
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate_profile(json.loads(json.dumps(profile)), schema) == []
    prometheus_textfile(profile)
    metrics_dict(profile)
    chrome_trace(tracer)


def test_report_renders_for_all_engines():
    for engine in ("strict", "fast"):
        machine, result, profiler = _profiled("mc", engine)
        from repro.obs.report import ProfiledRun
        run = ProfiledRun(name="mc", engine=engine,
                          compile_result=_compiled("mc"), machine=machine,
                          result=result, profiler=profiler,
                          tracer=Tracer(),
                          frequency_mhz=CONFIG.frequency_mhz)
        text = run.render()
        assert "finished ($finish reached)" in text
        assert "VCPL attribution" in text
        assert "NoC link utilization" in text


# ---------------------------------------------------------------------------
# Fuzz-matrix hook.
# ---------------------------------------------------------------------------

def test_profiled_oracle_in_matrices():
    from repro.fuzz.oracle import MATRICES, ORACLES
    spec = ORACLES["machine-fast-profiled"]
    assert spec.profiled and spec.engine == "fast"
    assert "profiled" in spec.describe()
    assert "machine-fast-profiled" in MATRICES["engines"]
    assert "machine-fast-profiled" in MATRICES["full"]


def test_profiled_oracle_runs_clean():
    """One profiled variant per fuzz seed: generated circuits (not just
    the curated designs) must satisfy the observation contract."""
    from repro.fuzz.oracle import fuzz_seed
    report = fuzz_seed(7, matrix="machine-fast,machine-fast-profiled")
    assert report.ok, [d.describe() for d in report.divergences]


def test_profile_invariant_checker_detects_violations():
    from repro.fuzz.oracle import check_profile_invariants
    _, result, profiler = _profiled("mc", "fast")
    assert check_profile_invariants(profiler, result) is None
    broken = Profiler()
    broken.cores.update({cid: c for cid, c in profiler.cores.items()})
    broken.links.update(profiler.links)
    broken.total_hops = profiler.total_hops + 1  # corrupt one invariant
    broken.samples = list(profiler.samples)
    broken.stall_causes.update(profiler.stall_causes)
    problem = check_profile_invariants(broken, result)
    assert problem is not None and "link hops" in problem
