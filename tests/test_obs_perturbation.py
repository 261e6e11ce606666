"""Observation must never perturb: profiler on == profiler off.

The whole value of ``repro.obs`` rests on one contract: attaching a
:class:`~repro.obs.Profiler` (or an ambient span tracer) to a run
changes *nothing observable*.  This file enforces bit-identity of the
full :class:`~repro.machine.grid.MachineResult` - Vcycle count,
``finished``, display stream, machine-wide ``PerfCounters``, cache
statistics - plus every core's registers and scratchpad, across all
nine benchmark designs and all three execution engines.

Not observing must also cost nothing per Vcycle: once trusted, an
unprofiled codegen run advances only through the bulk loop, and a
profiled one never enters it.
"""

from __future__ import annotations

import functools
import pickle
from unittest import mock

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import ENGINES, Machine, MachineConfig
from repro.obs import Profiler, Tracer, use_tracer

CONFIG = MachineConfig(grid_x=8, grid_y=8)

ALL_DESIGNS = sorted(DESIGNS)


@functools.lru_cache(maxsize=None)
def _compiled(name: str):
    options = CompilerOptions(config=CONFIG)
    return compile_circuit(DESIGNS[name].build(), options)


def _budget(name: str, engine: str) -> int:
    # Full driver-complete budget on the fast engine; the per-event
    # engines get a capped (but identical for both sides) budget so the
    # 9 x 3 matrix stays affordable.  Identity under a truncated run is
    # exactly as strong a check as under a finished one.
    full = max(64, DESIGNS[name].cycles + 300)
    return full if engine == "fast" else min(full, 96)


def _run(name: str, engine: str, profiler: Profiler | None):
    machine = Machine(_compiled(name).program, CONFIG, engine=engine,
                      profiler=profiler)
    result = machine.run(_budget(name, engine))
    return machine, result


@functools.lru_cache(maxsize=None)
def _baseline(name: str, engine: str):
    return _run(name, engine, None)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_profiler_does_not_perturb(name, engine):
    base_m, base_r = _baseline(name, engine)
    prof_m, prof_r = _run(name, engine, Profiler())

    assert prof_r.vcycles == base_r.vcycles
    assert prof_r.finished == base_r.finished
    assert prof_r.displays == base_r.displays
    assert prof_r.counters == base_r.counters
    assert prof_r.cache == base_r.cache

    for cid, core in base_m.cores.items():
        prof_core = prof_m.cores[cid]
        assert prof_core.regs == core.regs, f"core {cid} registers"
        assert prof_core.scratch == core.scratch, f"core {cid} scratch"


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_tracer_does_not_perturb(engine):
    """An ambient span tracer around compile + run is equally inert."""
    name = "mc"
    base_m, base_r = _baseline(name, engine)
    with use_tracer(Tracer()) as tracer:
        prof_m, prof_r = _run(name, engine, None)
    assert tracer.spans, "machine.run should have produced spans"
    assert prof_r.counters == base_r.counters
    assert prof_r.displays == base_r.displays
    for cid, core in base_m.cores.items():
        assert prof_m.cores[cid].regs == core.regs


def test_profiler_actually_observes():
    """Guards against the identity test passing because the profiler
    was never consulted: a profiled mc run must have recorded work."""
    _, result = _baseline("mc", "fast")
    profiler = Profiler()
    _run("mc", "fast", profiler)
    totals = profiler.totals()
    assert totals["instructions"] == result.counters.instructions > 0
    assert totals["sends"] == result.counters.messages > 0
    assert profiler.total_hops > 0
    assert profiler.samples


def test_zero_budget_run_is_well_formed():
    """Zero-Vcycle runs report rate 0.0 and an explicit status instead
    of dividing by zero (the [fix] satellite)."""
    machine = Machine(_compiled("mc").program, CONFIG, engine="fast",
                      profiler=Profiler())
    result = machine.run(0)
    assert result.vcycles == 0
    assert result.simulation_rate_khz(475.0) == 0.0
    assert result.status() == "did not run (zero Vcycles executed)"


def test_unfinished_run_status():
    machine = Machine(_compiled("mc").program, CONFIG, engine="fast")
    result = machine.run(3)
    assert not result.finished
    assert result.status() == "did not finish (stopped at the 3-Vcycle budget)"
    assert result.simulation_rate_khz(475.0) > 0.0


@pytest.mark.parametrize("name", ["bc", "mc", "jpeg"])
def test_unobserved_trusted_run_is_bulk_only(name):
    """Unprofiled, a codegen machine steps one Vcycle at a time only for
    its verification Vcycles and then runs in ``_run_bulk`` calls to the
    end; a machine that starts trusted never steps one at a time.  With
    a profiler attached every ``_run_bulk`` call declines."""
    program = pickle.loads(pickle.dumps(_compiled(name).program))
    budget = _budget(name, "fast")
    steps, bulk = [], []
    real_step, real_bulk = Machine.step_vcycle, Machine._run_bulk

    def step_vcycle(machine):
        steps.append(machine.counters.vcycles)
        real_step(machine)

    def run_bulk(machine, until):
        bulk.append(real_bulk(machine, until))
        return bulk[-1]

    def run(profiler):
        steps.clear()
        bulk.clear()
        with mock.patch.object(Machine, "step_vcycle", step_vcycle), \
                mock.patch.object(Machine, "_run_bulk", run_bulk):
            machine = Machine(program, CONFIG, engine="codegen",
                              profiler=profiler)
            return machine.run(budget)

    verify = CONFIG.fastpath_verify_vcycles
    result = run(None)
    assert steps == list(range(verify))
    assert bulk[:verify] == [False] * verify
    assert len(bulk) > verify and all(bulk[verify:])
    assert run(None) == result and steps == [] and all(bulk)
    assert run(Profiler()) == result
    assert bulk and not any(bulk)
    assert steps == list(range(result.vcycles))
