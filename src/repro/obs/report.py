"""Bottleneck reporting: turn a profiled run into answers.

:func:`profile_circuit` is the one-call harness behind ``repro
profile``: compile under a span tracer, run under a profiler, and hand
back a :class:`ProfiledRun`.  :func:`build_profile` condenses that into
the schema'd JSON export (``docs/profile.schema.json``), and
:func:`render_report` renders the human bottleneck report:

* **VCPL critical-core attribution** - which cores' schedules set the
  Vcycle length (the paper's Fig. 7 question, per design instead of in
  aggregate);
* **stall-cause breakdown** - cache-hit / cache-miss / writeback /
  exception global-stall cycles (Fig. 8's categories, measured);
* **torus link-utilization heatmap** - message hops per switch, so NoC
  hot spots are visible in a terminal (`repro.textplot.heatmap`).

Zero-cycle and unfinished runs render explicitly ("did not finish",
rate 0.0) rather than dividing by zero - enforced by
``tests/test_obs_invariants.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..textplot import bar_chart, heatmap
from .export import chrome_trace, metrics_dict, prometheus_textfile
from .profiler import Profiler
from .trace import Tracer, use_tracer

#: Version stamp of the profile export; bump on breaking shape changes
#: (docs/profile.schema.json pins it).
PROFILE_SCHEMA_VERSION = 1


@dataclass
class ProfiledRun:
    """Everything one observed compile-and-run produced."""

    name: str
    engine: str
    compile_result: object         # compiler.driver.CompileResult
    machine: object                # machine.grid.Machine
    result: object                 # machine.grid.MachineResult
    profiler: Profiler
    tracer: Tracer
    frequency_mhz: float

    @property
    def profile(self) -> dict:
        return build_profile(self)

    @property
    def trace_json(self) -> dict:
        return chrome_trace(self.tracer, process_name=f"repro:{self.name}")

    @property
    def metrics(self) -> dict:
        return metrics_dict(self.profile)

    @property
    def prometheus(self) -> str:
        return prometheus_textfile(self.profile)

    def render(self) -> str:
        # Only the codegen engine has a native tier to report.
        engine = getattr(self.machine, "_fastpath", None)
        return render_report(
            self.profile,
            native_vcycles=getattr(engine, "native_vcycles", None))


def profile_circuit(circuit, name: str | None = None, engine: str = "fast",
                    options=None, max_vcycles: int = 1_000_000,
                    config=None, profiler: Profiler | None = None,
                    tracer: Tracer | None = None) -> ProfiledRun:
    """Compile ``circuit`` with compile-phase span tracing, run it on
    the machine with a profiler attached, and return the observed run."""
    from ..compiler.driver import CompilerOptions, compile_circuit
    from ..machine.config import MachineConfig
    from ..machine.grid import Machine

    options = options or CompilerOptions()
    profiler = profiler or Profiler()
    tracer = tracer or Tracer()
    with use_tracer(tracer):
        compile_result = compile_circuit(circuit, options)
        program = compile_result.program
        config = config or options.config or MachineConfig(
            grid_x=program.grid[0], grid_y=program.grid[1])
        machine = Machine(program, config, engine=engine,
                          profiler=profiler)
        result = machine.run(max_vcycles)
    return ProfiledRun(
        name=name or circuit.name, engine=engine,
        compile_result=compile_result, machine=machine, result=result,
        profiler=profiler, tracer=tracer,
        frequency_mhz=config.frequency_mhz)


# ---------------------------------------------------------------------------
# The JSON profile export.
# ---------------------------------------------------------------------------

def _core_table(run: ProfiledRun) -> list[dict]:
    machine = run.machine
    config = machine.config
    rows = []
    for cid, core in sorted(machine.cores.items()):
        x, y = config.coord(cid)
        counters = run.profiler.cores.get(cid)
        schedule_length = (len(core.binary.body)
                          + core.binary.epilogue_length)
        row = {
            "core": cid, "x": x, "y": y,
            "schedule_length": schedule_length,
            "body": len(core.binary.body),
            "epilogue": core.binary.epilogue_length,
            "instructions": 0, "sends": 0, "receives": 0,
            "cache_accesses": 0, "exceptions": 0, "stall_caused": 0,
        }
        if counters is not None:
            row.update(counters.as_dict())
        rows.append(row)
    return rows


def build_profile(run: ProfiledRun) -> dict:
    """The schema'd JSON export of one profiled run."""
    machine = run.machine
    result = run.result
    report = run.compile_result.report
    config = machine.config
    counters = result.counters
    table = _core_table(run)
    critical = max(table, key=lambda r: r["schedule_length"],
                   default=None)
    links = {f"{kind}:{x}:{y}": hops
             for (kind, x, y), hops in sorted(run.profiler.links.items())}
    busiest = sorted(links.items(), key=lambda kv: -kv[1])[:8]
    cache_stats = result.cache
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "design": run.name,
        "engine": run.engine,
        "grid": {"x": config.grid_x, "y": config.grid_y},
        "result": {
            "vcycles": result.vcycles,
            "finished": result.finished,
            "status": result.status(),
            "compute_cycles": counters.compute_cycles,
            "stall_cycles": counters.stall_cycles,
            "instructions": counters.instructions,
            "messages": counters.messages,
            "exceptions": counters.exceptions,
            "displays": len(result.displays),
            "simulation_rate_khz": round(
                result.simulation_rate_khz(run.frequency_mhz), 3),
            "frequency_mhz": run.frequency_mhz,
        },
        "vcpl": {
            "vcpl": report.vcpl,
            "critical_core": critical["core"] if critical else -1,
            "critical_schedule_length":
                critical["schedule_length"] if critical else 0,
        },
        "cores": {"used": len(table), "table": table},
        "stalls": {
            "total": counters.stall_cycles,
            "causes": {
                cause: cycles for cause, cycles in
                sorted(run.profiler.stall_causes.items())
                if cause != "total"
            },
        },
        "noc": {
            "total_hops": run.profiler.total_hops,
            "links": links,
            "busiest": [{"link": link, "hops": hops}
                        for link, hops in busiest],
        },
        "cache": {
            "accesses": cache_stats.accesses,
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "writebacks": cache_stats.writebacks,
            "hit_rate": round(cache_stats.hit_rate, 4),
            "occupancy": machine.cache.occupancy(),
            "latency_histograms": {
                f"{op}:{outcome}": {str(stall): count
                                    for stall, count in sorted(hist.items())}
                for (op, outcome), hist in
                sorted(run.profiler.cache_latency.items())
            },
        },
        "vcycle_samples": [s.as_dict() for s in run.profiler.samples],
        "compile": {
            "phases_seconds": report.times.as_dict(),
            "cache": report.cache,
            "spans": [{"name": s.name,
                       "duration_ms": round(s.duration * 1e3, 3),
                       "depth": s.depth}
                      for s in run.tracer.spans],
        },
    }


# ---------------------------------------------------------------------------
# The human report.
# ---------------------------------------------------------------------------

def _switch_grid(profile: dict) -> list[list[int]]:
    gx, gy = profile["grid"]["x"], profile["grid"]["y"]
    grid = [[0] * gx for _ in range(gy)]
    for link, hops in profile["noc"]["links"].items():
        _kind, x, y = link.split(":")
        grid[int(y)][int(x)] += hops
    return grid


def render_report(profile: dict, native_vcycles: int | None = None) -> str:
    """The terminal bottleneck report for one profiled run;
    ``native_vcycles`` (codegen only) is how many Vcycles the native C
    tier executed."""
    result = profile["result"]
    out = []
    out.append(f"=== repro profile: {profile['design']} "
               f"(engine={profile['engine']}, "
               f"grid {profile['grid']['x']}x{profile['grid']['y']}) ===")
    out.append(f"status             : {result['status']}")
    out.append(f"Vcycles            : {result['vcycles']}")
    if native_vcycles is not None:
        out.append(f"native C tier      : {native_vcycles} Vcycles")
    total = result["compute_cycles"] + result["stall_cycles"]
    out.append(f"machine cycles     : {total} "
               f"({result['compute_cycles']} compute, "
               f"{result['stall_cycles']} stalled)")
    rate = result["simulation_rate_khz"]
    if result["vcycles"] == 0 or total == 0:
        out.append("simulation rate    : n/a (no machine cycles executed)")
    else:
        out.append(f"simulation rate    : {rate:.1f} kHz "
                   f"@ {result['frequency_mhz']:g} MHz")

    # -- VCPL critical-core attribution ------------------------------
    vcpl = profile["vcpl"]
    out.append("")
    out.append(f"-- VCPL attribution (VCPL = {vcpl['vcpl']}) --")
    table = profile["cores"]["table"]
    ranked = sorted(table, key=lambda r: -r["schedule_length"])[:6]
    bars = {}
    for row in ranked:
        label = f"core {row['core']} ({row['x']},{row['y']})"
        bars[label] = row["schedule_length"]
    out.append(bar_chart(bars, title="top cores by schedule length "
                                     "(body + receive epilogue)",
                         unit=" cyc"))
    if ranked:
        crit = ranked[0]
        slack = vcpl["vcpl"] - crit["schedule_length"]
        out.append(f"critical core      : {crit['core']} at "
                   f"({crit['x']},{crit['y']}), schedule "
                   f"{crit['schedule_length']} of VCPL {vcpl['vcpl']} "
                   f"({slack} cycles of writeback/latency slack)")

    # -- stall breakdown ---------------------------------------------
    out.append("")
    out.append("-- global stall breakdown --")
    causes = profile["stalls"]["causes"]
    if causes:
        out.append(bar_chart(causes, title="stall cycles by cause",
                             unit=" cyc"))
        if total:
            out.append(f"stalled fraction   : "
                       f"{result['stall_cycles'] / total:.1%} of "
                       f"machine cycles")
    else:
        out.append("no global stalls recorded")

    # -- NoC utilization ---------------------------------------------
    out.append("")
    out.append("-- NoC link utilization --")
    noc = profile["noc"]
    if noc["total_hops"]:
        out.append(heatmap(_switch_grid(profile),
                           title=f"hops per switch "
                                 f"(total {noc['total_hops']} hops, "
                                 f"{result['messages']} messages)",
                           unit=" hops"))
        busiest = ", ".join(f"{b['link']}={b['hops']}"
                            for b in noc["busiest"][:4])
        out.append(f"busiest links      : {busiest}")
    else:
        out.append("no messages crossed the torus")

    # -- cache --------------------------------------------------------
    cache = profile["cache"]
    out.append("")
    out.append("-- privileged-core cache --")
    if cache["accesses"]:
        out.append(f"accesses           : {cache['accesses']} "
                   f"({cache['hit_rate']:.1%} hit rate, "
                   f"{cache['misses']} misses, "
                   f"{cache['writebacks']} writebacks)")
        for key, hist in cache["latency_histograms"].items():
            points = ", ".join(f"{stall}cyc x{count}"
                               for stall, count in hist.items())
            out.append(f"  {key:<12s}: {points}")
    else:
        out.append("no global memory traffic")

    # -- compile phases ----------------------------------------------
    phases = {k: v for k, v in
              profile["compile"]["phases_seconds"].items()
              if k != "total" and v > 0}
    if phases:
        out.append("")
        out.append(bar_chart({k: round(v, 4) for k, v in phases.items()},
                             title="-- compile phases (seconds) --",
                             unit=" s"))
    return "\n".join(out)
