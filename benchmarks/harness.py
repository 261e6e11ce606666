"""Shared infrastructure for the benchmark suite.

Each ``benchmarks/test_*.py`` regenerates one table or figure of the
paper's evaluation (see DESIGN.md's experiment index).  Compilations of
the nine designs are cached here so the many experiments that need them
(Table 3, Fig. 7, Fig. 9/10, Table 8) pay for each compile once per
session.
"""

from __future__ import annotations

import functools

from repro.baseline import (
    best_mt_rate_khz,
    instruction_estimate,
    macrotasks_for,
    modeled_serial_rate_khz,
)
from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import PROTOTYPE
from repro.perfmodel import EPYC_7V73X, I7_9700K, XEON_8272CL

#: Paper-measured frequency of the evaluated prototype (Table 2).
PROTOTYPE_MHZ = 475.0

#: Benchmarks in the paper's Table 3 column order.
BENCH_ORDER = ["vta", "mc", "noc", "mm", "rv32r", "cgra", "bc", "blur",
               "jpeg"]

PLATFORMS = {"i7": I7_9700K, "xeon": XEON_8272CL, "epyc": EPYC_7V73X}


#: In-session compile memo, keyed by the :func:`compile_design` arguments.
_COMPILED: dict[tuple, object] = {}


def _prototype_options(max_cores=None, merge_strategy="balanced",
                       enable_custom_functions=True) -> CompilerOptions:
    return CompilerOptions(
        config=PROTOTYPE,
        max_cores=max_cores,
        merge_strategy=merge_strategy,
        enable_custom_functions=enable_custom_functions,
    )


def compile_design(name: str, max_cores: int | None = None,
                   merge_strategy: str = "balanced",
                   enable_custom_functions: bool = True):
    """Compile one registry design for the prototype grid (cached)."""
    key = (name, max_cores, merge_strategy, enable_custom_functions)
    if key not in _COMPILED:
        _COMPILED[key] = compile_circuit(
            circuit_of(name),
            _prototype_options(max_cores, merge_strategy,
                               enable_custom_functions))
    return _COMPILED[key]


@functools.lru_cache(maxsize=None)
def circuit_of(name: str):
    return DESIGNS[name].build()


@functools.lru_cache(maxsize=None)
def macrotask_graph(name: str):
    return macrotasks_for(circuit_of(name))


@functools.lru_cache(maxsize=None)
def verilator_rates(name: str, platform_key: str) -> dict[str, float]:
    """Modeled serial (S) and best multithreaded (MT) rates in kHz."""
    platform = PLATFORMS[platform_key]
    circuit = circuit_of(name)
    serial = modeled_serial_rate_khz(circuit, platform)
    threads, mt = best_mt_rate_khz(macrotask_graph(name), platform)
    return {"S": serial, "MT": mt, "threads": threads}


#: Core counts swept for Fig. 7 (and reused by Table 3's best-of sweep).
CORE_SWEEP = (1, 4, 9, 16, 36, 100, 225)


@functools.lru_cache(maxsize=None)
def vcpl_sweep(name: str) -> dict[int, dict]:
    """Compiler-predicted VCPL per core budget (Fig. 7 methodology)."""
    from repro.compiler import CompilerError
    out = {}
    for cores in CORE_SWEEP:
        try:
            report = compile_design(name, max_cores=cores).report
        except CompilerError:
            continue  # does not fit that few cores (imem overflow)
        out[cores] = {
            "vcpl": report.vcpl,
            "cores_used": report.cores_used,
            "rate": report.simulated_rate_khz(PROTOTYPE_MHZ),
        }
    return out


def best_manticore(name: str) -> dict:
    """Best (rate, cores, vcpl) over the core sweep."""
    sweep = vcpl_sweep(name)
    best_budget = max(sweep, key=lambda c: sweep[c]["rate"])
    entry = sweep[best_budget]
    return {"rate": entry["rate"], "cores": entry["cores_used"],
            "vcpl": entry["vcpl"], "budget": best_budget}


def print_table(title: str, headers: list[str],
                rows: list[list], fmt: str = "10.2f") -> None:
    """Render one experiment table to stdout (the bench deliverable)."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 10) for h in headers]
    print("  " + "".join(f"{h:>{w + 2}}" for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:>{w + 2}{fmt[2:]}}")
            else:
                cells.append(f"{str(value):>{w + 2}}")
        print("  " + "".join(cells))


#: Paper Table 3 reference numbers (kHz) for shape comparison in
#: EXPERIMENTS.md.  (S, MT) per platform plus Manticore's 225-core rate.
PAPER_TABLE3 = {
    #        i7 S    i7 MT   xeon S  xeon MT  epyc S  epyc MT  manticore
    "vta":   (41.3, 160.2, 32.4, 94.9, 32.1, 146.9, 278.1),
    "mc":    (33.9, 127.2, 26.6, 68.9, 29.7, 120.8, 423.0),
    "noc":   (41.4, 80.5, 37.1, 41.5, 32.4, 106.0, 293.6),
    "mm":    (43.9, 83.0, 34.7, 52.3, 31.6, 95.2, 567.5),
    "rv32r": (96.6, 141.8, 97.3, 73.3, 109.2, 162.7, 221.0),
    "cgra":  (152.0, 146.2, 136.8, 74.3, 126.0, 167.8, 421.5),
    "bc":    (599.0, 354.4, 462.7, 190.6, 550.2, 370.6, 1562.0),
    "blur":  (726.7, 362.0, 532.6, 186.1, 430.5, 406.9, 1015.0),
    "jpeg":  (4246.0, 700.7, 3233.0, 590.6, 3627.0, 1239.0, 214.2),
}

#: Paper Table 4: Send counts (thousands), L vs B.
PAPER_TABLE4 = {
    "mm": (23.3, 8.5), "mc": (23.6, 3.9), "vta": (13.6, 9.8),
    "noc": (25.6, 16.6), "cgra": (18.9, 7.4), "rv32r": (16.9, 2.8),
    "bc": (7.7, 3.1), "blur": (5.0, 2.7), "jpeg": (1.0, 0.1),
}


#: Paper Table 8: |E|, |V|, Verilog LoC, and compile times (s).
PAPER_TABLE8 = {
    "vta":   (56142, 7037, 190818, 929, 153),
    "mc":    (52330, 9182, 30353, 777, 73),
    "noc":   (114364, 6927, 39363, 914, 203),
    "mm":    (89102, 6659, 64963, 518, 425),
    "rv32r": (60430, 4497, 31761, 357, 116),
    "cgra":  (57532, 4615, 104498, 468, 135),
    "bc":    (8135, 4630, 276, 143, 40),
    "blur":  (9649, 751, 3869, 42, 22),
    "jpeg":  (1005, 131, 6542, 16, 7),
}


def geomean(values: list[float]) -> float:
    import math
    return math.exp(sum(math.log(v) for v in values) / len(values))
