"""Recompute ``pins.json``: what every op of the benchmark must produce.

Per op: circuit fingerprint, netlist op count, ``$finish`` Vcycle,
``state_digest``, total machine cycles and the simulated rate at
475 MHz.  The benchmark times ``engine="codegen"``; the pins come from a
different lowering - ``strict`` for runs of at most 2 500 Vcycles,
``fast`` for the long horizons - and are cross-checked against
``src/repro/workloads/manifest.json`` wherever an op is also a registry
workload (same source; the digest too when the grid is pinned there).

    PYTHONPATH=src python benchmarks/e2e/pin.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import STRICT_PIN_LIMIT, WORKLOADS, op_table  # noqa: E402

PINS_PATH = os.path.join(HERE, "pins.json")


def pin_op(op) -> dict:
    from repro.compiler.driver import CompilerOptions, compile_circuit
    from repro.machine.grid import Machine
    from repro.serve.jobs import state_digest
    engine = "strict" if op.budget <= STRICT_PIN_LIMIT else "fast"
    circuit = op.build()
    config = op.config()
    program = compile_circuit(circuit, CompilerOptions(config=config)).program
    machine = Machine(program, config, engine=engine)
    result = machine.run(op.budget)
    if not result.finished:
        raise SystemExit(f"{op.id}: no $finish within {op.budget} Vcycles "
                         f"on {engine}")
    return {"engine": engine, "grid": f"{op.grid}x{op.grid}",
            "fingerprint": circuit.fingerprint(), "ops": len(circuit.ops),
            "finished": True, "vcycles": result.vcycles,
            "cycles": result.counters.total_cycles,
            "sim_khz": result.simulation_rate_khz(475.0),
            "digest": state_digest(machine)}


def cross_check(op, pin: dict, manifest: dict) -> str | None:
    """Compare with the registry manifest where the op is also there."""
    source = op.verilog or (f"{op.family}@{op.scale}" if op.scale else None)
    entry = manifest.get(source)
    if entry is None:
        return None
    if entry["fingerprint"] != pin["fingerprint"]:
        raise SystemExit(f"{op.id}: fingerprint differs from manifest "
                         f"workload {entry['name']}")
    pinned = entry["digests"].get(pin["grid"])
    if pinned is not None and entry["cycles"] == op.budget \
            and pinned != pin["digest"]:
        raise SystemExit(f"{op.id}: digest differs from manifest workload "
                         f"{entry['name']} at {pin['grid']}")
    return entry["name"]


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    from repro.workloads.registry import manifest_path
    with open(manifest_path()) as handle:
        manifest = {w["source"]: w for w in json.load(handle)["workloads"]}
    ops = op_table()
    used = sorted({op_id for w in WORKLOADS.values() for op_id in w.ops})
    pins = {}
    for op_id in used:
        pin = pin_op(ops[op_id])
        pin["manifest"] = cross_check(ops[op_id], pin, manifest)
        pins[op_id] = pin
        print(f"{op_id}: {pin['vcycles']} Vcycles on {pin['engine']}, "
              f"digest {pin['digest'][:12]}"
              + (f", agrees with manifest {pin['manifest']}"
                 if pin["manifest"] else ""), flush=True)
    with open(PINS_PATH, "w") as handle:
        json.dump({"format": "repro-e2e-pins/v1",
                   "ops": {k: pins[k] for k in sorted(pins)}},
                  handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
