"""Ops, workloads and the seeded planner of the end-to-end benchmark.

An *op* is one design at one size on one grid with one Vcycle budget;
a *workload* is a list of ops, the cache state they start from, and the
way they are driven (plain ``Machine.run``, the checkpoint driver, or
the job server).  Everything here is data plus pure functions: the same
``--seed`` always yields the same plan, and the planner never changes
*which* ops run or how often - only their order and, for the server,
which tenant submits them - so every exact count (Vcycles, machine
cycles, instructions, publishes) is the same on every seed and only
host time varies from run to run.

Sizing rule.  The driver runs each workload ~23 times and every run
pays its own set-up, so the designs of the three *warm* workloads are
family variants whose cold kernel build is cheap (their whole prefill
is 7-9 s); ``cold-oneshot`` alone uses the registry's ``small`` and
``paper`` tiers, because the kernel build is what it measures.  See
README.md for the measured cost of every op and of the ops left out.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Every workload times this engine ("`strict` is the reference,
#: `codegen` the product"); pins come from another lowering.
ENGINE = "codegen"

#: Ops whose pinned run is at most this long are pinned with `strict`,
#: longer ones with `fast` (strict needs minutes for 60k Vcycles).
STRICT_PIN_LIMIT = 2500

CHECKPOINT_EVERY = 250
SERVE_CLIENTS = 4
SERVE_WORKERS = 2
ZIPF_S = 1.1


@dataclass(frozen=True)
class Op:
    """One design instance; built by :meth:`build` from circuit source."""

    id: str
    family: str = ""          # key of repro.designs.DESIGNS ("" = Verilog)
    scale: str = ""           # named size tier (DesignInfo.build_at)
    params: tuple = ()        # builder kwargs, when not a named tier
    verilog: str = ""         # repo-relative source path
    grid: int = 8
    budget: int = 0           # Vcycle budget, past the design's $finish

    def build(self):
        if self.verilog:
            from repro.netlist.verilog import parse_verilog
            with open(os.path.join(REPO_ROOT, self.verilog)) as handle:
                return parse_verilog(handle.read())
        from repro.designs import DESIGNS
        info = DESIGNS[self.family]
        if self.scale:
            return info.build_at(self.scale)
        return info.builder(**dict(self.params))

    def config(self):
        from repro.machine.config import MachineConfig
        return MachineConfig(grid_x=self.grid, grid_y=self.grid)


def _tier(family: str, scale: str, grid: int = 8) -> Op:
    from repro.designs import DESIGNS
    return Op(f"{family}@{scale}", family=family, scale=scale, grid=grid,
              budget=DESIGNS[family].cycles_at(scale))


def _variant(op_id: str, family: str, budget: int, **params) -> Op:
    return Op(op_id, family=family, params=tuple(sorted(params.items())),
              budget=budget)


def _verilog(op_id: str, path: str, budget: int) -> Op:
    return Op(op_id, verilog=path, budget=budget)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "oneshot" | "ckpt" | "serve"
    warm: bool                # caches pre-filled by set-up, else empty
    ops: tuple[str, ...]      # op ids, repeats allowed; for "serve" the
                              # distinct designs in zipf rank order
    quick: tuple[str, ...]    # the two ops of ``--quick``
    jobs: int = 0             # serve only
    quick_jobs: int = 0


def _repeat(*counts: tuple[str, int]) -> tuple[str, ...]:
    """Op ids, each repeated: one fresh machine instance per entry."""
    return tuple(op_id for op_id, n in counts for _ in range(n))


def op_table() -> dict[str, Op]:
    """Every op the workloads name (imports ``repro`` for tier budgets)."""
    ops = [
        # cold-oneshot: the registry tiers a first `repro run` meets.
        _tier("vta", "small"), _tier("mc", "small"),
        _tier("rv32r", "small"), _tier("cgra", "small"),
        _tier("blur", "small"), _tier("jpeg", "small"),
        _tier("cgra", "paper", grid=15), _tier("blur", "paper", grid=15),
        _verilog("uart_loopback.v", "examples/uart_loopback.v", 384),
        _verilog("packet_switch.v", "examples/packet_switch.v", 64),
        # long horizons, sized so that one machine instance runs 0.2-1 s
        # of steady state (see the repeat counts in the workloads).
        _variant("bc-long", "bc", 32768 + 64, rounds=4, difficulty_bits=20,
                 max_cycles=32768),
        _variant("mc-long", "mc", 31000, walkers=8, steps=30000),
        _variant("rv32r-long", "rv32r", 34000, num_cores=4,
                 iterations=2000),
        _variant("cgra-long", "cgra", 31000, rows=6, cols=6, steps=30000),
        _variant("jpeg-long", "jpeg", 61000, num_bits=60000),
        # serve-closed: short jobs, ~0.05 s of simulation each.
        _variant("mc-job", "mc", 400, walkers=8, steps=64),
        _variant("rv32r-job", "rv32r", 8000, num_cores=4, iterations=400),
        _variant("bc-job", "bc", 8500, rounds=4, max_cycles=8192),
        _variant("mm-job", "mm", 400, n=4),
    ]
    return {op.id: op for op in ops}


#: Why each workload exists is declared in BENCHMARK.json (``why``) and
#: argued in README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # empty caches: compiler + kernel build dominate
    Workload(
        "cold-oneshot",
        kind="oneshot", warm=False,
        ops=("vta@small", "mc@small", "rv32r@small", "cgra@small",
             "blur@small", "jpeg@small", "cgra@paper", "blur@paper",
             "uart_loopback.v", "packet_switch.v"),
        quick=("blur@small", "packet_switch.v")),
    # pre-filled caches: the trusted bulk loop dominates
    Workload(
        "warm-longrun",
        kind="oneshot", warm=True,
        ops=_repeat(("bc-long", 6), ("mc-long", 5), ("rv32r-long", 6),
                    ("cgra-long", 1), ("jpeg-long", 4)),
        quick=("cgra-long", "jpeg-long")),
    # the same programs through the checkpoint driver
    Workload(
        "ckpt-longrun",
        kind="ckpt", warm=True,
        ops=_repeat(("bc-long", 2), ("mc-long", 3), ("rv32r-long", 2),
                    ("cgra-long", 1), ("jpeg-long", 2)),
        quick=("cgra-long", "cgra-long")),     # a repeat: its own store
    # short jobs: queueing, dedupe and marshalling dominate
    Workload(
        "serve-closed",
        kind="serve", warm=True,
        ops=("jpeg@small", "blur@small", "cgra@small", "vta@small",
             "mc-job", "rv32r-job", "bc-job", "mm-job"),
        quick=("jpeg@small", "blur@small"),
        jobs=320, quick_jobs=20),
)}


def zipf_quotas(n_designs: int, jobs: int, s: float = ZIPF_S) -> list[int]:
    """Jobs per design rank, ``1/rank**s`` shares of ``jobs`` by largest
    remainder: a fixed multiset, so the work is the same on every seed."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n_designs)]
    total = sum(weights)
    exact = [jobs * w / total for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(n_designs),
                          key=lambda i: (exact[i] - quotas[i], -i),
                          reverse=True)
    for i in by_remainder[:jobs - sum(quotas)]:
        quotas[i] += 1
    return quotas


def plan(workload: Workload, seed: int, quick: bool = False) -> dict:
    """The seeded plan of one pass: op order, and for the server the
    submission sequence of each tenant.  Plain JSON data."""
    op_ids = list(workload.quick if quick else workload.ops)
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.kind != "serve":
        rng.shuffle(op_ids)
        return {"workload": workload.name, "seed": seed, "ops": op_ids}
    jobs = workload.quick_jobs if quick else workload.jobs
    quotas = zipf_quotas(len(op_ids), jobs)
    sequence = [op_id for op_id, n in zip(op_ids, quotas) for _ in range(n)]
    rng.shuffle(sequence)
    tenants = [{"tenant": f"tenant-{t}", "priority": 2 if t == 0 else 1,
                "jobs": sequence[t::SERVE_CLIENTS]}
               for t in range(SERVE_CLIENTS)]
    return {"workload": workload.name, "seed": seed, "ops": op_ids,
            "quotas": dict(zip(op_ids, quotas)), "tenants": tenants}
