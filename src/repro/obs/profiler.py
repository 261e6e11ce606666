"""Per-core / per-Vcycle / per-link profiling counters.

A :class:`Profiler` is an *observer* the machine calls into when one is
attached (``Machine(..., profiler=...)``).  The contract, enforced by
``tests/test_obs_perturbation.py``, is that attaching a profiler never
changes anything observable - same Vcycle count, displays, machine-wide
:class:`~repro.machine.grid.PerfCounters`, cache statistics, registers
and scratchpads, under all three engines.  With no profiler attached
the machine's hot loops are untouched (the only cost is an
``is None`` check per Vcycle / per global access), which is what keeps
the fast engine's zero-observer overhead within the budget measured by
``benchmarks/bench_obs.py``.

What is collected:

* **per-core counters** (:class:`CoreCounters`) - instructions issued,
  Sends originated, receive slots consumed, cache accesses, exceptions
  raised, and the global stall cycles each core's privileged traffic
  charged to the whole grid;
* **per-Vcycle samples** (:class:`VcycleSample`) - compute/stall/
  instruction/message/exception deltas per Vcycle, kept bounded by
  pairwise compaction once ``sample_cap`` is reached (resolution
  halves, totals stay exact);
* **per-link hop utilization** - how many message-hops crossed each
  directed torus link ``("E"|"S", x, y)``;
* **per-cache-op latency histograms** - stall-cycle histograms keyed by
  ``(op, outcome)`` such as ``("read", "miss")``, plus a stall-cause
  breakdown (cache-hit / cache-miss / cache-writeback / exception).

The strict engine feeds these hooks per event; the fast engine adds the
statically-known per-Vcycle bulk in one call per Vcycle
(:meth:`Profiler.add_vcycle_bulk`), so profiling the fast engine costs
a few dict merges per Vcycle rather than per-event dispatch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class CoreCounters:
    """What one core did over the profiled run."""

    instructions: int = 0
    sends: int = 0
    receives: int = 0
    cache_accesses: int = 0
    exceptions: int = 0
    #: global stall cycles charged to the grid by this core's privileged
    #: accesses and exceptions (stalls freeze *everyone*; this is the
    #: attribution of who caused them).
    stall_caused: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "instructions": self.instructions,
            "sends": self.sends,
            "receives": self.receives,
            "cache_accesses": self.cache_accesses,
            "exceptions": self.exceptions,
            "stall_caused": self.stall_caused,
        }

    def load_dict(self, data: dict) -> None:
        self.instructions = int(data["instructions"])
        self.sends = int(data["sends"])
        self.receives = int(data["receives"])
        self.cache_accesses = int(data["cache_accesses"])
        self.exceptions = int(data["exceptions"])
        self.stall_caused = int(data["stall_caused"])


@dataclass
class VcycleSample:
    """Counter deltas over one Vcycle (or ``width`` merged Vcycles)."""

    start: int                  # first Vcycle index covered
    width: int                  # how many Vcycles merged into this sample
    compute_cycles: int
    stall_cycles: int
    instructions: int
    messages: int
    exceptions: int

    def merge(self, other: "VcycleSample") -> "VcycleSample":
        return VcycleSample(
            start=self.start, width=self.width + other.width,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            stall_cycles=self.stall_cycles + other.stall_cycles,
            instructions=self.instructions + other.instructions,
            messages=self.messages + other.messages,
            exceptions=self.exceptions + other.exceptions,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "start": self.start, "width": self.width,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "instructions": self.instructions,
            "messages": self.messages,
            "exceptions": self.exceptions,
        }


@dataclass
class Profiler:
    """Observation-only collector the machine reports into."""

    #: per-Vcycle samples beyond this count are pairwise-compacted
    #: (bounded memory on million-Vcycle runs; totals stay exact).
    sample_cap: int = 4096

    cores: dict[int, CoreCounters] = field(default_factory=dict)
    links: Counter = field(default_factory=Counter)
    samples: list[VcycleSample] = field(default_factory=list)
    #: (op, outcome) -> Counter of stall-cycle latencies, e.g.
    #: ("read", "hit") -> {24: 310}
    cache_latency: dict[tuple[str, str], Counter] = field(
        default_factory=dict)
    stall_causes: Counter = field(default_factory=Counter)
    total_hops: int = 0
    grid: tuple[int, int] | None = None

    # -- attachment ----------------------------------------------------
    def attach(self, machine) -> None:
        """Called by ``Machine.__init__`` so reports know the topology."""
        self.grid = (machine.config.grid_x, machine.config.grid_y)

    def core(self, cid: int) -> CoreCounters:
        counters = self.cores.get(cid)
        if counters is None:
            counters = self.cores[cid] = CoreCounters()
        return counters

    # -- per-event hooks (strict engine) -------------------------------
    def record_instruction(self, cid: int) -> None:
        self.core(cid).instructions += 1

    def record_receive(self, cid: int) -> None:
        self.core(cid).receives += 1

    def record_message(self, src: int, dst: int, route) -> None:
        """One Send: ``route`` is the list of directed links traversed."""
        self.core(src).sends += 1
        self.links.update(route)
        self.total_hops += len(route)

    def record_cache_op(self, cid: int, op: str, outcome: str,
                        stall: int, writeback_stall: int = 0) -> None:
        core = self.core(cid)
        core.cache_accesses += 1
        core.stall_caused += stall
        hist = self.cache_latency.get((op, outcome))
        if hist is None:
            hist = self.cache_latency[(op, outcome)] = Counter()
        hist[stall] += 1
        if outcome == "hit":
            self.stall_causes["cache-hit"] += stall
        else:
            self.stall_causes["cache-miss"] += stall - writeback_stall
            if writeback_stall:
                self.stall_causes["cache-writeback"] += writeback_stall
        self.stall_causes["total"] += stall

    def record_exception(self, cid: int, stall: int) -> None:
        core = self.core(cid)
        core.exceptions += 1
        core.stall_caused += stall
        self.stall_causes["exception"] += stall
        self.stall_causes["total"] += stall

    # -- per-Vcycle hooks (all engines) --------------------------------
    def end_vcycle(self, index: int, compute: int, stall: int,
                   instructions: int, messages: int,
                   exceptions: int) -> None:
        """One Vcycle's machine-wide counter deltas (from the engine
        dispatcher, so it covers every engine alike)."""
        self.samples.append(VcycleSample(
            start=index, width=1, compute_cycles=compute,
            stall_cycles=stall, instructions=instructions,
            messages=messages, exceptions=exceptions))
        if len(self.samples) > self.sample_cap:
            merged = [self.samples[i].merge(self.samples[i + 1])
                      if i + 1 < len(self.samples) else self.samples[i]
                      for i in range(0, len(self.samples), 2)]
            self.samples = merged

    def add_vcycle_bulk(self, core_instr: dict[int, int],
                        core_sends: dict[int, int],
                        core_recvs: dict[int, int],
                        link_hops) -> None:
        """The fast engine's statically-known per-Vcycle contribution."""
        for cid, n in core_instr.items():
            if n:
                self.core(cid).instructions += n
        for cid, n in core_sends.items():
            if n:
                self.core(cid).sends += n
        for cid, n in core_recvs.items():
            if n:
                self.core(cid).receives += n
        self.links.update(link_hops)
        self.total_hops += sum(link_hops.values())

    # -- checkpoint hooks ----------------------------------------------
    def state_dict(self) -> dict:
        """Everything collected so far as plain JSON data, so a profile
        spanning checkpoint/resume segments equals the single-run
        profile (tuple keys flattened into sorted lists)."""
        return {
            "cores": {str(cid): c.as_dict()
                      for cid, c in self.cores.items()},
            "links": [[kind, x, y, hops] for (kind, x, y), hops
                      in sorted(self.links.items())],
            "samples": [s.as_dict() for s in self.samples],
            "cache_latency": [
                [op, outcome, [[stall, n]
                               for stall, n in sorted(hist.items())]]
                for (op, outcome), hist
                in sorted(self.cache_latency.items())],
            "stall_causes": {k: v for k, v
                             in sorted(self.stall_causes.items())},
            "total_hops": self.total_hops,
        }

    def load_state(self, state: dict) -> None:
        """Inject a :meth:`state_dict` image, replacing anything
        collected so far (``sample_cap`` and ``grid`` stay as
        configured/attached)."""
        self.cores = {}
        for cid_str, data in state["cores"].items():
            counters = CoreCounters()
            counters.load_dict(data)
            self.cores[int(cid_str)] = counters
        self.links = Counter({(str(kind), int(x), int(y)): int(hops)
                              for kind, x, y, hops in state["links"]})
        self.samples = [VcycleSample(**{k: int(v) for k, v in s.items()})
                        for s in state["samples"]]
        self.cache_latency = {
            (str(op), str(outcome)): Counter(
                {int(stall): int(n) for stall, n in hist})
            for op, outcome, hist in state["cache_latency"]}
        self.stall_causes = Counter(
            {str(k): int(v) for k, v in state["stall_causes"].items()})
        self.total_hops = int(state["total_hops"])

    # -- aggregate views -----------------------------------------------
    def totals(self) -> dict[str, int]:
        """Machine-wide sums of the per-core counters (the invariant
        checks compare these against ``PerfCounters``)."""
        out = {"instructions": 0, "sends": 0, "receives": 0,
               "cache_accesses": 0, "exceptions": 0, "stall_caused": 0}
        for core in self.cores.values():
            out["instructions"] += core.instructions
            out["sends"] += core.sends
            out["receives"] += core.receives
            out["cache_accesses"] += core.cache_accesses
            out["exceptions"] += core.exceptions
            out["stall_caused"] += core.stall_caused
        return out

    def switch_utilization(self) -> dict[tuple[int, int], int]:
        """Outgoing hop count per torus switch (E + S links leaving
        (x, y)) - the quantity the report heatmaps."""
        out: dict[tuple[int, int], int] = {}
        for (kind, x, y), hops in self.links.items():
            out[(x, y)] = out.get((x, y), 0) + hops
        return out
