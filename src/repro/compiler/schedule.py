"""Instruction scheduling: hazards, Send routing, and Vcycle assembly
(paper SS6.3).

The scheduler performs "an abstract cycle-accurate simulation of one
Vcycle using a model of a core's pipeline and the NoC": a global
cycle-by-cycle list schedule across all cores at once.

Timing contract (shared with :mod:`repro.machine`):

* an instruction issued at cycle ``t`` makes its register result readable
  by instructions issued at ``t + result_latency`` or later;
* ``AddCarry``/``SetCarry`` forward the carry bit with ``carry_latency``
  (the DSP cascade), and all carry ops of one core execute in program
  order so chains never interleave;
* persistent registers (state currents, constants, received values) read
  their Vcycle-start value: writers of those registers are ordered after
  every reader (WAR edges);
* a ``Send`` issued at ``t`` occupies route link ``j`` at
  ``t + inject + j`` and the target's ejection port at arrival; bufferless
  switching means a (link, cycle) may be reserved once (paper SS5.2);
* messages become receive-slot ``Set``s: the k-th message (by arrival) of
  a core executes at ``epilogue_start + k``, so arrival must precede that
  slot.

Current/next coalescing (paper SS6.3, [49]): a commit ``Mov(cur, next)``
whose next value is computed locally is dissolved - the defining
instruction writes ``cur`` directly and WAR edges keep old-value readers
ahead of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import instructions as isa
from ..isa.program import ProgramImage
from ..machine.config import MachineConfig
from .lir import Mov, PLocalStore, duration_of, lir_is_privileged
from .lower import CompilerError


@dataclass
class ScheduledCore:
    """One core's schedule, pre register allocation."""

    core_id: int
    pid: int
    items: list[tuple[int, isa.Instruction]] = field(default_factory=list)
    epilogue_start: int = 0
    epilogue_length: int = 0
    #: coalescing substitution applied at emission: old vreg -> new vreg
    rename: dict[str, str] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        compute = sends = 0
        custom = 0
        slots = 0
        for _, instr in self.items:
            slots += duration_of(instr)
            if isinstance(instr, isa.Send):
                sends += 1
            elif isinstance(instr, isa.Custom):
                custom += 1
                compute += 1
            else:
                compute += duration_of(instr)
        return {
            "compute": compute,
            "send": sends,
            "custom": custom,
            "nop": self.epilogue_start - slots,
        }


@dataclass
class ScheduledProgram:
    """All cores scheduled; input to register allocation / emission."""

    image: ProgramImage
    config: MachineConfig
    cores: dict[int, ScheduledCore]
    placement: dict[int, int]   # pid -> core id
    vcpl: int
    send_count: int

    def straggler(self) -> ScheduledCore:
        return max(self.cores.values(),
                   key=lambda c: c.epilogue_start + c.epilogue_length)

    def breakdown(self) -> dict[str, int]:
        """Straggler Vcycle breakdown (Fig 9/10): compute/send/nop/custom."""
        core = self.straggler()
        counts = core.counts()
        counts["nop"] += self.vcpl - (core.epilogue_start
                                      + core.epilogue_length)
        counts["vcpl"] = self.vcpl
        return counts


class _CoreState:
    """Per-core scheduling state."""

    def __init__(self, core_id: int, pid: int, body: list[isa.Instruction],
                 persistent: set, config: MachineConfig,
                 allow_coalesce: bool = True) -> None:
        self.core_id = core_id
        self.pid = pid
        self.body = body
        self.config = config
        self.persistent = persistent
        self.rename: dict[str, str] = {}
        self.allow_coalesce = allow_coalesce
        self._build_dependences()
        if not self._compute_topo_and_height():
            if not allow_coalesce:
                raise CompilerError(
                    f"cyclic scheduling constraints on core {core_id}"
                )
            # Current/next coalescing created a WAR/RAW cycle (an
            # instruction consumes both the old and the new value of a
            # state register); retry with plain commit Movs.
            self.rename = {}
            self.allow_coalesce = False
            self._build_dependences()
            if not self._compute_topo_and_height():
                raise CompilerError(
                    f"cyclic scheduling constraints on core {core_id}"
                )
        self.issue_time: dict[int, int] = {}
        self.busy_until = 0
        self.last_slot_end = 0
        self.last_write_issue = -1

    # ------------------------------------------------------------------
    def _build_dependences(self) -> None:
        body = self.body
        cfg = self.config
        defs: dict[str, int] = {}
        for i, instr in enumerate(body):
            for reg in instr.writes():
                defs[reg] = i

        # Coalescing: dissolve Mov(cur, nxt) where nxt is a locally
        # computed temp defined by a non-Mov instruction.
        drop: set[int] = set()
        renamed_next: set[str] = set()
        if self.allow_coalesce:
            for i, instr in enumerate(body):
                if not isinstance(instr, Mov):
                    continue
                cur, nxt = instr.rd, instr.rs
                d = defs.get(nxt)
                if (d is None or isinstance(body[d], Mov)
                        or nxt in renamed_next or nxt in self.persistent):
                    continue
                drop.add(i)
                renamed_next.add(nxt)
                self.rename[nxt] = cur
                defs[cur] = d  # the defining instruction now writes cur

        self.drop = drop
        self.order = [i for i in range(len(body)) if i not in drop]

        # Edges: consumer-index -> list of (producer-index, min delay).
        preds: dict[int, list[tuple[int, int]]] = {i: [] for i in self.order}
        L = cfg.result_latency

        # Writers of persistent registers (for WAR edges).
        persistent_writer: dict[str, int] = {}
        for i in self.order:
            instr = body[i]
            target = None
            if isinstance(instr, Mov) and instr.rd in self.persistent:
                target = instr.rd
            else:
                for reg in instr.writes():
                    mapped = self.rename.get(reg, reg)
                    if mapped in self.persistent:
                        target = mapped
            if target is not None:
                persistent_writer[target] = i

        for i in self.order:
            instr = body[i]
            for reg in instr.reads():
                if reg in self.persistent:
                    continue  # Vcycle-start value; WAR handled below
                d = defs.get(reg)
                if d is not None and d != i and d not in self.drop:
                    preds[i].append((d, L))
                elif d is not None and d in self.drop:
                    # read of a Mov result that was dissolved: depend on
                    # the renamed defining instruction
                    src = self.rename.get(reg)
                    dd = defs.get(src) if src else None
                    if dd is not None and dd != i:
                        preds[i].append((dd, L))

        # Reads of renamed temps now target the real definer: handled
        # above because defs[cur] was updated; reads of `nxt` still map
        # through defs[nxt] which points at the definer too.

        # WAR: every reader of a persistent register precedes its writer.
        for i in self.order:
            instr = body[i]
            for reg in instr.reads():
                mapped = self.rename.get(reg, reg)
                w = persistent_writer.get(mapped if mapped in
                                          self.persistent else reg)
                if w is not None and w != i:
                    # Reader wants the old value only if it is not a RAW
                    # consumer of the writer (renamed reads are RAW).
                    if reg in self.persistent:
                        preds[w].append((i, duration_of(body[i])))

        # Carry serialization.
        carry_ops = [i for i in self.order
                     if isinstance(body[i], (isa.SetCarry, isa.AddCarry))]
        for a, b in zip(carry_ops, carry_ops[1:]):
            preds[b].append((a, cfg.carry_latency))

        # Local memory: loads before stores, stores in order.
        loads = [i for i in self.order
                 if isinstance(body[i], isa.LocalLoad)]
        stores = [i for i in self.order if isinstance(body[i], PLocalStore)]
        if stores:
            first_store = stores[0]
            for ld in loads:
                preds[first_store].append((ld, duration_of(body[ld])))
            for a, b in zip(stores, stores[1:]):
                preds[b].append((a, duration_of(body[a])))

        # Privileged chain: strict program order (globally stalling ops
        # must retain effect order; also covers global-memory ordering).
        priv = [i for i in self.order if lir_is_privileged(body[i])]
        for a, b in zip(priv, priv[1:]):
            preds[b].append((a, duration_of(body[a])))

        # Movs in program order (the parallel-copy sequence is order
        # sensitive).
        movs = [i for i in self.order if isinstance(body[i], Mov)]
        for a, b in zip(movs, movs[1:]):
            preds[b].append((a, duration_of(body[a])))

        self.preds = preds
        succs: dict[int, list[tuple[int, int]]] = {i: [] for i in self.order}
        for i, plist in preds.items():
            for p, delay in plist:
                succs[p].append((i, delay))
        self.succs = succs

    def _compute_topo_and_height(self) -> bool:
        """Kahn topological sort; False if the constraint graph is cyclic.
        On success sets ``self.height`` (delay-weighted critical path to
        any terminal - the list-scheduling priority)."""
        indeg = {i: len(self.preds[i]) for i in self.order}
        ready = [i for i in self.order if indeg[i] == 0]
        topo: list[int] = []
        while ready:
            i = ready.pop()
            topo.append(i)
            for j, _ in self.succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(topo) != len(self.order):
            return False
        height: dict[int, int] = {}
        for i in reversed(topo):
            height[i] = max((height[j] + delay for j, delay in self.succs[i]),
                            default=0)
        self.height = height
        return True

    # ------------------------------------------------------------------
    def ready_at(self, i: int, now: int) -> bool:
        for p, delay in self.preds[i]:
            t = self.issue_time.get(p)
            if t is None or t + delay > now:
                return False
        return True


def _place(image: ProgramImage, pids: list[int],
           config: MachineConfig) -> dict[int, int]:
    """Process placement: privileged process (pid 0) on core 0, the rest
    row-major - except on heterogeneous grids (paper SSA.7), where
    processes that touch a scratchpad must land on the first
    ``config.scratchpad_cores`` cores."""
    limit = config.scratchpad_cores
    if limit is None or limit >= config.num_cores:
        return {pid: i for i, pid in enumerate(pids)}
    if limit < 1:
        raise CompilerError("at least one scratchpad core is required "
                            "(the privileged core)")

    def needs_scratchpad(pid: int) -> bool:
        proc = image.processes[pid]
        if proc.scratch_init:
            return True
        return any(isinstance(i, (isa.LocalLoad, isa.LocalStore,
                                  PLocalStore))
                   for i in proc.body)

    memory_pids = [pid for pid in pids if needs_scratchpad(pid) or pid == 0]
    plain_pids = [pid for pid in pids if pid not in memory_pids]
    if len(memory_pids) > limit:
        raise CompilerError(
            f"{len(memory_pids)} scratchpad-using processes exceed the "
            f"{limit} scratchpad-equipped cores of this heterogeneous grid"
        )
    placement: dict[int, int] = {}
    for i, pid in enumerate(memory_pids):
        placement[pid] = i
    free = [c for c in range(config.num_cores)
            if c not in set(placement.values())]
    for pid, core in zip(plain_pids, free):
        placement[pid] = core
    return placement


def schedule(image: ProgramImage, config: MachineConfig,
             coalesce_state: bool = True) -> ScheduledProgram:
    """Schedule every process of ``image`` onto the grid."""
    pids = sorted(image.processes)
    if len(pids) > config.num_cores:
        raise CompilerError(
            f"{len(pids)} processes exceed the {config.num_cores}-core grid"
        )
    placement = _place(image, pids, config)

    # Per-core scheduling state (dependence graph, coalesce analysis,
    # topo order, critical-path heights), built in pid order ahead of
    # the global cycle-by-cycle NoC simulation (links are shared).
    cores: dict[int, _CoreState] = {}
    for pid in pids:
        proc = image.processes[pid]
        persistent = set(proc.reg_init) | set(
            image.receive_regs.get(pid, ()))
        cores[placement[pid]] = _CoreState(
            placement[pid], pid, proc.body, persistent, config,
            allow_coalesce=coalesce_state)

    import heapq

    link_busy: set[tuple] = set()          # ((kind, x, y) | ("EJ", core), cycle)
    arrivals: dict[int, list[int]] = {c: [] for c in cores}

    # Incremental readiness: per core, a heap of items whose dependences
    # are all issued, keyed by (earliest issue cycle, -height); plus an
    # "available now" heap keyed by -height.  Route results are cached.
    route_cache: dict[tuple[int, int], list] = {}

    def cached_route(src: int, dst: int):
        key = (src, dst)
        route = route_cache.get(key)
        if route is None:
            route = config.route(src, dst)
            route_cache[key] = route
        return route

    for cid, st in cores.items():
        st.indeg = {i: len(st.preds[i]) for i in st.order}
        st.earliest = {i: 0 for i in st.order}
        st.waiting = [(0, -st.height[i], i) for i in st.order
                      if st.indeg[i] == 0]
        heapq.heapify(st.waiting)
        st.avail = []  # heap of (-height, i)

    now = 0
    total_instrs = sum(len(st.order) for st in cores.values())
    scheduled = 0
    max_cycles = (total_instrs * (config.result_latency
                                  + config.grid_x + config.grid_y + 8)
                  + 4096)
    send_count = 0
    active = list(cores.items())

    while scheduled < total_instrs:
        if now > max_cycles:
            raise CompilerError("scheduler failed to converge (deadlock?)")
        for cid, st in active:
            waiting = st.waiting
            avail = st.avail
            while waiting and waiting[0][0] <= now:
                t, negh, i = heapq.heappop(waiting)
                heapq.heappush(avail, (negh, i))
            if st.busy_until > now or not avail:
                continue
            # Pick the highest-priority issueable item; Sends may be
            # NoC-blocked, in which case try the next candidates.
            chosen = None
            deferred = []
            while avail:
                negh, i = heapq.heappop(avail)
                instr = st.body[i]
                if isinstance(instr, isa.Send):
                    target_core = placement[instr.target]
                    route = cached_route(cid, target_core)
                    t0 = now + config.noc_inject_latency
                    slots = [(link, t0 + j)
                             for j, link in enumerate(route)]
                    arrival = t0 + len(route) + config.noc_eject_latency
                    slots.append((("EJ", target_core), arrival))
                    if any(s in link_busy for s in slots):
                        deferred.append((negh, i))
                        continue
                    link_busy.update(slots)
                    arrivals[target_core].append(arrival)
                    send_count += 1
                chosen = i
                break
            for item in deferred:
                heapq.heappush(avail, item)
            if chosen is None:
                continue
            i = chosen
            st.issue_time[i] = now
            st.busy_until = now + duration_of(st.body[i])
            st.last_slot_end = max(st.last_slot_end, st.busy_until)
            if st.body[i].writes() or isinstance(st.body[i], Mov):
                st.last_write_issue = now
            scheduled += 1
            # Release successors.
            for j, delay in st.succs[i]:
                st.earliest[j] = max(st.earliest[j], now + delay)
                st.indeg[j] -= 1
                if st.indeg[j] == 0:
                    heapq.heappush(waiting,
                                   (st.earliest[j], -st.height[j], j))
        now += 1

    # Assemble per-core Vcycle layout.
    out: dict[int, ScheduledCore] = {}
    vcpl = 0
    for cid, st in cores.items():
        arr = sorted(arrivals[cid])
        epi_start = st.last_slot_end
        for k, t in enumerate(arr):
            # Slot k executes at epi_start + k and must not outrun arrival.
            epi_start = max(epi_start, t - k)
        core = ScheduledCore(
            core_id=cid, pid=st.pid,
            items=sorted(((t, st.body[i]) for i, t in st.issue_time.items()),
                         key=lambda x: x[0]),
            epilogue_start=epi_start,
            epilogue_length=len(arr),
            rename=dict(st.rename),
        )
        out[cid] = core
        vcpl = max(vcpl, epi_start + len(arr))
        # Pipeline drain: every delayed register write must land before
        # the Vcycle wraps, or cycle-0 readers of the next Vcycle would
        # observe stale state.
        vcpl = max(vcpl, st.last_write_issue + config.result_latency)

    vcpl = max(vcpl, 1)
    return ScheduledProgram(image, config, out, placement, vcpl, send_count)
