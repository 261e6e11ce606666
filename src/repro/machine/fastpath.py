"""Verified fast-path execution engine: the static Vcycle schedule
compiled into per-core kernels.

The whole point of Manticore's static BSP model is that *when* everything
happens is resolved at compile time: issue order, NoC routing, writeback
timing, and receive-slot matching are all data-independent in a
branch-free program.  Only the *values* flowing through the schedule are
dynamic.  The strict engine (:meth:`repro.machine.grid.Machine.
_step_vcycle_strict`) nevertheless re-pays the dynamic costs every cycle:
type dispatch per instruction, an O(pending) hazard scan per register
read, (link, cycle) reservation bookkeeping per Send, and a priority-queue
pop per receive slot.

This module exploits the static-schedule guarantee with a
**verify-once-then-trust** protocol (selected with ``engine="fast"``):

1. The machine runs ``config.fastpath_verify_vcycles`` Vcycles (default
   one, plus one after every exception) under the strict engine, with all
   hazard, NoC-collision, and receive-matching checks live.  A clean
   strict Vcycle proves the schedule for *every* Vcycle, because the
   checked quantities never depend on data.
2. The grid-wide event list is then flattened once into a list of
   specialized closures - operator tables instead of string/isinstance
   dispatch, operands pre-resolved to register-file indices, ALU ops
   bound to concrete functions - and subsequent Vcycles just run the
   flat trace.

Three dynamic mechanisms are replaced by static plans:

* **Hazard scans** - the verified schedule has no read of an in-flight
  register, so the delayed-writeback ``pending`` list degenerates to
  immediate register writes.  The one observable exception - a receive
  slot landing on a register *inside* a write's latency window, where the
  strict engine's later commit would overwrite the received value - is
  detected statically and those (rare to nonexistent) writes go through a
  precomputed **commit plan**: the value parks in a side slot and a
  commit thunk placed at the exact strict commit position applies it.
* **Receive-queue sorting** - message arrival order is static, so each
  Send writes straight into an arrival-ordered per-core **inbox ring**
  slot and each receive slot is a precompiled register copy.
* **NoC reservations** - collision-checked during verification, elided
  afterwards.

Everything observable stays bit-identical with the strict engine:
registers, scratchpads, displays, and every counter (vcycles, compute and
stall cycles, instructions, messages, exceptions, cache statistics) -
``tests/test_engine_equivalence.py`` enforces this over all nine designs.
Exceptions (``Expect``) still fire dynamically through the shared
:meth:`Machine.service_exception`, and any Vcycle after an exception is
re-verified strictly.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Callable

from ..isa import instructions as isa
from ..isa.semantics import ALU_OPS, eval_custom
from ..isa.instructions import WORD_MASK, WORD_WIDTH

if TYPE_CHECKING:  # pragma: no cover
    from .grid import Machine, _Core


class FastpathUnsupported(RuntimeError):
    """The program's schedule cannot be compiled to the fast path; the
    machine silently keeps the strict engine (correctness first)."""


class _VcycleAbort(Exception):
    """Raised by an ``Expect`` closure when the host finishes the
    simulation mid-Vcycle; carries the exact strict-engine counter
    deltas up to (and including) the finishing instruction, plus the
    per-core prefix counts an attached profiler needs to attribute the
    partial Vcycle (snapshotted at compile time - the abort position is
    static, so the prefix is too)."""

    __slots__ = ("instrs", "messages", "core_instr", "core_sends",
                 "core_recvs")

    def __init__(self, instrs: int, messages: int,
                 core_instr: dict | None = None,
                 core_sends: dict | None = None,
                 core_recvs: dict | None = None) -> None:
        super().__init__()
        self.instrs = instrs
        self.messages = messages
        self.core_instr = core_instr or {}
        self.core_sends = core_sends or {}
        self.core_recvs = core_recvs or {}


# ---------------------------------------------------------------------------
# Closure factories.  Each binds a core's register file (an array("H")),
# pre-resolved operand indices, and concrete operator functions.  The
# closures are the *kernels*: one call per scheduled event, no dispatch.
# ---------------------------------------------------------------------------
def _c_set(regs, rd, imm):
    def ev():
        regs[rd] = imm
    return ev


def _c_alu(regs, fn, rd, a, b):
    def ev():
        regs[rd] = fn(regs[a], regs[b])
    return ev


def _c_mux(regs, rd, sel, rf, rt):
    def ev():
        regs[rd] = regs[rt] if regs[sel] & 1 else regs[rf]
    return ev


def _c_slice(regs, rd, rs, off, m):
    def ev():
        regs[rd] = (regs[rs] >> off) & m
    return ev


def _c_addcarry(regs, core, rd, a, b):
    def ev():
        total = regs[a] + regs[b] + core.carry
        regs[rd] = total & WORD_MASK
        core.carry = total >> WORD_WIDTH
    return ev


def _c_setcarry(core, imm):
    def ev():
        core.carry = imm
    return ev


def _c_custom(regs, rd, config, r0, r1, r2, r3):
    def ev():
        regs[rd] = eval_custom(config, regs[r0], regs[r1], regs[r2],
                               regs[r3])
    return ev


def _c_send(regs, rs, inbox, k):
    # The (link, cycle) reservations were verified strictly; delivery is
    # just a store into the target's arrival-ordered inbox slot.
    def ev():
        inbox[k] = regs[rs]
    return ev


def _c_recv(regs, rd, inbox, j):
    def ev():
        regs[rd] = inbox[j]
    return ev


def _c_local_load(regs, rd, rb, off, scratch, n):
    def ev():
        regs[rd] = scratch[((regs[rb] + off) & WORD_MASK) % n]
    return ev


def _c_local_store(regs, core, rs, rb, off, scratch, n):
    def ev():
        if core.predicate:
            scratch[((regs[rb] + off) & WORD_MASK) % n] = regs[rs]
    return ev


def _c_predicate(regs, core, rs):
    def ev():
        core.predicate = regs[rs] & 1
    return ev


def _c_global_load(regs, machine, cid, rd, hi, mid, lo):
    # Global services stay on the machine: privilege enforcement, cache
    # timing, and stall counters must match the strict engine exactly.
    def ev():
        regs[rd] = machine.global_read(
            cid, (regs[hi] << 32) | (regs[mid] << 16) | regs[lo]) & WORD_MASK
    return ev


def _c_global_store(regs, core, machine, cid, rs, hi, mid, lo):
    def ev():
        if core.predicate:
            machine.global_write(
                cid, (regs[hi] << 32) | (regs[mid] << 16) | regs[lo],
                regs[rs])
    return ev


def _c_expect(regs, machine, cid, a, b, eid, abort):
    def ev():
        if regs[a] != regs[b]:
            machine.service_exception(cid, eid)
            if machine.finished:
                raise abort
    return ev


def _c_commit(regs, defer, k, rd):
    """Apply a parked (commit-plan) writeback at its strict position."""
    def ev():
        regs[rd] = defer[k]
        defer[k] = None
    return ev


def _c_defer(compute, defer, k):
    """Park a conflicting write's value until its commit thunk."""
    def ev():
        defer[k] = compute()
    return ev


def _value_fn(instr, core: "_Core", machine: "Machine", cid: int):
    """Value-producing closure for a write that must go through the
    commit plan (side effects - carry, cache timing - still happen at
    issue, exactly as the strict engine's ``execute`` does)."""
    regs = core.regs
    t = type(instr)
    if t is isa.Set:
        imm = instr.imm & WORD_MASK
        return lambda: imm
    if t is isa.Alu:
        fn = ALU_OPS[instr.op]
        a, b = instr.rs1, instr.rs2
        return lambda: fn(regs[a], regs[b])
    if t is isa.Mux:
        sel, rf, rt = instr.sel, instr.rfalse, instr.rtrue
        return lambda: regs[rt] if regs[sel] & 1 else regs[rf]
    if t is isa.Slice:
        rs, off, m = instr.rs, instr.offset, (1 << instr.length) - 1
        return lambda: (regs[rs] >> off) & m
    if t is isa.AddCarry:
        a, b = instr.rs1, instr.rs2

        def _addc():
            total = regs[a] + regs[b] + core.carry
            core.carry = total >> WORD_WIDTH
            return total & WORD_MASK

        return _addc
    if t is isa.Custom:
        config = core.binary.cfu[instr.index]
        r0, r1, r2, r3 = instr.rs
        return lambda: eval_custom(config, regs[r0], regs[r1], regs[r2],
                                   regs[r3])
    if t is isa.LocalLoad:
        scratch = core.scratch
        if scratch is None:
            raise FastpathUnsupported(f"core {cid}: LLD without scratchpad")
        rb, off, n = instr.rbase, instr.offset, len(scratch)
        return lambda: scratch[((regs[rb] + off) & WORD_MASK) % n]
    if t is isa.GlobalLoad:
        hi, mid, lo = instr.addr
        return lambda: machine.global_read(
            cid, (regs[hi] << 32) | (regs[mid] << 16) | regs[lo]) & WORD_MASK
    raise FastpathUnsupported(
        f"cannot defer {type(instr).__name__} writeback")


class FastEngine:
    """The compiled engine for one :class:`Machine`.

    Built once (after strict verification); :meth:`run_vcycle` executes
    the flattened grid-wide trace.  Register files, scratchpads, carry
    and predicate bits are shared *by object identity* with the strict
    engine's cores, so the machine can switch engines between Vcycles.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        machine = self.machine
        cfg = machine.config
        cores = machine.cores
        events = machine._vcycle_events
        vcpl = machine.program.vcpl
        latency = cfg.result_latency

        # -- static message plan: who fills which inbox slot ------------
        per_target: dict[int, list] = {cid: [] for cid in cores}
        recv_slots: dict[int, list[int]] = {cid: [] for cid in cores}
        seq = 0
        for idx, (cycle, cid, item) in enumerate(events):
            if item == "recv":
                recv_slots[cid].append(cycle)
            elif isinstance(item, isa.Send):
                if item.target not in cores:
                    raise FastpathUnsupported(
                        f"Send to unmapped core {item.target}")
                hops = len(cfg.route(cid, item.target))
                arrival = (cycle + cfg.noc_inject_latency + hops
                           + cfg.noc_eject_latency)
                per_target[item.target].append((arrival, seq, item.rd, idx))
                seq += 1
        inbox_slot: dict[int, int] = {}     # send event index -> slot
        recv_rd: dict[int, list[int]] = {}  # cid -> rd per receive slot
        for cid in cores:
            msgs = sorted(per_target[cid], key=lambda m: (m[0], m[1]))
            slots = recv_slots[cid]
            if len(msgs) != len(slots):
                raise FastpathUnsupported(
                    f"core {cid}: {len(msgs)} messages for {len(slots)} "
                    "receive slots")
            recv_rd[cid] = []
            for j, (arrival, _seq, rd, sidx) in enumerate(msgs):
                if arrival > slots[j]:
                    raise FastpathUnsupported(
                        f"core {cid}: arrival {arrival} after receive "
                        f"slot {slots[j]}")
                inbox_slot[sidx] = j
                recv_rd[cid].append(rd)

        # -- commit plan: which writes cannot commit immediately --------
        # A write at cycle t (strict commit at t+latency) is unobservably
        # reorderable to immediate commit - the verified schedule has no
        # read inside the window - unless a receive slot writes the same
        # register inside (t, t+latency).  Defer every write to such a
        # register so relative commit order stays exact.
        deferred_regs: dict[int, set[int]] = {}
        for cid, core in cores.items():
            conflicts: set[int] = set()
            pairs = list(zip(recv_slots[cid], recv_rd[cid]))
            if pairs:
                for cycle, instr in core.events:
                    ws = instr.writes()
                    if not ws:
                        continue
                    for s, rrd in pairs:
                        if rrd == ws[0] and cycle < s < cycle + latency:
                            conflicts.add(ws[0])
                            break
            deferred_regs[cid] = conflicts

        # -- flatten the grid-wide trace --------------------------------
        inboxes = {cid: [0] * len(recv_slots[cid]) for cid in cores}
        defers: dict[int, list] = {cid: [] for cid in cores}
        defer_meta: dict[int, list[tuple[int, int]]] = {
            cid: [] for cid in cores}
        commit_q: dict[int, deque] = {cid: deque() for cid in cores}
        recv_seen = {cid: 0 for cid in cores}
        trace: list[Callable[[], None]] = []
        n_instr = 0
        n_msgs = 0
        # Static profiler plan: the per-core and per-link counts of one
        # full Vcycle are data-independent, so an attached profiler gets
        # them as one bulk merge per Vcycle instead of per-event hooks.
        # The running prefixes are snapshotted into each Expect's abort
        # sentinel for exact attribution of a mid-Vcycle $finish.
        run_instr = {cid: 0 for cid in cores}
        run_sends = {cid: 0 for cid in cores}
        run_recvs = {cid: 0 for cid in cores}
        send_routes: list[tuple] = []
        for idx, (cycle, cid, item) in enumerate(events):
            core = cores[cid]
            regs = core.regs
            q = commit_q[cid]
            while q and q[0][0] <= cycle:
                _c, k, rd = q.popleft()
                trace.append(_c_commit(regs, defers[cid], k, rd))
            if item == "recv":
                j = recv_seen[cid]
                recv_seen[cid] = j + 1
                trace.append(_c_recv(regs, recv_rd[cid][j], inboxes[cid], j))
                run_recvs[cid] += 1
                continue
            n_instr += 1
            run_instr[cid] += 1
            ws = item.writes()
            if ws and cycle + latency > vcpl:
                raise FastpathUnsupported(
                    f"core {cid}: writeback at {cycle + latency} past "
                    f"VCPL {vcpl}")
            if ws and ws[0] in deferred_regs[cid]:
                k = len(defers[cid])
                defers[cid].append(None)
                defer_meta[cid].append((k, ws[0]))
                trace.append(_c_defer(_value_fn(item, core, machine, cid),
                                      defers[cid], k))
                q.append((cycle + latency, k, ws[0]))
                continue
            trace.append(self._compile_instr(
                item, core, cid, inboxes, inbox_slot, idx, n_instr, n_msgs,
                (run_instr, run_sends, run_recvs)))
            if type(item) is isa.Send:
                n_msgs += 1
                run_sends[cid] += 1
                send_routes.append(tuple(cfg.route(cid, item.target)))
        # End-of-Vcycle drain, in the strict engine's core order.
        for cid in cores:
            q = commit_q[cid]
            while q:
                _c, k, rd = q.popleft()
                trace.append(_c_commit(cores[cid].regs, defers[cid], k, rd))

        self._trace = trace
        self._n_instr = n_instr
        self._n_msgs = n_msgs
        self._defers = defers
        self._defer_meta = defer_meta
        self._core_instr = run_instr
        self._core_sends = run_sends
        self._core_recvs = run_recvs
        self._send_routes = send_routes
        link_hops: Counter = Counter()
        for route in send_routes:
            link_hops.update(route)
        self._link_hops = dict(link_hops)

    # An exception discovered mid-Vcycle sends the next Vcycle back to
    # the strict engine (the conservative original protocol); the
    # codegen engine services exceptions inline and overrides this.
    services_exceptions = False

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Engine-protocol no-op: the fast path's closures share register
        storage with the cores by identity, so architectural state is
        always current (the codegen engine, which holds state in kernel
        frame locals, actually flushes here)."""

    def invalidate(self) -> None:
        """Engine-protocol no-op (see :meth:`sync`)."""

    # ------------------------------------------------------------------
    def _partial_link_hops(self, n_msgs: int) -> Counter:
        """Per-link hops of the first ``n_msgs`` Sends (abort paths)."""
        hops: Counter = Counter()
        for route in self._send_routes[:n_msgs]:
            hops.update(route)
        return hops

    # ------------------------------------------------------------------
    def _compile_instr(self, instr, core: "_Core", cid: int, inboxes,
                       inbox_slot, event_idx: int, n_instr: int,
                       n_msgs: int, running=None):
        machine = self.machine
        regs = core.regs
        t = type(instr)
        if t is isa.Set:
            return _c_set(regs, instr.rd, instr.imm & WORD_MASK)
        if t is isa.Alu:
            return _c_alu(regs, ALU_OPS[instr.op], instr.rd, instr.rs1,
                          instr.rs2)
        if t is isa.Mux:
            return _c_mux(regs, instr.rd, instr.sel, instr.rfalse,
                          instr.rtrue)
        if t is isa.Slice:
            return _c_slice(regs, instr.rd, instr.rs, instr.offset,
                            (1 << instr.length) - 1)
        if t is isa.AddCarry:
            return _c_addcarry(regs, core, instr.rd, instr.rs1, instr.rs2)
        if t is isa.SetCarry:
            return _c_setcarry(core, instr.imm)
        if t is isa.Custom:
            try:
                config = core.binary.cfu[instr.index]
            except IndexError:
                raise FastpathUnsupported(
                    f"core {cid}: CFU index {instr.index} unconfigured")
            r0, r1, r2, r3 = instr.rs
            return _c_custom(regs, instr.rd, config, r0, r1, r2, r3)
        if t is isa.Send:
            return _c_send(regs, instr.rs, inboxes[instr.target],
                           inbox_slot[event_idx])
        if t is isa.LocalLoad or t is isa.LocalStore:
            scratch = core.scratch
            if scratch is None:
                raise FastpathUnsupported(
                    f"core {cid}: local access without scratchpad")
            if t is isa.LocalLoad:
                return _c_local_load(regs, instr.rd, instr.rbase,
                                     instr.offset, scratch, len(scratch))
            return _c_local_store(regs, core, instr.rs, instr.rbase,
                                  instr.offset, scratch, len(scratch))
        if t is isa.Predicate:
            return _c_predicate(regs, core, instr.rs)
        if t is isa.GlobalLoad:
            hi, mid, lo = instr.addr
            return _c_global_load(regs, machine, cid, instr.rd, hi, mid, lo)
        if t is isa.GlobalStore:
            hi, mid, lo = instr.addr
            return _c_global_store(regs, core, machine, cid, instr.rs,
                                   hi, mid, lo)
        if t is isa.Expect:
            # Preallocate the abort sentinel with the exact counter
            # deltas as of this trace position (the Expect included).
            run_instr, run_sends, run_recvs = running or ({}, {}, {})
            abort = _VcycleAbort(n_instr, n_msgs, dict(run_instr),
                                 dict(run_sends), dict(run_recvs))
            return _c_expect(regs, machine, cid, instr.rs1, instr.rs2,
                             instr.eid, abort)
        raise FastpathUnsupported(
            f"cannot specialize {type(instr).__name__}")

    # ------------------------------------------------------------------
    def _flush_deferred(self) -> None:
        """Mirror the strict engine's end-of-Vcycle pending drain after a
        mid-Vcycle ``$finish``: apply every parked, uncommitted write in
        core order, then issue order."""
        cores = self.machine.cores
        for cid, meta in self._defer_meta.items():
            defer = self._defers[cid]
            regs = cores[cid].regs
            for k, rd in meta:
                value = defer[k]
                if value is not None:
                    regs[rd] = value
                    defer[k] = None

    def run_vcycle(self) -> None:
        """Execute one full Vcycle through the compiled trace."""
        machine = self.machine
        counters = machine.counters
        prof = machine.profiler
        try:
            for fn in self._trace:
                fn()
        except _VcycleAbort as abort:
            counters.instructions += abort.instrs
            counters.messages += abort.messages
            self._flush_deferred()
            if prof is not None:
                prof.add_vcycle_bulk(abort.core_instr, abort.core_sends,
                                     abort.core_recvs,
                                     self._partial_link_hops(abort.messages))
        else:
            counters.instructions += self._n_instr
            counters.messages += self._n_msgs
            if prof is not None:
                prof.add_vcycle_bulk(self._core_instr, self._core_sends,
                                     self._core_recvs, self._link_hops)
        counters.vcycles += 1
        counters.compute_cycles += machine.program.vcpl
        machine.now = 0


def compile_fastpath(machine: "Machine") -> FastEngine:
    """Compile ``machine``'s program into a :class:`FastEngine`.

    Raises :class:`FastpathUnsupported` when the static plan cannot be
    proven (the machine then stays on the strict engine).
    """
    return FastEngine(machine)
