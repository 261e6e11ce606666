"""Codegen execution engine: the static Vcycle schedule emitted as
specialized Python source and ``exec``'d into straight-line kernels.

The fast engine (:mod:`repro.machine.fastpath`) already removes type
dispatch and operand resolution, but it still pays one Python *call* per
scheduled event per Vcycle - at an 8x8 grid that is ~10^4 closure
invocations per Vcycle, and the interpreter's frame setup/teardown
dominates the actual 16-bit arithmetic.  This module removes the calls
too (selected with ``engine="codegen"``): it walks the same verified
static schedule and **emits Python source** for the whole grid -

* one *generator function* holding every touched register of every core
  as a frame-local variable (``c{cid}_r{n}``), persisting across
  Vcycles in a ``while True:`` loop, so a register access is a single
  ``LOAD_FAST``/``STORE_FAST``;
* constants folded inline (a ``Set`` feeding an ``Alu`` becomes one
  masked literal expression), dead masks elided, ``Custom`` CFU configs
  lowered to Quine-McCluskey-minimized bitwise expressions instead of a
  16-iteration interpretation loop;
* the static Send schedule applied as plain local-to-local moves after
  all core bodies ran (messages never materialize unless an abort path
  needs them);
* per-``Expect`` abort sentinels with statically precomputed prefix
  counters, so a mid-Vcycle ``$finish`` produces the exact strict-engine
  architectural state and counter deltas.

The emitted module is cached under a content hash of the program binary
and machine config: in-process, plus two entries per kernel in a
verified, size-capped :class:`repro.store.Store` at
``$REPRO_CODEGEN_CACHE`` / ``~/.cache/repro-codegen`` - the source
(``<key>.py``, the native translator's input) and its marshalled code
object (``<key>.code``, stamped with the interpreter's
``importlib.util.MAGIC_NUMBER``) - so warm runs neither emit nor
``compile()`` a kernel.

Once a program has run enough trusted Vcycles in a process, the same
emitted kernel is translated to C and run natively
(:mod:`repro.machine.native`); without a C compiler, or for a kernel
the translator cannot prove safe, this Python kernel keeps running.

Correctness rides the same rails as the fast engine: the
verify-once-then-trust protocol (strict Vcycles first, compiled trace
only after clean verification, re-verification after every exception),
the same :class:`CodegenUnsupported` static bail-out to the strict
engine, and bit-identical registers, scratchpads, displays, and counters
- ``tests/test_codegen_equivalence.py`` enforces this over all nine
designs, and the ``machine-codegen`` fuzz oracles cross-check it against
every other engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import marshal
import os
import re
import types
from bisect import bisect_right, insort
from collections import Counter
from importlib.util import MAGIC_NUMBER
from typing import TYPE_CHECKING

from ..isa import instructions as isa
from ..isa.instructions import WORD_MASK, WORD_WIDTH
from ..isa.semantics import ALU_OPS, eval_custom
from ..store import DEFAULT_MAX_BYTES, CacheStats, Store
from .fastpath import FastpathUnsupported

if TYPE_CHECKING:  # pragma: no cover
    from . import native
    from .grid import Machine

#: Bumped whenever the emitted source's semantics change; part of the
#: cache key so stale on-disk sources can never be exec'd.  v2: the key
#: hashes an init-stripped program image (register/scratch/DRAM boot
#: values and the design name excluded - the emitted source never
#: depends on them).
CODEGEN_SCHEMA_VERSION = 2

#: Hard ceiling on emitted source size (lines); beyond this the compile
#: falls back to the strict engine rather than risk pathological
#: CPython compile times.
_MAX_SOURCE_LINES = 400_000

#: Emission counter (cache misses that actually ran the emitter) -
#: observability for tests and the profile CLI.
EMISSIONS = 0

#: In-process module cache: content hash -> exec'd module namespace.
#: Emitted modules are state-free (``make_kernel`` binds a machine at
#: call time), so one namespace serves any number of machines.
_MEMO: dict[str, dict] = {}

#: Trusted Vcycles the Python kernel of each content key ran in this
#: process; the native tier (:mod:`repro.machine.native`) starts its
#: build once this reaches ``native.NATIVE_AFTER_VCYCLES``.  Updated
#: without a lock: a count lost to a race between server threads only
#: delays a build.
_TRUSTED: dict[str, int] = {}

#: Python-kernel Vcycles per bulk call while a native build is in
#: flight, so the switch happens soon after the build lands.
_PENDING_CHUNK = 256


class CodegenUnsupported(FastpathUnsupported):
    """The program's schedule cannot be compiled to Python source; the
    machine silently keeps the strict engine (correctness first)."""


# ---------------------------------------------------------------------------
# Quine-McCluskey minimization for Custom (CFU) instructions.
#
# A CFU config packs 16 truth tables (one per bit position) of 16 rows
# each (row = a | b<<1 | c<<2 | d<<3).  Positions sharing a table are
# grouped under one mask, and each distinct table is lowered to a
# minimized sum-of-products over the four *word-wide* operands - the
# bitwise ops evaluate all 16 lanes at once, replacing eval_custom's
# 16-iteration per-call loop with a handful of ANDs and ORs.
# ---------------------------------------------------------------------------
def _qm_cover(minterms: frozenset[int]) -> list[tuple[int, int]]:
    """Prime-implicant cover of ``minterms`` over 4 variables.

    Returns implicants as ``(value, care_mask)`` pairs: a minterm ``m``
    is covered iff ``m & care_mask == value``.  Greedy set cover over
    the prime implicants (optimal size is irrelevant here - anything
    beats interpretation)."""
    if not minterms:
        return []
    groups = {(m, 0b1111) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while groups:
        nxt: set[tuple[int, int]] = set()
        merged: set[tuple[int, int]] = set()
        glist = sorted(groups)
        for i, (v1, c1) in enumerate(glist):
            for v2, c2 in glist[i + 1:]:
                if c1 != c2:
                    continue
                diff = v1 ^ v2
                if diff.bit_count() == 1 and diff & c1:
                    nxt.add((min(v1, v2) & ~diff, c1 & ~diff))
                    merged.add((v1, c1))
                    merged.add((v2, c2))
        primes |= groups - merged
        groups = nxt
    # Greedy cover.
    cover: list[tuple[int, int]] = []
    remaining = set(minterms)
    candidates = sorted(primes, key=lambda p: p[1].bit_count())
    while remaining:
        best = max(candidates,
                   key=lambda p: (len([m for m in remaining
                                       if m & p[1] == p[0]]),
                                  -p[1].bit_count()))
        covered = {m for m in remaining if m & best[1] == best[0]}
        if not covered:  # pragma: no cover - cover always progresses
            raise CodegenUnsupported("CFU cover failed to converge")
        cover.append(best)
        remaining -= covered
    return cover


def _cover_cost(cover: list[tuple[int, int]]) -> int:
    """Literal count + negations: a cheap proxy for evaluation cost."""
    cost = 0
    for value, care in cover:
        for bit in range(4):
            if care & (1 << bit):
                cost += 1 if value & (1 << bit) else 2
    return cost


def _cover_expr(cover: list[tuple[int, int]], ops: list[str]) -> str:
    """Render a cover as a bitwise expression over operand strings."""
    terms = []
    for value, care in cover:
        lits = []
        for bit in range(4):
            if not care & (1 << bit):
                continue
            if value & (1 << bit):
                lits.append(ops[bit])
            else:
                lits.append(f"({ops[bit]} ^ {WORD_MASK})")
        terms.append(" & ".join(lits) if lits else str(WORD_MASK))
    return " | ".join(f"({t})" for t in terms)


# Bounded exact synthesis: sum-of-products is pathological for the
# XOR-shaped tables cryptographic designs feed the CFU (a 3-input
# parity has no mergeable implicants, so QM renders 12 literals for
# what is really two XORs).  A small library of cheap bitwise forms -
# polarity literals, XOR/AND/OR subsets, one pairwise combination
# round, final complements - is synthesized once and memoized; each
# truth table then takes the cheaper of its QM cover and its library
# entry.  Tables are 16-bit masks over rows ``a | b<<1 | c<<2 | d<<3``,
# so the operand tables are the usual 0xAAAA/0xCCCC/0xF0F0/0xFF00.
_SYNTH_LIB: dict[int, tuple[int, str]] | None = None


def _synth_lib() -> dict[int, tuple[int, str]]:
    global _SYNTH_LIB
    if _SYNTH_LIB is not None:
        return _SYNTH_LIB
    best: dict[int, tuple[int, str]] = {}

    def add(t: int, cost: int, tmpl: str) -> None:
        cur = best.get(t)
        if cur is None or cost < cur[0]:
            best[t] = (cost, tmpl)

    leaves = [(0xAAAA, "{0}"), (0xCCCC, "{1}"),
              (0xF0F0, "{2}"), (0xFF00, "{3}")]
    lits = []
    for t, e in leaves:
        add(t, 0, e)
        lits.append((t, 0, e))
        lits.append((t ^ 0xFFFF, 1, f"({e} ^ {WORD_MASK})"))
    for sym in ("^", "&", "|"):
        for r in (2, 3, 4):
            for combo in itertools.combinations(lits, r):
                t = combo[0][0]
                for u, _c, _e in combo[1:]:
                    t = (t ^ u if sym == "^" else
                         t & u if sym == "&" else t | u)
                cost = sum(c for _t, c, _e in combo) + r - 1
                tmpl = "(" + f" {sym} ".join(e for _t, _c, e in combo) + ")"
                add(t, cost, tmpl)
    entries = sorted(best.items(), key=lambda kv: kv[1][0])
    for t1, (c1, e1) in entries:
        for t2, (c2, e2) in entries:
            add(t1 & t2, c1 + c2 + 1, f"({e1} & {e2})")
            add(t1 | t2, c1 + c2 + 1, f"({e1} | {e2})")
            add(t1 ^ t2, c1 + c2 + 1, f"({e1} ^ {e2})")
    for t, (c, e) in list(best.items()):
        add(t ^ 0xFFFF, c + 1, f"({e} ^ {WORD_MASK})")
    _SYNTH_LIB = best
    return best


# config -> list of (positions_mask, cover, complemented, template) per
# distinct table; template (a _synth_lib hit that beat the QM cover) is
# formatted with the four operand strings, else the cover is rendered.
# Verified plans are memoized - CFU configs repeat heavily in a design.
_CFU_COVERS: dict[
    int, list[tuple[int, list[tuple[int, int]], bool, str | None]]] = {}


def _cfu_plan(config: int):
    plan = _CFU_COVERS.get(config)
    if plan is not None:
        return plan
    tables: dict[frozenset[int], int] = {}
    for pos in range(WORD_WIDTH):
        table = frozenset(
            row for row in range(16)
            if (config >> (pos * 16 + row)) & 1)
        tables[table] = tables.get(table, 0) | (1 << pos)
    plan = []
    lib = _synth_lib()
    for table, mask in sorted(tables.items(), key=lambda kv: kv[1]):
        if not table:
            continue
        direct = _qm_cover(table)
        comp = _qm_cover(frozenset(range(16)) - table)
        if comp and _cover_cost(comp) + 1 < _cover_cost(direct):
            cover, complemented = comp, True
        else:
            cover, complemented = direct, False
        # Op-count proxy for the rendered cover, comparable to the
        # library's cost metric.
        qm_ops = (_cover_cost(cover) + len(cover) - 1
                  + (2 if complemented else 0))
        hit = lib.get(sum(1 << row for row in table))
        tmpl = hit[1] if hit is not None and hit[0] < qm_ops else None
        plan.append((mask, cover, complemented, tmpl))
    _verify_cfu_plan(config, plan)
    _CFU_COVERS[config] = plan
    return plan


def _custom_expr(config: int, ops: list[str]) -> str:
    """Word-wide bitwise expression equivalent to
    ``eval_custom(config, a, b, c, d)`` for the operand strings."""
    parts = []
    for mask, cover, complemented, tmpl in _cfu_plan(config):
        if tmpl is not None:
            g = tmpl.format(*ops)
        elif len(cover) == 1 and cover[0][1] == 0 and not complemented:
            g = str(WORD_MASK)  # constant-true table
        else:
            g = _cover_expr(cover, ops)
            if complemented:
                g = f"{WORD_MASK} ^ ({g})"
        if mask == WORD_MASK:
            parts.append(f"({g})")
        else:
            parts.append(f"({mask} & ({g}))")
    return " | ".join(parts) if parts else "0"


def _verify_cfu_plan(config: int, plan) -> None:
    """Emission-time self-check: the lowered expression must agree with
    ``eval_custom`` on deterministic pseudo-random vectors (a last line
    of defense against minimizer bugs; failure falls back to strict)."""
    saved = _CFU_COVERS.get(config)
    _CFU_COVERS[config] = plan
    try:
        expr = _custom_expr(config, ["a", "b", "c", "d"])
    finally:
        if saved is None:
            _CFU_COVERS.pop(config, None)
        else:  # pragma: no cover - re-verification never happens
            _CFU_COVERS[config] = saved
    fn = eval(compile(f"lambda a, b, c, d: {expr}", "<cfu-check>", "eval"))
    x = (config ^ 0x5DEECE66D) & 0x7FFFFFFF
    for _ in range(32):
        vals = []
        for _v in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            vals.append(x & WORD_MASK)
        a, b, c, d = vals
        if fn(a, b, c, d) != eval_custom(config, a, b, c, d):
            raise CodegenUnsupported(
                f"CFU lowering mismatch for config {config:#x}")


# ---------------------------------------------------------------------------
# Scalar expression helpers.  Operands arrive as (expr_string, const)
# pairs; const is the known 16-bit value when the emitter proved one,
# else None.  Every helper returns the same pair shape so folds chain.
# ---------------------------------------------------------------------------
def _signed_expr(s: str, c: int | None) -> str:
    if c is not None:
        v = c - 0x10000 if c & 0x8000 else c
        return str(v)
    return f"({s} - 65536 if {s} & 32768 else {s})"


def _alu_expr(op: str, sa: str, ca: int | None, sb: str,
              cb: int | None) -> tuple[str, int | None]:
    if ca is not None and cb is not None:
        v = ALU_OPS[op](ca, cb)
        return str(v), v
    if op == "ADD":
        if ca == 0:
            return sb, cb
        if cb == 0:
            return sa, ca
        return f"({sa} + {sb}) & {WORD_MASK}", None
    if op == "SUB":
        if cb == 0:
            return sa, ca
        return f"({sa} - {sb}) & {WORD_MASK}", None
    if op == "AND":
        if ca == WORD_MASK:
            return sb, cb
        if cb == WORD_MASK:
            return sa, ca
        if ca == 0 or cb == 0:
            return "0", 0
        return f"{sa} & {sb}", None
    if op == "OR":
        if ca == 0:
            return sb, cb
        if cb == 0:
            return sa, ca
        return f"{sa} | {sb}", None
    if op == "XOR":
        if ca == 0:
            return sb, cb
        if cb == 0:
            return sa, ca
        return f"{sa} ^ {sb}", None
    if op == "MUL":
        if ca == 1:
            return sb, cb
        if cb == 1:
            return sa, ca
        if ca == 0 or cb == 0:
            return "0", 0
        return f"({sa} * {sb}) & {WORD_MASK}", None
    if op == "MULH":
        if ca == 0 or cb == 0:
            return "0", 0
        return f"({sa} * {sb}) >> {WORD_WIDTH} & {WORD_MASK}", None
    if op == "SLL":
        if cb is not None:
            if cb >= WORD_WIDTH:
                return "0", 0
            if cb == 0:
                return sa, ca
            return f"({sa} << {cb}) & {WORD_MASK}", None
        return (f"(({sa} << {sb}) & {WORD_MASK} "
                f"if {sb} < {WORD_WIDTH} else 0)"), None
    if op == "SRL":
        if cb is not None:
            if cb >= WORD_WIDTH:
                return "0", 0
            if cb == 0:
                return sa, ca
            return f"{sa} >> {cb}", None
        return f"({sa} >> {sb} if {sb} < {WORD_WIDTH} else 0)", None
    if op == "SRA":
        se = _signed_expr(sa, ca)
        if cb is not None:
            sh = min(cb, WORD_WIDTH - 1)
            if sh == 0:
                return sa, ca
            return f"({se} >> {sh}) & {WORD_MASK}", None
        return (f"({se} >> ({sb} if {sb} < {WORD_WIDTH - 1} "
                f"else {WORD_WIDTH - 1})) & {WORD_MASK}"), None
    if op == "SEQ":
        return f"(1 if {sa} == {sb} else 0)", None
    if op == "SLTU":
        return f"(1 if {sa} < {sb} else 0)", None
    if op == "SLTS":
        return (f"(1 if {_signed_expr(sa, ca)} < "
                f"{_signed_expr(sb, cb)} else 0)"), None
    raise CodegenUnsupported(f"unknown ALU op {op!r}")


def _scratch_index(base: str, cbase: int | None, off: int, n: int) -> str:
    """Index expression for a scratchpad access: the strict engine
    computes ``((base + off) & WORD_MASK) % n``; power-of-two sizes
    collapse both reductions into one mask."""
    if cbase is not None:
        return str(((cbase + off) & WORD_MASK) % n)
    inner = base if off == 0 else f"({base} + {off})"
    if n & (n - 1) == 0:  # power of two
        mask = min(WORD_MASK, n - 1)
        if mask == WORD_MASK and off == 0:
            return base
        return f"{inner} & {mask}"
    return f"({inner} & {WORD_MASK}) % {n}"


# ---------------------------------------------------------------------------
# Static analysis: everything the emitter and the driver need, computed
# once from the merged Vcycle event list.  Deterministic - a cached
# source file always matches a freshly computed plan.
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _Sentinel:
    """Statically precomputed bookkeeping for one ``Expect`` abort
    position: strict-engine counter deltas up to (and including) the
    Expect, per-core profiler prefixes, and the deferred-write fixups
    the stop functions cannot decide locally."""

    n_instr: int
    n_msgs: int
    core_instr: dict[int, int]
    core_sends: dict[int, int]
    core_recvs: dict[int, int]
    fixups: list[tuple[int, int, int]]  # (cid, reg, park index)


class _Plan:
    """Output of :func:`_analyze` (plain attribute bag)."""


def _bisect(seq, value):
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if seq[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


_SUPPORTED = (isa.Set, isa.Alu, isa.Mux, isa.Slice, isa.AddCarry,
              isa.SetCarry, isa.Custom, isa.Send, isa.LocalLoad,
              isa.LocalStore, isa.Predicate, isa.GlobalLoad,
              isa.GlobalStore, isa.Expect)


def _analyze(machine: "Machine") -> _Plan:
    cfg = machine.config
    cores = machine.cores
    events = machine._vcycle_events
    priv = machine.program.privileged_core
    vcpl = machine.program.vcpl
    latency = cfg.result_latency

    plan = _Plan()
    plan.priv = priv
    plan.vcpl = vcpl

    # -- per-core bodies and the static message plan --------------------
    body: dict[int, list] = {cid: [] for cid in cores}  # (cycle, instr, idx)
    recv_cycles: dict[int, list[int]] = {cid: [] for cid in cores}
    recv_idx: dict[int, list[int]] = {cid: [] for cid in cores}
    per_target: dict[int, list] = {cid: [] for cid in cores}
    sends_in_order: list[tuple] = []  # (idx, src, body_pos, rs, target)
    seq = 0
    for idx, (cycle, cid, item) in enumerate(events):
        if item == "recv":
            recv_cycles[cid].append(cycle)
            recv_idx[cid].append(idx)
            continue
        if getattr(item, "execute_on", None) is not None:
            raise CodegenUnsupported(
                f"core {cid}: pseudo-instruction "
                f"{type(item).__name__} in a machine program")
        if not isinstance(item, _SUPPORTED):
            raise CodegenUnsupported(
                f"cannot emit {type(item).__name__}")
        t = type(item)
        if t is isa.Expect and cid != priv:
            raise CodegenUnsupported(
                f"core {cid}: Expect outside the privileged core")
        if t in (isa.GlobalLoad, isa.GlobalStore) and cid != priv:
            raise CodegenUnsupported(
                f"core {cid}: global access outside the privileged core")
        if t in (isa.LocalLoad, isa.LocalStore) \
                and cores[cid].scratch is None:
            raise CodegenUnsupported(
                f"core {cid}: local access without scratchpad")
        if t is isa.Custom and item.index >= len(cores[cid].binary.cfu):
            raise CodegenUnsupported(
                f"core {cid}: CFU index {item.index} unconfigured")
        ws = item.writes()
        if ws and cycle + latency > vcpl:
            raise CodegenUnsupported(
                f"core {cid}: writeback at {cycle + latency} past "
                f"VCPL {vcpl}")
        if t is isa.Send:
            if item.target not in cores:
                raise CodegenUnsupported(
                    f"Send to unmapped core {item.target}")
            hops = len(cfg.route(cid, item.target))
            arrival = (cycle + cfg.noc_inject_latency + hops
                       + cfg.noc_eject_latency)
            per_target[item.target].append((arrival, seq, item.rd, idx))
            sends_in_order.append(
                (idx, cid, len(body[cid]), item.rs, item.target))
            seq += 1
        body[cid].append((cycle, item, idx))

    # Arrival-sorted receive matching; mid == global send order, so the
    # first n sends of the event list are exactly mids [0, n).
    idx_to_mid = {}
    for mid, (idx, _src, _pos, _rs, _tgt) in enumerate(sends_in_order):
        idx_to_mid[idx] = mid
    recv_rd: dict[int, list[int]] = {}
    recv_mid: dict[int, list[int]] = {}
    send_slot: dict[int, tuple[int, int]] = {}  # mid -> (target, slot j)
    for cid in cores:
        msgs = sorted(per_target[cid], key=lambda m: (m[0], m[1]))
        slots = recv_cycles[cid]
        if len(msgs) != len(slots):
            raise CodegenUnsupported(
                f"core {cid}: {len(msgs)} messages for {len(slots)} "
                "receive slots")
        recv_rd[cid] = []
        recv_mid[cid] = []
        for j, (arrival, sseq, rd, sidx) in enumerate(msgs):
            if arrival > slots[j]:
                raise CodegenUnsupported(
                    f"core {cid}: arrival {arrival} after receive "
                    f"slot {slots[j]}")
            recv_rd[cid].append(rd)
            recv_mid[cid].append(idx_to_mid[sidx])
            send_slot[idx_to_mid[sidx]] = (cid, j)

    plan.body = body
    plan.recv_cycles = recv_cycles
    plan.recv_rd = recv_rd
    plan.recv_mid = recv_mid
    plan.sends = sends_in_order
    plan.send_slot = send_slot
    plan.n_msgs = len(sends_in_order)
    plan.send_routes = [
        tuple(cfg.route(src, tgt))
        for _idx, src, _pos, _rs, tgt in sends_in_order]
    link_hops: Counter = Counter()
    for route in plan.send_routes:
        link_hops.update(route)
    plan.link_hops = dict(link_hops)

    # -- full-Vcycle counters and per-Expect sentinel snapshots ----------
    plan.core_instr = {cid: len(body[cid]) for cid in cores}
    plan.core_sends = {cid: 0 for cid in cores}
    plan.core_recvs = {cid: len(recv_cycles[cid]) for cid in cores}
    plan.n_instr = sum(plan.core_instr.values())
    sentinels: list[_Sentinel] = []
    expect_positions: list[int] = []  # global event idx per sentinel
    expect_sentinel: dict[int, int] = {}  # priv body pos -> sentinel id
    r_instr = r_msgs = 0
    run_instr = {cid: 0 for cid in cores}
    run_sends = {cid: 0 for cid in cores}
    run_recvs = {cid: 0 for cid in cores}
    body_seen = {cid: 0 for cid in cores}
    for idx, (cycle, cid, item) in enumerate(events):
        if item == "recv":
            run_recvs[cid] += 1
            continue
        r_instr += 1
        run_instr[cid] += 1
        if type(item) is isa.Send:
            plan.core_sends[cid] += 1
            run_sends[cid] += 1
            r_msgs += 1
        elif type(item) is isa.Expect:
            # n_instr includes the Expect itself; n_msgs counts sends
            # strictly before it (an Expect is never a Send, so the
            # running count is already right).
            expect_sentinel[body_seen[cid]] = len(sentinels)
            expect_positions.append(idx)
            sentinels.append(_Sentinel(
                r_instr, r_msgs, dict(run_instr), dict(run_sends),
                dict(run_recvs), []))
        body_seen[cid] += 1
    plan.sentinels = sentinels
    plan.expect_sentinel = expect_sentinel
    plan.expect_positions = expect_positions

    # -- stop-function thresholds (monotone guards) ----------------------
    plan.body_thresholds = {
        cid: [_bisect(expect_positions, e[2] + 1)
              for e in body[cid]]
        for cid in cores}
    plan.recv_thresholds = {
        cid: [_bisect(expect_positions, i + 1) for i in recv_idx[cid]]
        for cid in cores}
    # A sentinel's per-core executed-prefix lengths.
    body_idx = {cid: [e[2] for e in body[cid]] for cid in cores}
    plan.cut_body = {
        cid: [_bisect(body_idx[cid], p) for p in expect_positions]
        for cid in cores}
    plan.cut_recv = {
        cid: [_bisect(recv_idx[cid], p) for p in expect_positions]
        for cid in cores}

    # -- deferred-write conflicts and their static resolutions -----------
    # Same window rule as the fast path: a receive slot landing on a
    # register *inside* a write's latency window means immediate commit
    # would be observable.  Here nothing is parked at runtime on the
    # normal path - the winner is computed statically (last strict-order
    # commit moment wins) and the loser's assignments are simply omitted
    # from the emitted source.  Only the abort path parks values.
    plan.conflicted = {}
    plan.park_idx = {}
    plan.omit = set()       # (cid, slot j) receive moves to skip
    n_park = 0
    for cid in cores:
        pairs = list(zip(recv_cycles[cid], recv_rd[cid]))
        conflicts: set[int] = set()
        if pairs:
            for cycle, instr, _x in body[cid]:
                ws = instr.writes()
                if not ws:
                    continue
                for s, rrd in pairs:
                    if rrd == ws[0] and cycle < s < cycle + latency:
                        conflicts.add(ws[0])
                        break
        plan.conflicted[cid] = conflicts
        if not conflicts:
            continue
        nb = len(body[cid])
        # Own-order event cycles (body then receives - a core's receive
        # epilogue always follows its body); strictly increasing, so a
        # write at t commits right before the first own event at cycle
        # >= t + latency, or in the end-of-Vcycle drain (INF).
        own_cycles = [e[0] for e in body[cid]] + recv_cycles[cid]
        n_own = len(own_cycles)
        inf = n_own + 1
        writes: dict[int, list[tuple[int, int]]] = {R: [] for R in conflicts}
        for i, (cycle, instr, _x) in enumerate(body[cid]):
            ws = instr.writes()
            if ws and ws[0] in conflicts:
                writes[ws[0]].append(
                    (i, _bisect(own_cycles, cycle + latency)))
        recvs_of = {R: [j for j, rd in enumerate(recv_rd[cid]) if rd == R]
                    for R in conflicts}
        if cid != priv:
            for R in sorted(conflicts):
                for i, _p in writes[R]:
                    plan.park_idx[(cid, i)] = n_park
                    n_park += 1
        for R in sorted(conflicts):
            # Full-Vcycle winner; keys order strict commit moments
            # (commits run *before* the event at their position, so a
            # receive at the same position wins the tie).
            keys = [((p if p < n_own else inf), 0, i)
                    for i, p in writes[R]]
            keys += [(nb + j, 1, j) for j in recvs_of[R]]
            if max(keys)[1] == 0:   # a write outlives every receive
                plan.omit.update((cid, j) for j in recvs_of[R])
            if cid == priv:
                continue    # no priv receive ever precedes a priv Expect
            # Per-sentinel winners over the *executed* prefix: the stop
            # replay leaves the last executed receive's value, so patch
            # in the parked write value when a drain commit outlives it.
            for k in range(len(sentinels)):
                cb = plan.cut_body[cid][k]
                cr = plan.cut_recv[cid][k]
                exec_recvs = [j for j in recvs_of[R] if j < cr]
                if not exec_recvs:
                    continue
                cut_own = cb + cr
                wkeys = [((p if p < cut_own else inf), 0, i)
                         for i, p in writes[R] if i < cb]
                best = max(wkeys + [(nb + j, 1, j) for j in exec_recvs])
                if best[1] == 0:
                    sentinels[k].fixups.append(
                        (cid, R, plan.park_idx[(cid, best[2])]))
    plan.n_park = n_park

    # -- send-value captures ---------------------------------------------
    # A receive move reads its sender's local *after* every body ran; the
    # value must be snapshotted at the send position when the source
    # register is overwritten later in the sender's body, is itself a
    # receive destination, or feeds a privileged abort path (msgs[] for
    # the stop replay).
    has_expects = bool(sentinels)
    plan.capture = set()
    plan.unused = set()
    for mid, (idx, src, pos, rs, tgt) in enumerate(sends_in_order):
        tcid, j = send_slot[mid]
        priv_abort = src == priv and has_expects
        if (tcid, j) in plan.omit and not priv_abort:
            plan.unused.add(mid)
            continue
        overwritten = any(
            i > pos and instr.writes() and instr.writes()[0] == rs
            for i, (_c, instr, _x) in enumerate(body[src]))
        if overwritten or rs in set(recv_rd[src]) or priv_abort:
            plan.capture.add(mid)

    # -- touched registers, carry/predicate usage ------------------------
    plan.touched = {}
    plan.written = {}
    plan.has_carry = {}
    plan.has_pred = {}
    n_locals = 0
    for cid in cores:
        reads: set[int] = set()
        written: set[int] = set()
        carry = pred = False
        for _c, instr, _x in body[cid]:
            reads.update(instr.reads())
            ws = instr.writes()
            if ws:
                written.add(ws[0])
            t = type(instr)
            if t in (isa.AddCarry, isa.SetCarry):
                carry = True
            if t in (isa.Predicate, isa.LocalStore, isa.GlobalStore):
                pred = True
        written.update(recv_rd[cid])
        plan.written[cid] = written
        plan.touched[cid] = sorted(reads | written)
        plan.has_carry[cid] = carry
        plan.has_pred[cid] = pred
        n_locals += len(plan.touched[cid]) + 2
    if n_locals + plan.n_msgs > 60_000:
        raise CodegenUnsupported(
            f"{n_locals + plan.n_msgs} kernel locals exceed the "
            "emission budget")
    return plan


# ---------------------------------------------------------------------------
# Single-use copy propagation over the emitted Vcycle body.
# ---------------------------------------------------------------------------
_FUSE_ASSIGN = re.compile(r"^( *)(c\d+_(?:r\d+|cy|pr)|m\d+|_t) = (.*)$")
_FUSE_NAME = re.compile(r"c\d+_(?:r\d+|cy|pr)|m\d+|_t")
_FUSE_IDENT = re.compile(r"[A-Za-z_]\w*")
_FUSE_TOKEN = re.compile(r"\w+")
_FUSE_PURE_WORDS = frozenset(("if", "else"))
_FUSE_MAX_EXPR = 300


def _fuse(body: list[str]) -> list[str]:
    r"""Fold single-use register definitions into their use site.

    Netlist-derived schedules reuse register slots heavily, so most ALU
    results are written, read exactly once, and clobbered - a separate
    STORE_FAST/LOAD_FAST round trip per value.  This pass rewrites
    ``x = a + b; y = x & 7`` into ``y = ((a + b)) & 7`` when ``x`` is
    provably dead afterwards, which is worth ~25-40% of kernel time.

    The analysis is purely textual over the statement stream of one
    ``while True`` iteration.  A definition ``T = expr`` is fused iff

    * ``expr`` is pure: every identifier in it is another kernel local
      (no scratchpad/DRAM/``msgs`` access, whose ordering vs. stores
      must be preserved);
    * ``T`` is redefined later in the stream (so the fused value is
      never the value that survives into the next Vcycle or the final
      writeback - the writeback blocks mention every written local by
      name, which makes this check fall out of plain use counting);
    * between definition and redefinition ``T`` is used exactly once,
      and none of ``expr``'s operands are reassigned before that use.

    A definition whose window closes with *zero* uses is a dead store
    (a carry nobody reads before the next ``SetCarry``, a folded
    constant kept only for a writeback that a later write supersedes)
    and is deleted outright.  Deletions expose new single-use chains -
    notably ``_t``-based AddCarry triples collapsing to one statement
    once their carry-out proves dead - so the pass runs to a fixpoint
    (at most four rounds).

    Values consumed inside the priv core's abort writeback blocks count
    as uses like any other line, so prefix semantics at a mid-Vcycle
    ``$finish`` are preserved without special cases.

    Every question is answered from position indices, never by
    rescanning the stream.  Each statement is tokenised once with
    ``\w+`` - exactly the runs a ``\bT\b`` search matches - into a
    per-line token ``Counter``; ``uses[name]`` and ``defs[name]`` are
    sorted line lists.  For candidate ``i`` the window end is the next
    def of ``T`` (bisect), the use count is summed over ``uses[T]``
    inside the window (stopping once it passes 1), and each operand's
    next def is one bisect.  A substitution moves line ``i``'s token
    counts onto the use line, which joins ``uses[name]`` only for names
    its ``Counter`` has no key for yet - a count that drops to zero
    keeps its key, so a name that comes back is never listed twice.
    Lines only die as candidates, so after the lists are compacted at
    the start of a round no forward scan meets a dead line.  A round
    costs O(statements x log) plus the windows actually walked, where
    the rescanning pass it replaced was quadratic in the body length.
    """
    n = len(body)
    indents: list[str | None] = [None] * n
    lhs: list[str | None] = [None] * n
    rhs: list[str] = [""] * n
    for idx, line in enumerate(body):
        m = _FUSE_ASSIGN.match(line)
        if m:
            indents[idx], lhs[idx], rhs[idx] = m.groups()
        else:
            rhs[idx] = line  # guards, calls, yields: count uses whole
    counts = [Counter(_FUSE_TOKEN.findall(text)) for text in rhs]
    uses: dict[str, list[int]] = {}
    defs: dict[str, list[int]] = {}
    for idx in range(n):
        for tok in counts[idx]:
            uses.setdefault(tok, []).append(idx)
        if lhs[idx] is not None:
            defs.setdefault(lhs[idx], []).append(idx)
    dead = [False] * n

    def next_def(name: str, after: int) -> int:
        lines = defs.get(name, ())
        k = bisect_right(lines, after)
        return lines[k] if k < len(lines) else n

    changed = True
    rounds = 0
    while changed and rounds < 4:
        if rounds:  # drop the lines the previous round deleted
            for index in (uses, defs):
                for lines in index.values():
                    lines[:] = [x for x in lines if not dead[x]]
        changed = False
        rounds += 1
        for i in range(n):
            t = lhs[i]
            # Candidates are top-level register/carry/predicate/temp
            # writes; a send capture (m<N>) exists precisely because its
            # operand is clobbered before delivery, so it never moves.
            if (dead[i] or t is None or indents[i] != "            "
                    or t.startswith("m")):
                continue
            expr = rhs[i]
            if len(expr) > _FUSE_MAX_EXPR:
                continue
            idents = set(_FUSE_IDENT.findall(expr))
            if not all(w in _FUSE_PURE_WORDS or _FUSE_NAME.fullmatch(w)
                       for w in idents):
                continue
            end = next_def(t, i)
            if end == n:
                continue  # never redefined: the value survives the body
            t_uses = uses.get(t, ())
            k = bisect_right(t_uses, i)
            cnt = 0
            use = -1
            while k < len(t_uses) and t_uses[k] <= end:
                hits = counts[t_uses[k]][t]
                if hits:
                    cnt += hits
                    if cnt > 1:
                        break
                    use = t_uses[k]
                k += 1
            if cnt > 1:
                continue
            # An operand reassigned before the use (or, for a dead
            # store, before the redefinition) blocks the move.
            bound = use if cnt else end
            if any(next_def(w, i) < bound for w in idents if w != t):
                continue
            dead[i] = True
            changed = True
            if cnt == 0:
                continue  # dead store
            new_rhs = re.sub(rf"\b{t}\b", lambda _m: f"({expr})", rhs[use],
                             count=1)
            rhs[use] = new_rhs
            body[use] = (f"{indents[use]}{lhs[use]} = {new_rhs}"
                         if lhs[use] is not None else new_rhs)
            into = counts[use]
            into[t] -= 1
            for tok, hits in counts[i].items():
                if tok not in into:
                    insort(uses.setdefault(tok, []), use)
                into[tok] += hits
    return [line for idx, line in enumerate(body) if not dead[idx]]


# ---------------------------------------------------------------------------
# Source emission.
# ---------------------------------------------------------------------------
def _gaddr(val, addr_regs) -> str:
    """48-bit global address expression from (hi, mid, lo) registers."""
    parts = []
    for reg, shift in zip(addr_regs, (32, 16, 0)):
        s, c = val(reg)
        if c is not None:
            if c:
                parts.append(str(c << shift))
        elif shift:
            parts.append(f"({s} << {shift})")
        else:
            parts.append(s)
    return " | ".join(parts) if parts else "0"


def _emit(machine: "Machine", plan: _Plan) -> str:
    global EMISSIONS
    EMISSIONS += 1
    cores = machine.cores
    priv = plan.priv
    cids = sorted(cores)
    has_expects = bool(plan.sentinels)
    send_mid = {(src, pos): mid
                for mid, (_i, src, pos, _rs, _t) in enumerate(plan.sends)}
    uses_scratch = {
        cid: any(type(i) in (isa.LocalLoad, isa.LocalStore)
                 for _c, i, _x in plan.body[cid])
        for cid in cids}
    uses_global = any(
        type(i) in (isa.GlobalLoad, isa.GlobalStore)
        for _c, i, _x in plan.body.get(priv, ()))

    lines: list[str] = [
        '"""Machine-generated by repro.machine.codegen '
        f'(schema v{CODEGEN_SCHEMA_VERSION}); do not edit."""',
        "",
        "",
        "def make_kernel(machine, cores, msgs, park):",
        "    _m = machine",
    ]
    if has_expects:
        lines.append("    _se = machine.service_exception")
    if uses_global:
        lines.append("    _gr = machine.global_read")
        lines.append("    _gw = machine.global_write")
    for cid in cids:
        lines.append(f"    core{cid} = cores[{cid}]")
        lines.append(f"    regs{cid} = core{cid}.regs")
        if uses_scratch[cid]:
            lines.append(f"    sc{cid} = core{cid}.scratch")
    lines.append("")
    lines.append("    def grid_kernel():")
    for cid in cids:
        for r in plan.touched[cid]:
            lines.append(f"        c{cid}_r{r} = regs{cid}[{r}]")
        if plan.has_carry[cid]:
            lines.append(f"        c{cid}_cy = core{cid}.carry")
        if plan.has_pred[cid]:
            lines.append(f"        c{cid}_pr = core{cid}.predicate")
    lines.append("        while True:")
    if has_expects:
        lines.append("            exc = False")

    # The writeback block shared by every exit (sync, exception, abort):
    # flush all written locals, carry, and predicate back to the cores.
    wb: list[str] = []
    for cid in cids:
        for r in sorted(plan.written[cid]):
            wb.append(f"regs{cid}[{r}] = c{cid}_r{r}")
        if plan.has_carry[cid]:
            wb.append(f"core{cid}.carry = c{cid}_cy")
        if plan.has_pred[cid]:
            wb.append(f"core{cid}.predicate = c{cid}_pr")

    send_value: dict[int, str] = {}
    ind = " " * 12

    def emit_body(cid: int) -> None:
        const: dict[int, int] = {}
        carry_const: int | None = None
        n_scratch = (len(cores[cid].scratch)
                     if cores[cid].scratch is not None else 0)

        def val(r: int) -> tuple[str, int | None]:
            return f"c{cid}_r{r}", const.get(r)

        def setreg(rd: int, expr: str, cv: int | None) -> None:
            tgt = f"c{cid}_r{rd}"
            if cv is not None:
                const[rd] = cv
            else:
                const.pop(rd, None)
            if expr != tgt:
                lines.append(f"{ind}{tgt} = {expr}")

        for pos, (_cycle, instr, _x) in enumerate(plan.body[cid]):
            t = type(instr)
            if t is isa.Set:
                v = instr.imm & WORD_MASK
                setreg(instr.rd, str(v), v)
            elif t is isa.Alu:
                sa, ca = val(instr.rs1)
                sb, cb = val(instr.rs2)
                expr, cv = _alu_expr(instr.op, sa, ca, sb, cb)
                setreg(instr.rd, expr, cv)
            elif t is isa.Mux:
                ss, cs = val(instr.sel)
                if cs is not None:
                    s, c = val(instr.rtrue if cs & 1 else instr.rfalse)
                    setreg(instr.rd, s, c)
                else:
                    st, _ct = val(instr.rtrue)
                    sf, _cf = val(instr.rfalse)
                    setreg(instr.rd, f"{st} if {ss} & 1 else {sf}", None)
            elif t is isa.Slice:
                s, c = val(instr.rs)
                m = (1 << instr.length) - 1
                off = instr.offset
                if c is not None:
                    v = (c >> off) & m
                    setreg(instr.rd, str(v), v)
                elif off == 0:
                    setreg(instr.rd,
                           s if m >= WORD_MASK else f"{s} & {m}", None)
                elif m >= WORD_MASK >> off:
                    setreg(instr.rd, f"{s} >> {off}", None)
                else:
                    setreg(instr.rd, f"({s} >> {off}) & {m}", None)
            elif t is isa.AddCarry:
                sa, ca = val(instr.rs1)
                sb, cb = val(instr.rs2)
                if ca is not None and cb is not None \
                        and carry_const is not None:
                    total = ca + cb + carry_const
                    setreg(instr.rd, str(total & WORD_MASK),
                           total & WORD_MASK)
                    carry_const = total >> WORD_WIDTH
                    lines.append(f"{ind}c{cid}_cy = {carry_const}")
                else:
                    cy = (str(carry_const) if carry_const is not None
                          else f"c{cid}_cy")
                    terms = [x for x in (sa, sb, cy) if x != "0"]
                    lines.append(
                        f"{ind}_t = {' + '.join(terms) if terms else '0'}")
                    setreg(instr.rd, f"_t & {WORD_MASK}", None)
                    lines.append(f"{ind}c{cid}_cy = _t >> {WORD_WIDTH}")
                    carry_const = None
            elif t is isa.SetCarry:
                lines.append(f"{ind}c{cid}_cy = {instr.imm}")
                carry_const = instr.imm
            elif t is isa.Custom:
                config = cores[cid].binary.cfu[instr.index]
                ops = [val(r) for r in instr.rs]
                if all(c is not None for _s, c in ops):
                    v = eval_custom(config, *(c for _s, c in ops))
                    setreg(instr.rd, str(v), v)
                else:
                    expr = _custom_expr(config, [s for s, _c in ops])
                    setreg(instr.rd, expr, None)
            elif t is isa.Send:
                mid = send_mid[(cid, pos)]
                if mid in plan.unused:
                    continue
                s, c = val(instr.rs)
                if c is not None:
                    send_value[mid] = str(c)
                elif mid in plan.capture:
                    lines.append(f"{ind}m{mid} = {s}")
                    send_value[mid] = f"m{mid}"
                else:
                    send_value[mid] = s
            elif t is isa.LocalLoad:
                s, c = val(instr.rbase)
                idx = _scratch_index(s, c, instr.offset, n_scratch)
                setreg(instr.rd, f"sc{cid}[{idx}]", None)
            elif t is isa.LocalStore:
                s, c = val(instr.rbase)
                idx = _scratch_index(s, c, instr.offset, n_scratch)
                sv, _cv = val(instr.rs)
                lines.append(f"{ind}if c{cid}_pr:")
                lines.append(f"{ind}    sc{cid}[{idx}] = {sv}")
            elif t is isa.Predicate:
                s, c = val(instr.rs)
                lines.append(f"{ind}c{cid}_pr = "
                             + (str(c & 1) if c is not None else f"{s} & 1"))
            elif t is isa.GlobalLoad:
                addr = _gaddr(val, instr.addr)
                setreg(instr.rd, f"_gr({cid}, {addr}) & {WORD_MASK}", None)
            elif t is isa.GlobalStore:
                addr = _gaddr(val, instr.addr)
                sv, _cv = val(instr.rs)
                lines.append(f"{ind}if c{cid}_pr:")
                lines.append(f"{ind}    _gw({cid}, {addr}, {sv})")
            elif t is isa.Expect:
                sa, ca = val(instr.rs1)
                sb, cb = val(instr.rs2)
                if ca is not None and cb is not None and ca == cb:
                    continue  # provably never fires
                k = plan.expect_sentinel[pos]
                s = plan.sentinels[k]
                lines.append(f"{ind}if {sa} != {sb}:")
                lines.append(f"{ind}    _se({cid}, {instr.eid})")
                lines.append(f"{ind}    if _m.finished:")
                for stmt in wb:
                    lines.append(f"{ind}        {stmt}")
                for mid, (_i, src, _p, _rs, _tg) in enumerate(plan.sends):
                    if src == priv and mid < s.n_msgs:
                        lines.append(
                            f"{ind}        msgs[{mid}] = {send_value[mid]}")
                lines.append(f"{ind}        yield {k}")
                lines.append(f"{ind}        return")
                lines.append(f"{ind}    exc = True")
            else:  # pragma: no cover - _analyze already rejected it
                raise CodegenUnsupported(
                    f"cannot emit {type(instr).__name__}")

    # Privileged core first: its Expect outcomes depend only on its own
    # body prefix (no receive ever reaches it before its body ends), so
    # hoisting it ahead of the other bodies is observably equivalent and
    # lets the abort path skip re-running it.
    if priv in cores:
        emit_body(priv)
    for cid in cids:
        if cid != priv:
            emit_body(cid)

    # Receive epilogues: the static Send schedule collapses to plain
    # local-to-local moves (slot order within each core).
    for cid in cids:
        for j, rd in enumerate(plan.recv_rd[cid]):
            if (cid, j) in plan.omit:
                continue
            mid = plan.recv_mid[cid][j]
            lines.append(f"{ind}c{cid}_r{rd} = {send_value[mid]}")

    if has_expects:
        lines.append(f"{ind}if exc:")
        for stmt in wb:
            lines.append(f"{ind}    {stmt}")
        lines.append(f"{ind}    yield -2")
        lines.append(f"{ind}    return")
    lines.append(f"{ind}cmd = yield -1")
    lines.append(f"{ind}if cmd is not None:")
    for stmt in wb:
        lines.append(f"{ind}    {stmt}")
    lines.append(f"{ind}    yield -3")
    lines.append(f"{ind}    return")

    start = lines.index("        while True:") + 1
    lines[start:] = _fuse(lines[start:])

    lines.append("")
    lines.append("    return grid_kernel")

    if has_expects:
        _emit_stops(lines, machine, plan, send_mid, uses_scratch)

    if len(lines) > _MAX_SOURCE_LINES:
        raise CodegenUnsupported(
            f"emitted source has {len(lines)} lines "
            f"(budget {_MAX_SOURCE_LINES})")
    return "\n".join(lines) + "\n"


def _emit_stops(lines: list[str], machine: "Machine", plan: _Plan,
                send_mid, uses_scratch) -> None:
    """Emit the per-core stop functions the abort path replays.

    The privileged core's body already ran inside the generator (it is
    emitted first), so it gets no stop function - re-running it would
    double its global-service side effects.  Every other core's body is
    replayed *directly on the architectural state* up to the statically
    known cut for the firing sentinel, with conflicted writes parked for
    the driver's fixup pass; the receive replays then apply the
    delivered message values."""
    cores = machine.cores
    priv = plan.priv
    for cid in sorted(cores):
        if cid == priv or not plan.body[cid]:
            continue
        lines.append("")
        lines.append("")
        lines.append(f"def _stop_body_{cid}(core, machine, msgs, park, "
                     "stop):")
        lines.append("    regs = core.regs")
        if uses_scratch[cid]:
            lines.append("    sc = core.scratch")
        n_scratch = (len(cores[cid].scratch)
                     if cores[cid].scratch is not None else 0)
        cur = 0
        for pos, (_cycle, instr, _x) in enumerate(plan.body[cid]):
            thr = plan.body_thresholds[cid][pos]
            if thr > cur:
                if thr >= len(plan.sentinels):
                    break  # past the last sentinel: never replayed
                lines.append(f"    if stop < {thr}:")
                lines.append("        return")
                cur = thr
            pi = plan.park_idx.get((cid, pos))
            mid = (send_mid[(cid, pos)]
                   if type(instr) is isa.Send else None)
            for stmt in _stop_stmts(instr, pi, mid, n_scratch,
                                    cores[cid].binary):
                lines.append(f"    {stmt}")
    for cid in sorted(cores):
        if cid == priv or not plan.recv_rd[cid]:
            continue
        lines.append("")
        lines.append("")
        lines.append(f"def _stop_recv_{cid}(core, msgs, stop):")
        lines.append("    regs = core.regs")
        cur = 0
        emitted = False
        for j, rd in enumerate(plan.recv_rd[cid]):
            thr = plan.recv_thresholds[cid][j]
            if thr > cur:
                if thr >= len(plan.sentinels):
                    break
                lines.append(f"    if stop < {thr}:")
                lines.append("        return")
                cur = thr
            lines.append(f"    regs[{rd}] = msgs[{plan.recv_mid[cid][j]}]")
            emitted = True
        if not emitted:
            lines.append("    return")


def _stop_stmts(instr, park_pi, mid, n_scratch, binary) -> list[str]:
    """Strict-order replay statements for one instruction, operating
    directly on ``regs``/``core`` (no locals - the abort path runs once,
    clarity over speed).  ``park_pi`` adds the side assignment for
    conflicted writes."""
    t = type(instr)

    def tgt(rd: int) -> str:
        if park_pi is not None:
            return f"regs[{rd}] = park[{park_pi}]"
        return f"regs[{rd}]"

    def r(reg: int) -> str:
        return f"regs[{reg}]"

    if t is isa.Set:
        return [f"{tgt(instr.rd)} = {instr.imm & WORD_MASK}"]
    if t is isa.Alu:
        expr, _cv = _alu_expr(instr.op, r(instr.rs1), None,
                              r(instr.rs2), None)
        return [f"{tgt(instr.rd)} = {expr}"]
    if t is isa.Mux:
        return [f"{tgt(instr.rd)} = {r(instr.rtrue)} "
                f"if {r(instr.sel)} & 1 else {r(instr.rfalse)}"]
    if t is isa.Slice:
        m = (1 << instr.length) - 1
        return [f"{tgt(instr.rd)} = ({r(instr.rs)} >> {instr.offset}) "
                f"& {m}"]
    if t is isa.AddCarry:
        return [f"_t = {r(instr.rs1)} + {r(instr.rs2)} + core.carry",
                f"{tgt(instr.rd)} = _t & {WORD_MASK}",
                f"core.carry = _t >> {WORD_WIDTH}"]
    if t is isa.SetCarry:
        return [f"core.carry = {instr.imm}"]
    if t is isa.Custom:
        expr = _custom_expr(binary.cfu[instr.index],
                            [r(reg) for reg in instr.rs])
        return [f"{tgt(instr.rd)} = {expr}"]
    if t is isa.Send:
        return [f"msgs[{mid}] = {r(instr.rs)}"]
    if t is isa.LocalLoad:
        idx = _scratch_index(r(instr.rbase), None, instr.offset, n_scratch)
        return [f"{tgt(instr.rd)} = sc[{idx}]"]
    if t is isa.LocalStore:
        idx = _scratch_index(r(instr.rbase), None, instr.offset, n_scratch)
        return ["if core.predicate:",
                f"    sc[{idx}] = {r(instr.rs)}"]
    if t is isa.Predicate:
        return [f"core.predicate = {r(instr.rs)} & 1"]
    raise CodegenUnsupported(  # pragma: no cover - rejected in _analyze
        f"cannot replay {type(instr).__name__}")


# ---------------------------------------------------------------------------
# Content-addressed source cache.
# ---------------------------------------------------------------------------
def _stripped_program_bytes(program) -> bytes:
    """Serialize ``program`` with every boot-time data image blanked.

    The emitted source depends only on the instruction schedule and the
    machine config - kernels hydrate register/scratch/DRAM state from
    the live cores at generator start, and ``_analyze`` never reads an
    init value.  Hashing the init-stripped image means per-stimulus
    *variants* of one design (same binary, different ``reg_init`` - the
    lanes of a batch) share one cache key, one analysis, and one exec'd
    module."""
    from .boot import serialize
    cores = {
        cid: dataclasses.replace(binary, reg_init={}, scratch_init={})
        for cid, binary in program.cores.items()}
    stripped = dataclasses.replace(program, name="", cores=cores,
                                   global_init={})
    return serialize(stripped)


def _content_key(machine: "Machine") -> str:
    """The kernel cache key of ``machine``'s program under its config,
    memoized on the program's record (re-serializing the program
    dominates warm compiles; a rebound batch lane shares its parent's
    record, hence its key)."""
    from .grid import _program_record
    config = machine.config
    keys = _program_record(machine.program).kernel_keys
    key = keys.get(config)
    if key is None:
        config_repr = repr(sorted(dataclasses.asdict(config).items()))
        h = hashlib.sha256()
        h.update(f"codegen-v{CODEGEN_SCHEMA_VERSION}".encode())
        h.update(config_repr.encode())
        h.update(_stripped_program_bytes(machine.program))
        key = keys[config] = h.hexdigest()
    return key


#: One :class:`Store` per kernel-cache directory, so every read and
#: write of both kinds counts into one :class:`CacheStats`.
_STORES: dict[str, Store] = {}


def _kernel_store() -> Store | None:
    """The on-disk kernel store: ``$REPRO_CODEGEN_CACHE`` (off when
    ``""``, ``0`` or ``off``) or ``~/.cache/repro-codegen``."""
    env = os.environ.get("REPRO_CODEGEN_CACHE")
    if env is None:
        env = os.path.join(os.path.expanduser("~"), ".cache",
                           "repro-codegen")
    elif env.strip().lower() in ("", "0", "off"):
        return None
    store = _STORES.get(env)
    if store is None:
        store = _STORES.setdefault(env, Store(env, DEFAULT_MAX_BYTES))
    return store


def kernel_cache_stats() -> CacheStats | None:
    """Hits, misses, stores, evictions and corrupt entries of the
    current kernel-cache directory in this process (both kinds), or
    ``None`` when the cache is off."""
    store = _kernel_store()
    return store and store.stats


def _unmarshal(payload: bytes) -> types.CodeType:
    """A code entry's payload back to its code object; one written by an
    interpreter with another bytecode magic is rejected unread."""
    if not payload.startswith(MAGIC_NUMBER):
        raise ValueError("code entry of another bytecode version")
    code = marshal.loads(payload[len(MAGIC_NUMBER):])
    if not isinstance(code, types.CodeType):
        raise TypeError(f"code entry holds a {type(code).__name__}")
    return code


def _source_for(machine: "Machine", plan: _Plan, key: str,
                store: Store | None) -> str:
    """The kernel source: the verified ``py`` entry, or emitted again
    and stored."""
    source = store and store.get("py", key, bytes.decode)
    if source is None:
        source = _emit(machine, plan)
        if store is not None:
            store.put("py", key, source.encode())
    return source


def _compiled_for(machine: "Machine",
                  key: str | None = None) -> tuple[dict, _Plan]:
    """Namespace + plan for ``machine``, memoized under the content key.

    The plan is pure static metadata (positions, counts, thresholds), so
    two machines running the same program under the same config share
    one analysis and one exec'd module.  A memo miss loads the verified
    code entry, else compiles the verified (or a freshly emitted) source
    and stores its code entry: a damaged entry of either kind is a miss,
    rebuilt and overwritten, so nothing unverified is ever exec'd.
    """
    key = key or _content_key(machine)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    plan = _analyze(machine)
    store = _kernel_store()
    code = store and store.get("code", key, _unmarshal)
    if code is None:
        source = _source_for(machine, plan, key, store)
        code = compile(source, f"<codegen {key[:12]}>", "exec")
        if store is not None:
            store.put("code", key, MAGIC_NUMBER + marshal.dumps(code))
    ns = {"__name__": f"repro.machine._codegen_{key[:12]}"}
    exec(code, ns)
    _MEMO[key] = (ns, plan)
    return ns, plan


# ---------------------------------------------------------------------------
# The engine driver.
# ---------------------------------------------------------------------------
class CodegenEngine:
    """The compiled-source engine for one :class:`Machine`.

    Holds the live grid kernel (a generator whose frame locals *are* the
    register state), the message/park scratch buffers for abort replays,
    and the static plan's counter bookkeeping.  The kernel yields a
    protocol code per Vcycle:

    * ``-1`` - normal Vcycle completed, state stays in frame locals;
    * ``-2`` - Vcycle completed with an exception serviced; the kernel
      already flushed all state back to the cores and retired itself
      (the trust protocol re-verifies strictly next Vcycle);
    * ``k >= 0`` - a mid-Vcycle ``$finish`` at abort sentinel ``k``; the
      kernel flushed its state and the driver replays the other cores'
      executed prefixes through the stop functions;
    * ``-3`` - acknowledgment of an explicit :meth:`sync` flush.
    """

    # The kernel emits every Expect check itself and calls
    # ``service_exception`` inline, which mutates no register state (it
    # flushes the cache - consulted live through ``_gr``/``_gw`` - and
    # appends displays), so a serviced exception leaves nothing for a
    # strict re-verification Vcycle to re-check.  The fast engine keeps
    # its conservative drop-trust-on-exception protocol.
    services_exceptions = True

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._key = _content_key(machine)
        ns, plan = _compiled_for(machine, self._key)
        self._plan = plan
        self._make_kernel = ns["make_kernel"]
        self._msgs = [0] * plan.n_msgs
        self._park = [0] * plan.n_park
        self._gen = None
        priv = plan.priv
        self._stop_bodies = [
            (machine.cores[cid], ns[f"_stop_body_{cid}"])
            for cid in sorted(machine.cores)
            if cid != priv and f"_stop_body_{cid}" in ns]
        self._stop_recvs = [
            (machine.cores[cid], ns[f"_stop_recv_{cid}"])
            for cid in sorted(machine.cores)
            if cid != priv and f"_stop_recv_{cid}" in ns]
        #: The live native kernel (:mod:`repro.machine.native`) once this
        #: engine switched to it; the Python generator is retired then.
        self._native: native.NativeKernel | None = None
        #: Why the native tier will not run here (no ``cc``, an
        #: unsupported construct, a build failure...) - the counterpart
        #: of ``Machine._fastpath_error``; ``None`` while it may still.
        self.native_error: str | None = None
        #: Vcycles the native tier executed on this machine.
        self.native_vcycles = 0

    # ------------------------------------------------------------------
    def _native_budget(self, budget: int) -> int:
        """Switch to the native kernel at this Vcycle boundary if it is
        built; otherwise cap the Python kernel's ``budget`` so the next
        boundary looks again once a build may start or land."""
        # Imported at the first trusted Vcycle, not with this module:
        # emitting kernels (a warm set-up) never loads the translator.
        from . import native
        key = self._key
        trusted = _TRUSTED.get(key, 0)
        got = native.request(key, trusted, self._native_source,
                             self._native_layout)
        if got is None:
            left = native.threshold() - trusted
            return min(budget, left if left > 0 else _PENDING_CHUNK)
        if isinstance(got, str):
            self.native_error = got
            return budget
        self.sync()     # the Python kernel's frame locals -> the cores
        self._native = native.NativeKernel(got, self.machine, self._msgs)
        return budget

    def _native_source(self) -> str:
        return _source_for(self.machine, self._plan, self._key,
                           _kernel_store())

    def _native_layout(self):
        lengths = {}
        for cid, core in self.machine.cores.items():
            lengths[(cid, "regs")] = len(core.regs)
            if core.scratch is not None:
                lengths[(cid, "scratch")] = len(core.scratch)
        return lengths, self._plan.n_msgs

    def _step(self, budget: int) -> tuple[int, int]:
        """Run up to ``budget`` trusted Vcycles on the current tier;
        returns ``(clean, code)``: the clean Vcycles run and the yield
        code of the last one (``-1`` when all were clean)."""
        if self._native is None and self.native_error is None:
            budget = self._native_budget(budget)
        kernel = self._native
        if kernel is not None:
            ran = kernel.run(budget)
            if ran is not None:
                code, clean = ran
                self.native_vcycles += clean + (code != -1)
                return clean, code
            self.native_error = kernel.refused
            self._native = None
        gen = self._gen
        if gen is None:
            # (Re)hydrate: the preamble reloads every touched register
            # from the cores, so a fresh kernel picks up exactly where
            # the strict engine (or a restored checkpoint) left off.
            gen = self._make_kernel(self.machine, self.machine.cores,
                                    self._msgs, self._park)()
            self._gen = gen
        nxt = gen.__next__
        clean = 0
        code = -1
        try:
            while clean < budget:
                code = nxt()
                if code != -1:
                    break
                clean += 1
        except BaseException:
            self._gen = None
            raise
        if code != -1:
            self._gen = None
        _TRUSTED[self._key] = _TRUSTED.get(self._key, 0) + clean + (
            code != -1)
        return clean, code

    def run_vcycle(self) -> None:
        """Execute one full Vcycle through the emitted kernel."""
        machine = self.machine
        _clean, code = self._step(1)
        counters = machine.counters
        prof = machine.profiler
        plan = self._plan
        if code >= 0:
            self._finish_abort(code)
        else:
            counters.instructions += plan.n_instr
            counters.messages += plan.n_msgs
            if prof is not None:
                prof.add_vcycle_bulk(plan.core_instr, plan.core_sends,
                                     plan.core_recvs, plan.link_hops)
        counters.vcycles += 1
        counters.compute_cycles += machine.program.vcpl
        machine.now = 0

    def run_vcycles(self, budget: int) -> None:
        """Trusted bulk loop: run up to ``budget`` Vcycles through the
        kernel with a single counter settlement at the end.

        Returns at budget exhaustion, after the first non-clean
        Vcycle (an exception-serviced Vcycle or a mid-Vcycle
        ``$finish``), both already fully handled, or early at a tier
        boundary (a native call's chunk, a pending native build); the
        caller re-enters while trust and budget remain.  Only called
        without a profiler attached - per-Vcycle profiles need
        :meth:`run_vcycle`'s step-by-step bookkeeping.
        """
        if budget <= 0:
            return
        machine = self.machine
        clean, code = self._step(budget)
        plan = self._plan
        counters = machine.counters
        vcpl = machine.program.vcpl
        if code >= 0:
            counters.instructions += clean * plan.n_instr
            counters.messages += clean * plan.n_msgs
            counters.vcycles += clean + 1
            counters.compute_cycles += (clean + 1) * vcpl
            self._finish_abort(code)
        else:
            full = clean + (1 if code == -2 else 0)
            counters.instructions += full * plan.n_instr
            counters.messages += full * plan.n_msgs
            counters.vcycles += full
            counters.compute_cycles += full * vcpl
        machine.now = 0

    def _finish_abort(self, k: int) -> None:
        """Complete a mid-Vcycle ``$finish``: replay every non-priv
        core's executed prefix on the architectural state, deliver the
        consumed messages, apply deferred-write fixups, and charge the
        statically precomputed prefix counters."""
        machine = self.machine
        plan = self._plan
        sentinel = plan.sentinels[k]
        msgs, park = self._msgs, self._park
        for core, fn in self._stop_bodies:
            fn(core, machine, msgs, park, k)
        for core, fn in self._stop_recvs:
            fn(core, msgs, k)
        for cid, reg, pi in sentinel.fixups:
            machine.cores[cid].regs[reg] = park[pi]
        machine.counters.instructions += sentinel.n_instr
        machine.counters.messages += sentinel.n_msgs
        prof = machine.profiler
        if prof is not None:
            hops: Counter = Counter()
            for route in plan.send_routes[:sentinel.n_msgs]:
                hops.update(route)
            prof.add_vcycle_bulk(sentinel.core_instr, sentinel.core_sends,
                                 sentinel.core_recvs, hops)

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush kernel-frame state back to the cores and retire the
        kernel (observers - ``peek_reg``, checkpoints, the end of a
        ``run`` - see architectural state; the next trusted Vcycle
        rehydrates a fresh kernel from it)."""
        if self._native is not None:
            self._native.sync()
            return
        gen = self._gen
        if gen is None:
            return
        self._gen = None
        try:
            gen.send(True)
        finally:
            gen.close()

    def invalidate(self) -> None:
        """Drop the live kernel *without* flushing (the cores are about
        to be overwritten, e.g. by a checkpoint restore)."""
        if self._native is not None:
            self._native.invalidate()
            return
        gen = self._gen
        self._gen = None
        if gen is not None:
            gen.close()


def compile_codegen(machine: "Machine") -> CodegenEngine:
    """Compile ``machine``'s program into a :class:`CodegenEngine`.

    Raises :class:`CodegenUnsupported` when the schedule cannot be
    emitted (the machine then stays on the strict engine, exactly like
    the fast path's fallback contract).
    """
    return CodegenEngine(machine)
