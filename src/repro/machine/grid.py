"""Cycle-accurate model of the Manticore grid (paper SS4-SS5).

The model executes a compiled :class:`~repro.isa.program.MachineProgram`
with the same timing contract the compiler scheduled against:

* one instruction per core per compute cycle, from a fixed Vcycle-long
  schedule (body, receive epilogue, sleep);
* register writes land ``result_latency`` cycles after issue (delayed
  writeback, no interlocks) - reading a register with an in-flight
  write raises :class:`HazardError`, proving the compiler's
  schedule is hazard-free;
* Sends traverse the bufferless unidirectional torus with dimension-
  ordered routing; two messages on one (link, cycle) raise
  :class:`NoCDropError` (the hardware would silently drop - we fault to
  catch compiler bugs);
* privileged global accesses and exceptions freeze the compute clock
  (global stall, SS5.3) and charge stall cycles measured by Fig. 8's
  counters.

Three engines execute this contract (see :mod:`repro.machine.fastpath`,
:mod:`repro.machine.codegen`, and docs/ARCHITECTURE.md "Execution
engines"): ``strict`` (all checks, the reference), ``fast``
(verify-once-then-trust compiled closure kernels), and ``codegen``
(the same trust protocol over emitted-and-``exec``'d Python source) -
the compiled engines stay bit-identical with strict.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from dataclasses import dataclass

from ..isa import instructions as isa
from ..isa.interp import HazardError, NoCDropError
from ..isa.program import CoreBinary, MachineProgram, SimulationFailure
from ..netlist.serialize import pack_words, unpack_words
from ..obs.trace import span as _span
from .cache import Cache, CacheStats
from .config import MachineConfig


@dataclass
class PerfCounters:
    """Hardware performance counters (paper SS7.7)."""

    vcycles: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0
    instructions: int = 0
    messages: int = 0
    exceptions: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    def as_dict(self) -> dict[str, int]:
        return {
            "vcycles": self.vcycles,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "instructions": self.instructions,
            "messages": self.messages,
            "exceptions": self.exceptions,
        }

    def load_dict(self, data: dict) -> None:
        self.vcycles = int(data["vcycles"])
        self.compute_cycles = int(data["compute_cycles"])
        self.stall_cycles = int(data["stall_cycles"])
        self.instructions = int(data["instructions"])
        self.messages = int(data["messages"])
        self.exceptions = int(data["exceptions"])


@dataclass
class MachineResult:
    vcycles: int
    finished: bool
    displays: list[str]
    counters: PerfCounters
    cache: CacheStats

    def simulation_rate_khz(self, frequency_mhz: float) -> float:
        """Achieved RTL simulation rate given the machine frequency.

        Returns 0.0 for runs that executed no machine cycles (a
        zero-Vcycle budget, or a design that finished before its first
        Vcycle) instead of dividing by zero; report renderers must pair
        the 0.0 with an explicit "did not run / did not finish" note.
        """
        if self.counters.total_cycles == 0 or self.vcycles == 0:
            return 0.0
        return (frequency_mhz * 1e3 * self.vcycles
                / self.counters.total_cycles)

    def status(self) -> str:
        """Human-readable completion status for reports."""
        if self.finished:
            return "finished ($finish reached)"
        if self.vcycles == 0:
            return "did not run (zero Vcycles executed)"
        return f"did not finish (stopped at the {self.vcycles}-Vcycle budget)"


_ZERO_WORD = array("H", [0])


def _zero_words(n: int) -> array:
    return _ZERO_WORD * n


def _refill(words: array, live: list[int]) -> None:
    """Overwrite ``words`` in place with ``live`` plus a zero tail (the
    object keeps its identity, so kernels bound to it stay valid)."""
    words[:len(live)] = array("H", live)
    words[len(live):] = _zero_words(len(words) - len(live))


class _Core:
    """Architectural state of one core.

    The register file and scratchpad are ``array("H")`` - 16-bit words,
    as in the hardware: two bytes a word, packed by one ``tobytes()``,
    and none of them walked by the cyclic garbage collector (which
    visits a list's every item).  Every engine binds these two objects
    by identity, so they are never replaced, only refilled in place
    (:meth:`load_state`).
    """

    __slots__ = ("core_id", "binary", "regs", "scratch", "carry",
                 "predicate", "pending", "queue", "machine", "events")

    def __init__(self, core_id: int, binary: CoreBinary,
                 config: MachineConfig, machine: "Machine",
                 events: tuple) -> None:
        self.core_id = core_id
        self.binary = binary
        self.regs = _zero_words(config.num_registers)
        for reg, value in binary.reg_init.items():
            self.regs[reg] = value & 0xFFFF
        has_scratchpad = (config.scratchpad_cores is None
                          or core_id < config.scratchpad_cores)
        self.scratch = _zero_words(config.scratchpad_words) \
            if has_scratchpad else None
        for addr, value in binary.scratch_init.items():
            if self.scratch is None:
                raise SimulationFailure(
                    f"core {core_id} has no scratchpad but a scratch image"
                )
            self.scratch[addr] = value & 0xFFFF
        self.carry = 0
        self.predicate = 0
        #: delayed writebacks: list of (commit_cycle, reg, value)
        self.pending: list[tuple[int, int, int]] = []
        #: arrived messages: heapq of (arrival_cycle, seq, rd, value);
        #: seq keeps equal arrivals in send order (stable).
        self.queue: list[tuple[int, int, int, int]] = []
        self.machine = machine
        #: non-NOP ``(cycle, instr)`` issue events, shared read-only by
        #: every machine of the program (:class:`_ProgramRecord`)
        self.events = events

    # -- ExecContext protocol -------------------------------------------
    def read_reg(self, reg: int) -> int:
        for _t, r, _v in self.pending:
            if r == reg:
                raise HazardError(
                    f"core {self.core_id}: read of r{reg} with an "
                    "in-flight write (compiler scheduling bug)"
                )
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        # Called via semantics.execute at issue; convert to delayed commit.
        self.pending.append(
            (self.machine.now + self.machine.config.result_latency,
             reg, value & 0xFFFF))

    def commit_writes(self, upto: int) -> None:
        if not self.pending:
            return
        keep = []
        for t, reg, value in self.pending:
            if t <= upto:
                self.regs[reg] = value
            else:
                keep.append((t, reg, value))
        self.pending = keep

    def read_local(self, addr: int) -> int:
        if self.scratch is None:
            raise SimulationFailure(
                f"core {self.core_id} has no scratchpad (heterogeneous "
                "grid misplacement)"
            )
        return self.scratch[addr % len(self.scratch)]

    def write_local(self, addr: int, value: int) -> None:
        if self.scratch is None:
            raise SimulationFailure(
                f"core {self.core_id} has no scratchpad (heterogeneous "
                "grid misplacement)"
            )
        self.scratch[addr % len(self.scratch)] = value & 0xFFFF

    def read_global(self, addr: int) -> int:
        return self.machine.global_read(self.core_id, addr)

    def write_global(self, addr: int, value: int) -> None:
        self.machine.global_write(self.core_id, addr, value)

    def send(self, instr: isa.Send, value: int) -> None:
        self.machine.route_message(self.core_id, instr.target, instr.rd,
                                   value)

    def raise_exception(self, eid: int) -> None:
        self.machine.service_exception(self.core_id, eid)

    def custom_function(self, index: int) -> int:
        return self.binary.cfu[index]

    # -- checkpoint hooks ------------------------------------------------
    def state_dict(self) -> dict:
        """The core's complete architectural state as plain JSON data
        (register file and scratchpad packed via ``pack_words``, zero
        tails stripped - the architected lengths come from the config)."""
        return {
            "regs": pack_words(self.regs, strip_zeros=True),
            "scratch": (None if self.scratch is None
                        else pack_words(self.scratch, strip_zeros=True)),
            "carry": self.carry,
            "predicate": self.predicate,
            "pending": [list(p) for p in self.pending],
            "queue": [list(m) for m in sorted(self.queue)],
        }

    def load_state(self, state: dict) -> None:
        """Inject a :meth:`state_dict` image.  Register/scratch arrays
        are refilled *in place* so fast-engine closures and codegen
        kernels bound to them by object identity keep working after a
        restore."""
        regs = unpack_words(state["regs"])
        if len(regs) > len(self.regs):
            raise ValueError(
                f"core {self.core_id}: snapshot has {len(regs)} registers,"
                f" machine has {len(self.regs)}")
        _refill(self.regs, regs)
        if (state["scratch"] is None) != (self.scratch is None):
            raise ValueError(
                f"core {self.core_id}: snapshot/machine scratchpad "
                "presence mismatch (wrong MachineConfig?)")
        if state["scratch"] is not None:
            scratch = unpack_words(state["scratch"])
            if len(scratch) > len(self.scratch):
                raise ValueError(
                    f"core {self.core_id}: snapshot scratchpad size "
                    f"{len(scratch)} > machine {len(self.scratch)}")
            _refill(self.scratch, scratch)
        self.carry = int(state["carry"])
        self.predicate = int(state["predicate"])
        self.pending = [(int(t), int(r), int(v))
                        for t, r, v in state["pending"]]
        self.queue = [(int(a), int(s), int(rd), int(v))
                      for a, s, rd, v in state["queue"]]
        heapq.heapify(self.queue)


#: Recognized execution engines (see ``repro.machine.fastpath`` and
#: ``repro.machine.codegen``):
#: ``"strict"`` checks hazards, NoC reservations, and receive matching on
#: every event; ``"fast"`` verifies strictly once, then runs compiled
#: per-core kernels; ``"codegen"`` verifies the same way, then runs the
#: schedule emitted as specialized Python source (``exec``'d
#: straight-line grid kernels).
ENGINES = ("strict", "fast", "codegen")

#: The engines that follow the verify-once-then-trust protocol and own a
#: compiled artifact (``Machine._fastpath``).  Everything engine-generic
#: in the trust/checkpoint machinery keys off this set, so a new
#: compiled tier only has to register here.
COMPILED_ENGINES = ("fast", "codegen")

#: Compiled engines whose trusted kernels stay valid across serviced
#: exceptions (``services_exceptions`` on the engine class): the
#: privileged service routine mutates no core-visible register state,
#: so an exception during a verification Vcycle need not defer trust
#: and an exception during a trusted Vcycle need not revoke it.
EXCEPTION_SERVICING_ENGINES = ("codegen",)


class _ProgramRecord:
    """What every machine of one program object shares.

    ``events`` is the Vcycle schedule - all ``(cycle, core,
    instr|"recv")`` events, sorted - and ``core_events`` each core's
    non-NOP ``(cycle, instr)`` issue events; both are read-only.
    ``verified`` holds the :class:`MachineConfig` s under which a
    compiled-engine machine finished its verification countdown without
    a fault.  Under static BSP issue order, routing and writeback timing
    are data-independent, so that proof holds for every later machine
    of the same program object and config: they start trusted, as with
    ``fastpath_verify_vcycles=0``.  ``kernel_keys`` memoizes the codegen
    kernel key per config (:func:`repro.machine.codegen._content_key`),
    since deriving it serializes the whole program.

    None of these read a boot image, so the per-stimulus variants of a
    program (:func:`share_record`) share its record: one schedule, one
    verification, one kernel key.
    """

    __slots__ = ("events", "core_events", "verified", "kernel_keys")

    def __init__(self, program: MachineProgram) -> None:
        self.core_events = {
            cid: tuple((cycle, instr)
                       for cycle, instr in enumerate(binary.body)
                       if not isinstance(instr, isa.Nop))
            for cid, binary in program.cores.items()}
        events: list[tuple[int, int, object]] = []
        for cid, binary in program.cores.items():
            for cycle, instr in self.core_events[cid]:
                events.append((cycle, cid, instr))
            epi_start = len(binary.body)
            for k in range(binary.epilogue_length):
                events.append((epi_start + k, cid, "recv"))
        events.sort(key=lambda e: (e[0], e[1]))
        self.events = tuple(events)
        self.verified: set[MachineConfig] = set()
        self.kernel_keys: dict[MachineConfig, str] = {}


#: ``id(program)`` -> its :class:`_ProgramRecord`, evicted with the
#: program so ids cannot alias (programs are never mutated after
#: compile).  A recompiled or unpickled program is a new object, so it
#: is scheduled and verified afresh.
_RECORDS: dict[int, _ProgramRecord] = {}


def _program_record(program: MachineProgram) -> _ProgramRecord:
    pid = id(program)
    record = _RECORDS.get(pid)
    if record is None:
        record = _register(program, _ProgramRecord(program))
    return record


def _register(program: MachineProgram,
              record: _ProgramRecord) -> _ProgramRecord:
    pid = id(program)
    try:
        weakref.finalize(program, _RECORDS.pop, pid, None)
    except TypeError:
        return record
    # Two threads may build at once; both keep the first stored.
    return _RECORDS.setdefault(pid, record)


def share_record(variant: MachineProgram, program: MachineProgram) -> None:
    """Give ``variant`` - ``program`` with other boot images and the same
    instruction schedule (:func:`repro.machine.batch.rebind_reg_inits`) -
    ``program``'s record, so its machines neither rebuild the schedule,
    re-verify it, nor re-derive the kernel key."""
    if variant is not program and id(variant) not in _RECORDS:
        _register(variant, _program_record(program))


class Machine:
    """The whole grid in lockstep."""

    def __init__(self, program: MachineProgram,
                 config: MachineConfig | None = None,
                 exception_stall: int = 500,
                 engine: str | None = None,
                 profiler=None) -> None:
        self.program = program
        #: optional :class:`repro.obs.profiler.Profiler`; observation
        #: only - attaching one never changes results or counters
        #: (``tests/test_obs_perturbation.py``), and ``None`` keeps every
        #: hot loop on its unhooked path.
        self.profiler = profiler
        self.config = config or MachineConfig(
            grid_x=program.grid[0], grid_y=program.grid[1])
        if (self.config.grid_x, self.config.grid_y) != program.grid:
            raise ValueError("program was compiled for a different grid")
        if engine is None:
            engine = "strict"
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of "
                             f"{ENGINES}")
        self.engine = engine
        self.exception_stall = exception_stall
        self.counters = PerfCounters()
        self.cache = Cache(self.config, dram=dict(program.global_init))
        record = _program_record(program)
        self.cores = {
            cid: _Core(cid, binary, self.config, self,
                       record.core_events[cid])
            for cid, binary in program.cores.items()
        }
        self.displays: list[str] = []
        self.finished = False
        self.now = 0               # compute-domain cycle within the Vcycle
        self._link_busy: set[tuple] = set()
        self._msg_seq = 0
        self._vcycle_events = record.events
        #: resume position of a partially executed Vcycle (the checking
        #: engines can pause between events - ``step_events`` - which is
        #: what lets checkpoints capture in-flight messages and pending
        #: writebacks); 0 means "at a Vcycle boundary".
        self._event_pos = 0
        #: counter values at the start of the Vcycle currently in
        #: progress (None at a boundary) - lets a Vcycle split across
        #: pauses/restores still report exact per-Vcycle profiler deltas.
        self._vcycle_base: tuple | None = None
        # Verify-once-then-trust state (the COMPILED_ENGINES): the
        # compiled engine, whether it is currently trusted, and how many
        # strict verification Vcycles remain before (re-)trusting it.
        self._fastpath = None
        self._fastpath_error: str | None = None
        self._trusted = False
        self._verify_left = max(0, self.config.fastpath_verify_vcycles)
        self._adopt_verdict()
        if profiler is not None:
            profiler.attach(self)

    # -- global services ---------------------------------------------------
    def global_read(self, core_id: int, addr: int) -> int:
        self._check_privileged(core_id)
        if self.profiler is None:
            value, stall = self.cache.read(addr)
            self.counters.stall_cycles += stall
            return value
        stats = self.cache.stats
        hits, writebacks = stats.hits, stats.writebacks
        value, stall = self.cache.read(addr)
        self.counters.stall_cycles += stall
        self._profile_cache_op(core_id, "read", stall,
                               stats.hits > hits,
                               stats.writebacks > writebacks)
        return value

    def global_write(self, core_id: int, addr: int, value: int) -> None:
        self._check_privileged(core_id)
        if self.profiler is None:
            stall = self.cache.write(addr, value)
            self.counters.stall_cycles += stall
            return
        stats = self.cache.stats
        hits, writebacks = stats.hits, stats.writebacks
        stall = self.cache.write(addr, value)
        self.counters.stall_cycles += stall
        self._profile_cache_op(core_id, "write", stall,
                               stats.hits > hits,
                               stats.writebacks > writebacks)

    def _profile_cache_op(self, core_id: int, op: str, stall: int,
                          hit: bool, writeback: bool) -> None:
        self.profiler.record_cache_op(
            core_id, op, "hit" if hit else "miss", stall,
            self.config.cache_writeback_stall if writeback else 0)

    def _check_privileged(self, core_id: int) -> None:
        if core_id != self.program.privileged_core:
            raise SimulationFailure(
                f"core {core_id} executed a privileged instruction but "
                f"core {self.program.privileged_core} is privileged"
            )

    def route_message(self, src: int, dst: int, rd: int, value: int) -> None:
        cfg = self.config
        route = cfg.route(src, dst)
        t0 = self.now + cfg.noc_inject_latency
        slots = [((kind, x, y), t0 + j)
                 for j, (kind, x, y) in enumerate(route)]
        arrival = t0 + len(route) + cfg.noc_eject_latency
        slots.append((("EJ", dst), arrival))
        for slot in slots:
            if slot in self._link_busy:
                raise NoCDropError(
                    f"link collision on {slot[0]} at cycle {slot[1]} "
                    f"(message {src}->{dst})"
                )
        self._link_busy.update(slots)
        self._msg_seq += 1
        heapq.heappush(self.cores[dst].queue,
                       (arrival, self._msg_seq, rd, value))
        self.counters.messages += 1
        if self.profiler is not None:
            self.profiler.record_message(src, dst, route)

    def service_exception(self, core_id: int, eid: int) -> None:
        self._check_privileged(core_id)
        self.counters.exceptions += 1
        self.counters.stall_cycles += self.exception_stall
        if self.profiler is not None:
            self.profiler.record_exception(core_id, self.exception_stall)
        # Host flushes the cache, then reads DRAM (paper SSA.3.2).
        self.cache.flush()
        verdict, text = self.program.exceptions.service(
            eid, lambda addr: self.cache.dram.get(addr, 0))
        if verdict == "finish":
            self.finished = True
        elif text is not None:
            self.displays.append(text)

    # -- execution -----------------------------------------------------------
    def _ensure_fastpath(self) -> bool:
        """Compile this engine's trusted artifact on first demand; on
        failure remember why and stay on the strict engine forever."""
        if self._fastpath is None and self._fastpath_error is None:
            if self.engine == "codegen":
                from .codegen import CodegenUnsupported, compile_codegen
                try:
                    with _span("machine.codegen.compile"):
                        self._fastpath = compile_codegen(self)
                except CodegenUnsupported as exc:
                    self._fastpath_error = str(exc)
            else:
                from .fastpath import FastpathUnsupported, compile_fastpath
                try:
                    with _span("machine.fastpath.compile"):
                        self._fastpath = compile_fastpath(self)
                except FastpathUnsupported as exc:
                    self._fastpath_error = str(exc)
        return self._fastpath is not None

    def _adopt_verdict(self) -> bool:
        """Trust a compiled-engine machine that has run nothing yet and
        needs no verification: ``fastpath_verify_vcycles=0``, or a
        machine of its program object verified the schedule under this
        config - before this one was built, or after it (a machine built
        up front, before its program's first machine ran)."""
        if (self.counters.vcycles or self._event_pos
                or self.engine not in COMPILED_ENGINES):
            return False
        if self.config in _program_record(self.program).verified:
            self._verify_left = 0
        if self._verify_left == 0:
            self._trusted = self._ensure_fastpath()
        return self._trusted

    def _sync_compiled(self) -> None:
        """Flush any compiled-engine state held outside the cores (the
        codegen kernel's frame locals) back into architectural state, so
        observers - ``peek_reg``, checkpoints, a finished ``run`` - see
        exactly what the strict engine would."""
        if self._fastpath is not None:
            self._fastpath.sync()

    def step_vcycle(self) -> None:
        """Execute one full Vcycle across the grid.

        With ``engine="fast"`` this applies the verify-once-then-trust
        protocol: strict Vcycles until ``config.fastpath_verify_vcycles``
        clean ones have run (none if a machine of the same program
        object and config already did), then the compiled trace; any
        Vcycle with an exception drops trust for one strict
        (re-verifying) Vcycle.

        If the machine was restored from a mid-Vcycle checkpoint
        (``_event_pos != 0``) the call first *completes* that partial
        Vcycle, so the boundary Vcycle is never duplicated or skipped.
        """
        if self.finished:
            return
        if not self._trusted and not self._adopt_verdict():
            self.step_events(None)
            return
        prof = self.profiler
        if prof is not None:
            c = self.counters
            index = c.vcycles
            before = (c.compute_cycles, c.stall_cycles, c.instructions,
                      c.messages, c.exceptions)
        exceptions_before = self.counters.exceptions
        self._fastpath.run_vcycle()
        if (self.counters.exceptions != exceptions_before
                and not self._fastpath.services_exceptions):
            self._trusted = False
            self._verify_left = max(self._verify_left, 1)
        if prof is not None:
            c = self.counters
            prof.end_vcycle(index, c.compute_cycles - before[0],
                            c.stall_cycles - before[1],
                            c.instructions - before[2],
                            c.messages - before[3],
                            c.exceptions - before[4])

    def step_events(self, max_events: int | None) -> bool:
        """Advance the current Vcycle by up to ``max_events`` events
        under the checking engine; returns True once the Vcycle (and its
        end-of-Vcycle drain) completed, False when paused mid-Vcycle.

        Pausing mid-Vcycle is what gives checkpoints access to the
        "awkward" states - messages in flight on the NoC, delayed
        writebacks pending, the link-reservation set half-populated.
        Only the event-loop engines can pause; the trusted fast path
        executes whole Vcycles atomically.
        """
        if self.finished:
            return True
        if self._trusted:
            raise ValueError(
                "mid-Vcycle stepping requires the checking engine (the "
                "trusted fast path executes Vcycles atomically)")
        if self._vcycle_base is None:
            c = self.counters
            self._vcycle_base = (c.vcycles, c.compute_cycles,
                                 c.stall_cycles, c.instructions,
                                 c.messages, c.exceptions)
        stop = None if max_events is None else self._event_pos + max_events
        if not self._step_vcycle_strict(stop):
            return False
        base = self._vcycle_base
        self._vcycle_base = None
        if self.engine in COMPILED_ENGINES:
            self._verify_left -= 1
            if (self.counters.exceptions != base[5]
                    and self.engine not in EXCEPTION_SERVICING_ENGINES):
                self._verify_left = max(self._verify_left, 1)
            elif self._verify_left <= 0 and self._ensure_fastpath():
                self._trusted = True
                _program_record(self.program).verified.add(self.config)
        prof = self.profiler
        if prof is not None:
            c = self.counters
            prof.end_vcycle(base[0], c.compute_cycles - base[1],
                            c.stall_cycles - base[2],
                            c.instructions - base[3],
                            c.messages - base[4],
                            c.exceptions - base[5])
        return True

    def _step_vcycle_strict(self, stop_event: int | None = None) -> bool:
        """The checking engine: dynamic dispatch, hazard faults, NoC
        reservation checks, receive-slot matching.  Resumes from
        ``_event_pos`` and optionally pauses before event ``stop_event``
        (returning False); returns True when the Vcycle completed."""
        from ..isa.semantics import execute

        prof = self.profiler
        events = self._vcycle_events
        pos = self._event_pos
        if pos == 0:
            self._link_busy.clear()
        vcpl = self.program.vcpl
        n_events = len(events)
        while pos < n_events:
            if stop_event is not None and pos >= stop_event:
                self._event_pos = pos
                return False
            cycle, cid, item = events[pos]
            pos += 1
            self.now = cycle
            core = self.cores[cid]
            core.commit_writes(cycle)
            if item == "recv":
                if not core.queue:
                    raise NoCDropError(
                        f"core {cid}: receive slot at cycle {cycle} has "
                        "no queued message"
                    )
                arrival, _seq, rd, value = heapq.heappop(core.queue)
                if arrival > cycle:
                    raise NoCDropError(
                        f"core {cid}: message arrives at {arrival} after "
                        f"its receive slot at {cycle}"
                    )
                core.regs[rd] = value & 0xFFFF
                if prof is not None:
                    prof.record_receive(cid)
            else:
                execute(item, core)  # type: ignore[arg-type]
                self.counters.instructions += 1
                if prof is not None:
                    prof.record_instruction(cid)
            if self.finished:
                break

        # End of Vcycle: drain all pending writebacks (the scheduler
        # guarantees vcpl >= last issue + result_latency).
        for core in self.cores.values():
            core.commit_writes(vcpl)
            if core.queue and not self.finished:
                raise NoCDropError(
                    f"core {core.core_id}: {len(core.queue)} messages "
                    "left unconsumed at Vcycle end"
                )
        self.counters.vcycles += 1
        self.counters.compute_cycles += vcpl
        self.now = 0
        self._event_pos = 0
        return True

    def _run_bulk(self, until: int) -> bool:
        """One trusted bulk call toward Vcycle ``until``; returns False,
        having run nothing, unless the machine is trusted, unprofiled
        and its compiled engine has a bulk loop.

        The engine may return early - after a non-clean Vcycle, at a
        tier boundary - so callers loop while budget remains.  Kernel
        state is not synced back to the cores; observers (the end of
        ``run``, ``checkpoint_state``) sync it.
        """
        fp = self._fastpath
        if not self._trusted or self.profiler is not None \
                or not hasattr(fp, "run_vcycles"):
            return False
        before = self.counters.exceptions
        fp.run_vcycles(until - self.counters.vcycles)
        if (self.counters.exceptions != before
                and not fp.services_exceptions):
            self._trusted = False
            self._verify_left = max(self._verify_left, 1)
        return True

    def run(self, max_vcycles: int) -> MachineResult:
        with _span("machine.run", engine=self.engine,
                   budget=max_vcycles) as s:
            while not self.finished and self.counters.vcycles < max_vcycles:
                if not self._run_bulk(max_vcycles):
                    self.step_vcycle()
            self._sync_compiled()
            if s is not None:
                s.args["vcycles"] = self.counters.vcycles
        return MachineResult(
            vcycles=self.counters.vcycles,
            finished=self.finished,
            displays=list(self.displays),
            counters=self.counters,
            cache=self.cache.stats,
        )

    # -- probes ---------------------------------------------------------------
    def peek_reg(self, core_id: int, reg: int) -> int:
        self._sync_compiled()
        return self.cores[core_id].regs[reg]

    # -- checkpoint hooks ------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """The machine's complete dynamic state as plain JSON data.

        Everything :class:`repro.checkpoint` needs to reconstruct a
        bit-identical continuation: per-core architectural state,
        cache + DRAM, machine-wide counters, exception-side displays,
        the mid-Vcycle event position with its NoC link reservations,
        and the fast engine's trust state.  An attached profiler's
        counters ride along so resumed profiles merge seamlessly.
        The program binary and :class:`MachineConfig` are *not* part of
        this dict - the checkpoint layer records them separately.
        """
        self._sync_compiled()
        state = {
            "engine": self.engine,
            "exception_stall": self.exception_stall,
            "counters": self.counters.as_dict(),
            "cache": self.cache.state_dict(),
            "cores": {str(cid): core.state_dict()
                      for cid, core in self.cores.items()},
            "displays": list(self.displays),
            "finished": self.finished,
            "now": self.now,
            "msg_seq": self._msg_seq,
            # Link reservations are cleared at the start of every Vcycle
            # before any event reads them, so at a Vcycle boundary the
            # surviving set is dead weight - only mid-Vcycle snapshots
            # need it (and it can be thousands of entries).
            "link_busy": (sorted([list(link), cycle]
                                 for link, cycle in self._link_busy)
                          if self._event_pos else []),
            "event_pos": self._event_pos,
            "vcycle_base": (None if self._vcycle_base is None
                            else list(self._vcycle_base)),
            "fastpath": {"trusted": self._trusted,
                         "verify_left": self._verify_left},
        }
        if self.profiler is not None:
            state["profiler"] = self.profiler.state_dict()
        return state

    def load_checkpoint_state(self, state: dict) -> None:
        """Inject a :meth:`checkpoint_state` image into this machine.

        The machine must have been constructed from the same program and
        config the state was captured under (the checkpoint layer
        verifies fingerprints before calling this).  If the snapshot was
        taken with a compiled engine trusted, the compiled kernels are
        rebuilt immediately from the static schedule - no strict
        re-verification Vcycles - restoring the exact trust state of the
        interrupted run.
        """
        if self._fastpath is not None:
            # Any live compiled state (the codegen kernel's frame
            # locals) is about to be stale: drop it un-flushed so the
            # restored architectural state wins.
            self._fastpath.invalidate()
        for cid_str, core_state in state["cores"].items():
            cid = int(cid_str)
            if cid not in self.cores:
                raise ValueError(
                    f"snapshot names core {cid} which this program does "
                    "not map (program/snapshot mismatch)")
            self.cores[cid].load_state(core_state)
        self.cache.load_state(state["cache"])
        self.counters.load_dict(state["counters"])
        self.displays = [str(s) for s in state["displays"]]
        self.finished = bool(state["finished"])
        self.now = int(state["now"])
        self._msg_seq = int(state["msg_seq"])
        self._link_busy = {
            ((str(link[0]),) + tuple(int(v) for v in link[1:]), int(cycle))
            for link, cycle in state["link_busy"]
        }
        self._event_pos = int(state["event_pos"])
        base = state["vcycle_base"]
        self._vcycle_base = None if base is None else tuple(
            int(v) for v in base)
        fast = state["fastpath"]
        self._verify_left = int(fast["verify_left"])
        self._trusted = False
        if bool(fast["trusted"]) and self.engine in COMPILED_ENGINES:
            # Rebuild the verified closures from the (cached) compile
            # artifact instead of burning strict re-verification
            # Vcycles: the trust was earned before the snapshot and the
            # static schedule has not changed (fingerprint-checked).
            if self._ensure_fastpath():
                self._trusted = True
            else:
                # Fastpath no longer compiles (should be impossible for
                # a fingerprint-matched program): stay on the checking
                # engine - slower but still bit-identical.
                self._verify_left = max(self._verify_left, 1)
        if self.profiler is not None and "profiler" in state:
            self.profiler.load_state(state["profiler"])
