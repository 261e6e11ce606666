"""Custom function synthesis (paper SS6.2).

Collapses chains of bitwise logic instructions (AND/OR/XOR, including the
XOR-with-constant NOTs produced by lowering) into single 4-input custom
instructions evaluated by each core's CFU.

Method, mirroring the paper:

1. per process, prune the dependence graph to logic-only connected
   components;
2. exhaustively enumerate 4-feasible cuts (cut enumeration [16]);
   constant operands are *free* because the per-bit-position truth tables
   absorb them (SS5.1);
3. keep cuts that are maximal fanout-free cones (no interior result used
   outside the cone);
4. group candidate cones by the function they compute - logical
   equivalence up to input permutation, checked on the 256-bit truth
   table.  The table is bit-sliced: inputs and constants become 256-bit
   ints holding all 16 rows at every bit position, so one pass of
   Python ``&``/``|``/``^`` over the cone yields the whole config.  The
   canonical (smallest) config over input orders is then found by
   remapping the rows of the table's distinct 16-bit lanes through a
   precomputed table per permutation - no re-evaluation;
5. select a non-overlapping subset maximizing instruction savings, with
   at most 32 distinct functions per core, via MILP
   (``scipy.optimize.milp``) with a greedy fallback; numpy and scipy are
   imported only there, so the greedy selector needs neither.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from ..isa import instructions as isa
from ..isa.program import Process, ProgramImage

LOGIC_OPS = {"AND", "OR", "XOR"}
MAX_CUT_INPUTS = 4
MAX_CUTS_PER_NODE = 12
MILP_CANDIDATE_LIMIT = 400


def _is_const(reg: isa.Reg) -> bool:
    return isinstance(reg, str) and reg.startswith("$c")


@dataclass
class Candidate:
    """A fusable cone: ``root`` (body index) plus interior instructions."""

    root: int
    cone: frozenset[int]
    inputs: tuple[str, ...]     # non-constant cut inputs, canonical order
    config: int                 # 256-bit CFU configuration
    savings: int


@dataclass
class ProcessSynthesisStats:
    pid: int
    instructions_before: int
    instructions_after: int
    fused_cones: int
    functions_used: int


@dataclass
class CustomSynthesisResult:
    per_process: list[ProcessSynthesisStats] = field(default_factory=list)

    @property
    def instructions_before(self) -> int:
        return sum(p.instructions_before for p in self.per_process)

    @property
    def instructions_after(self) -> int:
        return sum(p.instructions_after for p in self.per_process)

    @property
    def reduction_percent(self) -> float:
        before = self.instructions_before
        if before == 0:
            return 0.0
        return 100.0 * (before - self.instructions_after) / before


#: Bit-sliced truth tables hold one 16-bit lane per bit position: bit
#: ``pos*16 + row`` is output bit ``pos`` when CFU input ``i`` carries
#: bit ``(row >> i) & 1`` at every position - the CFU config layout.
_REP = sum(1 << (16 * pos) for pos in range(16))
#: Input ``i``'s table: row ``r`` reads ``(r >> i) & 1`` in every lane.
_INPUT_TABLES = tuple(pattern * _REP
                      for pattern in (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00))
_SLICED_OPS = {"AND": operator.and_, "OR": operator.or_, "XOR": operator.xor}


class _SlicedConsts(dict):
    """A process's ``$c...`` registers as bit-sliced tables, built on
    first read; ``raw`` keeps the plain values.  Reading anything else
    raises ``KeyError``."""

    def __init__(self, raw: dict[str, int]) -> None:
        super().__init__()
        self.raw = raw

    def __missing__(self, reg: str) -> int:
        value = self.raw[reg] & 0xFFFF
        table = 0
        for pos in range(16):
            if (value >> pos) & 1:
                table |= 0xFFFF << (16 * pos)
        self[reg] = table
        return table


def _cone_table(body: list[isa.Instruction], cone: frozenset[int],
                inputs: tuple[str, ...], consts: _SlicedConsts,
                root: int) -> int:
    """The cone's 256-bit truth table with ``inputs[i]`` on CFU input
    ``i``: one pass over the cone on bit-sliced operands (cones are
    AND/OR/XOR only, so all 16 rows evaluate at once)."""
    values = dict(zip(inputs, _INPUT_TABLES))
    for i in sorted(cone):
        instr = body[i]
        assert isinstance(instr, isa.Alu)
        a = values[instr.rs1] if instr.rs1 in values else consts[instr.rs1]
        b = values[instr.rs2] if instr.rs2 in values else consts[instr.rs2]
        values[instr.rd] = _SLICED_OPS[instr.op](a, b)
    return values[body[root].rd]  # type: ignore[union-attr]


def _row_remaps(k: int) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    """``(perm, lo, hi)`` for every permutation of ``range(k)`` in
    ``itertools.permutations`` order.  Putting ``inputs[perm[j]]`` on CFU
    input ``j`` moves row ``s`` of a 16-bit lane to row ``(s & high) |
    sum(((s >> perm[j]) & 1) << j)``; rows with bits at or above ``k`` pass
    through because the table repeats there.  ``lo[b] | hi[b']`` is the
    remapped lane of ``b | b' << 8``."""
    high = 0xF & ~((1 << k) - 1)
    remaps = []
    for perm in itertools.permutations(range(k)):
        dest = [(s & high) | sum(((s >> p) & 1) << j
                                 for j, p in enumerate(perm))
                for s in range(16)]
        lo, hi = [0] * 256, [0] * 256
        for b in range(1, 256):
            low = (b & -b).bit_length() - 1
            lo[b] = lo[b & (b - 1)] | (1 << dest[low])
            hi[b] = hi[b & (b - 1)] | (1 << dest[low + 8])
        remaps.append((perm, lo, hi))
    return remaps


#: Row remaps per input count: 1 + 1 + 2 + 6 + 24 entries.
_REMAPS = tuple(_row_remaps(k) for k in range(MAX_CUT_INPUTS + 1))


def _canonicalize(body, cone, inputs, consts, root) -> tuple[int, tuple]:
    """Minimum config over input permutations (logic equivalence class).

    The cone is evaluated once; each permutation remaps the rows of the
    table's distinct 16-bit lanes.  Ties keep the first permutation."""
    table = _cone_table(body, cone, inputs, consts, root)
    lanes: dict[int, int] = {}  # distinct lane -> its positions, as REP bits
    for pos in range(16):
        lane = (table >> (16 * pos)) & 0xFFFF
        lanes[lane] = lanes.get(lane, 0) | (1 << (16 * pos))
    best_config = None
    best_inputs = inputs
    for perm, lo, hi in _REMAPS[len(inputs)]:
        config = 0
        for lane, positions in lanes.items():
            config |= (lo[lane & 0xFF] | hi[lane >> 8]) * positions
        if best_config is None or config < best_config:
            best_config = config
            best_inputs = tuple(inputs[i] for i in perm)
    return best_config or 0, best_inputs


def _enumerate_candidates(proc: Process) -> list[Candidate]:
    body = proc.body
    defs: dict[str, int] = {}
    consumers: dict[str, int] = {}
    for i, instr in enumerate(body):
        for reg in instr.writes():
            defs[reg] = i
        for reg in instr.reads():
            consumers[reg] = consumers.get(reg, 0) + 1

    logic = {
        i for i, instr in enumerate(body)
        if isinstance(instr, isa.Alu) and instr.op in LOGIC_OPS
    }
    consts = _SlicedConsts({reg: proc.reg_init[reg]
                            for reg in proc.reg_init if _is_const(reg)})

    # Cut enumeration, bottom-up in body order (bodies are topological).
    cuts: dict[int, list[frozenset[str]]] = {}
    for i in sorted(logic):
        instr = body[i]
        operand_cuts: list[list[frozenset[str]]] = []
        for reg in (instr.rs1, instr.rs2):  # type: ignore[union-attr]
            if _is_const(reg):
                operand_cuts.append([frozenset()])
                continue
            d = defs.get(reg)
            options = [frozenset([reg])]
            if d is not None and d in logic:
                options.extend(cuts.get(d, ()))
            operand_cuts.append(options)
        merged: set[frozenset[str]] = set()
        for a in operand_cuts[0]:
            for b in operand_cuts[1]:
                u = a | b
                if len(u) <= MAX_CUT_INPUTS:
                    merged.add(u)
        ranked = sorted(merged, key=lambda c: (len(c), sorted(c)))
        cuts[i] = ranked[:MAX_CUTS_PER_NODE]

    def cone_of(root: int, cut: frozenset[str]) -> frozenset[int] | None:
        cone: set[int] = set()
        stack = [root]
        while stack:
            i = stack.pop()
            if i in cone:
                continue
            cone.add(i)
            instr = body[i]
            for reg in instr.reads():
                if _is_const(reg) or reg in cut:
                    continue
                d = defs.get(reg)
                if d is None or d not in logic:
                    return None  # cut does not actually cover this cone
                stack.append(d)
        return frozenset(cone)

    candidates: list[Candidate] = []
    for root in sorted(logic):
        root_result = body[root].writes()[0]
        for cut in cuts.get(root, ()):
            cone = cone_of(root, cut)
            if cone is None or len(cone) < 2:
                continue
            # MFFC: interior results must have all consumers inside.
            interior_ok = True
            for i in cone:
                if i == root:
                    continue
                result = body[i].writes()[0]
                uses = consumers.get(result, 0)
                internal = sum(
                    1 for j in cone for reg in body[j].reads()
                    if reg == result
                )
                if uses != internal:
                    interior_ok = False
                    break
            if not interior_ok:
                continue
            inputs = tuple(sorted(cut))
            config, ordered = _canonicalize(body, cone, inputs, consts, root)
            candidates.append(Candidate(
                root=root, cone=cone, inputs=ordered, config=config,
                savings=len(cone) - 1,
            ))
    return candidates


def _select_greedy(candidates: list[Candidate],
                   max_functions: int) -> list[Candidate]:
    chosen: list[Candidate] = []
    used: set[int] = set()
    functions: set[int] = set()
    # Prefer high savings; among equals prefer reusable functions.
    for cand in sorted(candidates, key=lambda c: (-c.savings, c.root)):
        if cand.cone & used:
            continue
        if cand.config not in functions and len(functions) >= max_functions:
            continue
        chosen.append(cand)
        used |= cand.cone
        functions.add(cand.config)
    return chosen


def _select_milp(candidates: list[Candidate],
                 max_functions: int) -> list[Candidate] | None:
    """Exact selection via scipy MILP; None when unavailable/failed."""
    try:
        import numpy as np
        from scipy.optimize import LinearConstraint, Bounds, milp
    except ImportError:  # pragma: no cover
        return None
    configs = sorted({c.config for c in candidates})
    f_index = {cfg: i for i, cfg in enumerate(configs)}
    n_x = len(candidates)
    n_y = len(configs)
    n = n_x + n_y
    cost = np.zeros(n)
    cost[:n_x] = [-c.savings for c in candidates]

    rows, cols, vals = [], [], []
    row = 0
    lows, highs = [], []
    # Overlap: for each instruction, sum of covering x <= 1.
    coverage: dict[int, list[int]] = {}
    for ci, cand in enumerate(candidates):
        for i in cand.cone:
            coverage.setdefault(i, []).append(ci)
    for i, cands in coverage.items():
        if len(cands) < 2:
            continue
        for ci in cands:
            rows.append(row)
            cols.append(ci)
            vals.append(1.0)
        lows.append(-np.inf)
        highs.append(1.0)
        row += 1
    # Linking: x_c - y_f <= 0.
    for ci, cand in enumerate(candidates):
        rows.append(row)
        cols.append(ci)
        vals.append(1.0)
        rows.append(row)
        cols.append(n_x + f_index[cand.config])
        vals.append(-1.0)
        lows.append(-np.inf)
        highs.append(0.0)
        row += 1
    # Function budget: sum y <= max_functions.
    for fi in range(n_y):
        rows.append(row)
        cols.append(n_x + fi)
        vals.append(1.0)
    lows.append(-np.inf)
    highs.append(float(max_functions))
    row += 1

    from scipy.sparse import coo_matrix
    a = coo_matrix((vals, (rows, cols)), shape=(row, n))
    constraint = LinearConstraint(a, lows, highs)
    res = milp(cost, constraints=[constraint],
               integrality=np.ones(n),
               bounds=Bounds(0, 1),
               options={"time_limit": 10.0})
    if not res.success or res.x is None:
        return None
    return [candidates[i] for i in range(n_x) if res.x[i] > 0.5]


#: Padding operand for CFU slots beyond a cone's real inputs.
ZERO_REG = "$c0000"


def _synthesize_process(pid: int, proc: Process, max_functions: int,
                        use_milp: bool,
                        ) -> tuple[list[isa.Instruction], list[int],
                                   bool, ProcessSynthesisStats]:
    """Synthesis for one process as a pure function.

    Returns ``(new_body, cfu, needs_zero, stats)`` without mutating
    ``proc``; :func:`synthesize_custom_functions` applies them.
    """
    before = len(proc.body)
    candidates = _enumerate_candidates(proc)
    chosen: list[Candidate] | None = None
    if use_milp and 0 < len(candidates) <= MILP_CANDIDATE_LIMIT:
        chosen = _select_milp(candidates, max_functions)
    if chosen is None:
        chosen = _select_greedy(candidates, max_functions)

    # Assign function indices (dedup by config).
    cfu: list[int] = []
    func_of: dict[int, int] = {}
    for cand in chosen:
        if cand.config not in func_of:
            func_of[cand.config] = len(cfu)
            cfu.append(cand.config)

    # Rewrite the body.
    replace: dict[int, isa.Instruction] = {}
    delete: set[int] = set()
    needs_zero = False
    for cand in chosen:
        rd = proc.body[cand.root].writes()[0]
        rs = list(cand.inputs)
        while len(rs) < 4:
            rs.append(ZERO_REG)
            needs_zero = True
        replace[cand.root] = isa.Custom(rd, func_of[cand.config],
                                        tuple(rs))
        delete |= cand.cone - {cand.root}
    new_body = [
        replace.get(i, instr) for i, instr in enumerate(proc.body)
        if i not in delete
    ]
    stats = ProcessSynthesisStats(
        pid=pid,
        instructions_before=before,
        instructions_after=len(new_body),
        fused_cones=len(chosen),
        functions_used=len(cfu),
    )
    return new_body, cfu, needs_zero, stats


def synthesize_custom_functions(image: ProgramImage,
                                max_functions: int =
                                isa.NUM_CUSTOM_FUNCTIONS,
                                use_milp: bool = True,
                                ) -> CustomSynthesisResult:
    """Fuse logic chains in every process; mutates ``image`` in place."""
    result = CustomSynthesisResult()
    for pid in sorted(image.processes):
        proc = image.processes[pid]
        new_body, cfu, needs_zero, stats = _synthesize_process(
            pid, proc, max_functions, use_milp)
        if needs_zero:
            proc.reg_init.setdefault(ZERO_REG, 0)
        proc.body = new_body
        proc.cfu = cfu
        result.per_process.append(stats)
    return result
