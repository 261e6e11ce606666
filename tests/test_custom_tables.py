"""Custom-function truth tables: bit-sliced evaluator vs the per-row one.

``custom._canonicalize`` evaluates a cone once on bit-sliced operands and
finds the canonical input order by remapping the rows of that one table.
The per-row evaluator it replaced is frozen below, copied verbatim, and
must agree with it on ``(config, inputs)`` for every cone the compiler
canonicalises - over the design registry, the fuzz corpus, seeded fuzz
circuits and a logic-heavy circuit - and on hand-written edge cases
(no inputs, special constants, a repeated input, permutation ties).
"""

from __future__ import annotations

import glob
import itertools
import os

import pytest

from repro import isa
from repro.compiler import CompilerOptions, compile_circuit
from repro.compiler import custom
from repro.designs import DESIGNS
from repro.fuzz import load_entry
from repro.fuzz.generator import generate, logic_heavy_circuit
from repro.isa.semantics import eval_alu
from repro.machine import MachineConfig

CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.json")))
FUZZ_SEEDS = range(100)


# ---------------------------------------------------------------------------
# Frozen reference: the per-row evaluator, verbatim.
# ---------------------------------------------------------------------------

def _evaluate_cone(body: list[isa.Instruction], cone_order: list[int],
                   assignment: dict[str, int], root: int) -> int:
    values = dict(assignment)
    for i in cone_order:
        instr = body[i]
        assert isinstance(instr, isa.Alu)
        a = values[instr.rs1]
        b = values[instr.rs2]
        values[instr.rd] = eval_alu(instr.op, a, b)
    return values[body[root].rd]  # type: ignore[union-attr]


def _cone_config(body: list[isa.Instruction], cone: frozenset[int],
                 inputs: tuple[str, ...], consts: dict[str, int],
                 root: int) -> int:
    """256-bit truth table: row r of position p = output bit p when input
    i carries bit (r >> i) & 1 at every position."""
    cone_order = sorted(cone)
    config = 0
    for row in range(16):
        assignment = dict(consts)
        for i, reg in enumerate(inputs):
            assignment[reg] = 0xFFFF if (row >> i) & 1 else 0
        word = _evaluate_cone(body, cone_order, assignment, root)
        for pos in range(16):
            if (word >> pos) & 1:
                config |= 1 << (pos * 16 + row)
    return config


def _canonicalize(body, cone, inputs, consts, root) -> tuple[int, tuple]:
    """Minimum config over input permutations (logic equivalence class)."""
    best_config = None
    best_inputs = inputs
    for perm in itertools.permutations(inputs):
        config = _cone_config(body, cone, perm, consts, root)
        if best_config is None or config < best_config:
            best_config = config
            best_inputs = perm
    return best_config or 0, best_inputs


# ---------------------------------------------------------------------------
# Differential check over every cone a compile canonicalises.
# ---------------------------------------------------------------------------

def _shape(body, cone, inputs, consts, root):
    """The cone with registers replaced by what they resolve to - input
    position, constant value or interior result - under the reference's
    ``values`` dict.  Equal shapes give equal reference configs and the
    same winning permutation of input positions."""
    names = {reg: ("in", i) for i, reg in enumerate(inputs)}
    steps = []
    for n, i in enumerate(sorted(cone)):
        instr = body[i]
        steps.append((instr.op, *(
            names[reg] if reg in names else ("const", consts[reg])
            for reg in (instr.rs1, instr.rs2))))
        names[instr.rd] = ("tmp", n)
    return len(inputs), tuple(steps), names[body[root].rd]


@pytest.fixture
def spy(monkeypatch):
    """Route every ``_canonicalize`` call through both implementations.

    Fuzz circuits repeat the same cone shapes thousands of times, so the
    reference runs once per shape (``_shape``) and its winning input
    order is replayed as positions.  Yields the call count and the
    mismatches."""
    real = custom._canonicalize
    reference: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    seen = {"calls": 0, "mismatches": []}

    def both(body, cone, inputs, consts, root):
        got = real(body, cone, inputs, consts, root)
        shape = _shape(body, cone, inputs, consts.raw, root)
        if shape not in reference:
            config, order = _canonicalize(body, cone, inputs, consts.raw,
                                          root)
            reference[shape] = config, tuple(map(inputs.index, order))
        config, positions = reference[shape]
        want = config, tuple(inputs[i] for i in positions)
        seen["calls"] += 1
        if got != want:
            seen["mismatches"].append(
                ([body[i] for i in sorted(cone)], inputs, got, want))
        return got

    monkeypatch.setattr(custom, "_canonicalize", both)
    return seen


def _compile(circuit, grid: int) -> None:
    """Compile to the end; the selector does not change which cones are
    canonicalised, so the quick greedy one is used."""
    config = MachineConfig(grid_x=grid, grid_y=grid)
    compile_circuit(circuit, CompilerOptions(config=config,
                                             custom_selector="greedy"))


def _check(seen, min_calls: int = 1) -> None:
    assert seen["calls"] >= min_calls, "too few cones were canonicalised"
    assert not seen["mismatches"], seen["mismatches"][:3]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_design_tables_match_reference(spy, name):
    _compile(DESIGNS[name].build_at("small"), 8)
    _check(spy)


def test_corpus_tables_match_reference(spy):
    assert CORPUS_FILES
    for path in CORPUS_FILES:
        _compile(load_entry(path).circuit, 4)
    _check(spy)


def test_fuzz_tables_match_reference(spy):
    for seed in FUZZ_SEEDS:
        _compile(generate(seed), 4)
    _check(spy, min_calls=len(FUZZ_SEEDS))


def test_logic_heavy_tables_match_reference(spy):
    _compile(logic_heavy_circuit(stages=6), 4)
    _check(spy, min_calls=50)


# ---------------------------------------------------------------------------
# Hand-written cones.
# ---------------------------------------------------------------------------

CONSTS = {"$c0000": 0x0000, "$cffff": 0xFFFF, "$c00ff": 0x00FF,
          "$c8001": 0x8001}


def _same(body, inputs, consts=CONSTS):
    """Both implementations on the cone ``body`` (root = last)."""
    cone = frozenset(range(len(body)))
    root = len(body) - 1
    inputs = tuple(inputs)
    got = custom._canonicalize(body, cone, inputs,
                               custom._SlicedConsts(dict(consts)), root)
    want = _canonicalize(body, cone, inputs, dict(consts), root)
    assert got == want
    return got


def test_no_inputs_constants_only():
    body = [isa.Alu("AND", "t", "$c00ff", "$c8001"),
            isa.Alu("OR", "r", "t", "$c0000")]
    config, inputs = _same(body, ())
    assert inputs == ()
    # 0x00ff & 0x8001 = bit 0 only: all 16 rows of position 0 are set.
    assert config == 0xFFFF


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_k_inputs(k):
    names = ["a", "b", "c", "d"][:k]
    body, acc = [], names[0]
    for n, (op, other) in enumerate(zip(["AND", "XOR", "OR"], names[1:])):
        body.append(isa.Alu(op, f"t{n}", acc, other))
        acc = f"t{n}"
    body.append(isa.Alu("AND", "m", acc, "$c8001"))
    body.append(isa.Alu("OR", "r", "m", "$c00ff"))
    _same(body, names)


@pytest.mark.parametrize("const", sorted(CONSTS))
def test_constants(const):
    body = [isa.Alu("XOR", "t", "a", const),
            isa.Alu("AND", "u", "t", "b"),
            isa.Alu("OR", "r", "u", const)]
    _same(body, ["a", "b"])


def test_xor_ffff_not():
    body = [isa.Alu("AND", "t", "a", "b"),
            isa.Alu("XOR", "r", "t", "$cffff")]
    config, _ = _same(body, ["a", "b"])
    # NAND in every position: rows 0..2 (and their repeats) set.
    assert config == 0x7777 * custom._REP


def test_input_read_twice():
    body = [isa.Alu("XOR", "t", "a", "b"),
            isa.Alu("AND", "u", "t", "a"),
            isa.Alu("OR", "r", "u", "c")]
    _same(body, ["a", "b", "c"])


def test_sorted_names_differ_from_read_order():
    body = [isa.Alu("AND", "t", "zeta", "$c00ff"),
            isa.Alu("XOR", "u", "t", "alpha"),
            isa.Alu("OR", "v", "u", "mid"),
            isa.Alu("AND", "r", "v", "beta")]
    _same(body, sorted(["zeta", "alpha", "mid", "beta"]))


def test_tie_keeps_first_permutation():
    # a & b & c is symmetric: every permutation gives the same config,
    # so the identity (first in permutation order) must win.
    body = [isa.Alu("AND", "t", "c", "a"),
            isa.Alu("AND", "r", "t", "b")]
    config, inputs = _same(body, ["a", "b", "c"])
    assert inputs == ("a", "b", "c")
    # Partly symmetric: (a & b) | c ties between (a, b) orders only.
    body = [isa.Alu("AND", "t", "b", "a"),
            isa.Alu("OR", "r", "t", "c")]
    _same(body, ["a", "b", "c"])


def test_non_constant_stray_read_raises():
    body = [isa.Alu("AND", "t", "a", "stray"),
            isa.Alu("OR", "r", "t", "b")]
    with pytest.raises(KeyError):
        custom._canonicalize(body, frozenset({0, 1}), ("a", "b"),
                             custom._SlicedConsts(dict(CONSTS)), 1)
