"""Unit tests for custom-function synthesis (MFFC fusion, SS6.2)."""

import pytest

from repro import isa
from repro.compiler.custom import (
    Candidate,
    _enumerate_candidates,
    _select_greedy,
    _select_milp,
    synthesize_custom_functions,
)
from repro.isa import FunctionalInterpreter
from repro.isa.program import ExceptionTable, Process, ProgramImage
from repro.isa.semantics import eval_custom


def make_process(body, reg_init):
    return Process(0, body=list(body), reg_init=dict(reg_init))


def image_of(proc):
    return ProgramImage("t", {0: proc}, ExceptionTable())


class TestEnumeration:
    def test_simple_chain_found(self):
        # r = (a & b) | c : a classic 3-input cone of two instructions.
        body = [
            isa.Alu("AND", "t1", "a", "b"),
            isa.Alu("OR", "r", "t1", "c"),
        ]
        cands = _enumerate_candidates(make_process(body, {}))
        assert any(c.savings == 1 and len(c.cone) == 2 for c in cands)

    def test_constants_are_free_inputs(self):
        # (a & 0xF) | b | (c & 0x3) | (d ^ 0x1) - the paper's SS4.2
        # example: six operations, four variables, three constants.
        consts = {"$c000f": 0xF, "$c0003": 0x3, "$c0001": 0x1}
        body = [
            isa.Alu("AND", "t1", "a", "$c000f"),
            isa.Alu("OR", "t2", "t1", "b"),
            isa.Alu("AND", "t3", "c", "$c0003"),
            isa.Alu("OR", "t4", "t2", "t3"),
            isa.Alu("XOR", "t5", "d", "$c0001"),
            isa.Alu("r", "r", "t4", "t5") if False else
            isa.Alu("OR", "r", "t4", "t5"),
        ]
        cands = _enumerate_candidates(make_process(body, consts))
        # The full six-instruction cone is 4-feasible (a, b, c, d).
        full = [c for c in cands if len(c.cone) == 6]
        assert full, "paper's example should fuse into one instruction"
        assert full[0].savings == 5
        assert set(full[0].inputs) == {"a", "b", "c", "d"}

    def test_five_variable_cone_rejected(self):
        body = [
            isa.Alu("AND", "t1", "a", "b"),
            isa.Alu("OR", "t2", "t1", "c"),
            isa.Alu("XOR", "t3", "t2", "d"),
            isa.Alu("OR", "r", "t3", "e"),
        ]
        cands = _enumerate_candidates(make_process(body, {}))
        assert not any(len(c.cone) == 4 for c in cands)

    def test_mffc_respects_external_use(self):
        # t1 is also consumed outside the cone -> the 2-cone is not
        # fanout-free.
        body = [
            isa.Alu("AND", "t1", "a", "b"),
            isa.Alu("OR", "r", "t1", "c"),
            isa.Alu("ADD", "other", "t1", "c"),   # external use of t1
        ]
        cands = _enumerate_candidates(make_process(body, {}))
        assert not any(len(c.cone) >= 2 for c in cands)


class TestSelection:
    def _cands(self):
        return [
            Candidate(root=0, cone=frozenset({0, 1}), inputs=("a", "b"),
                      config=111, savings=1),
            Candidate(root=2, cone=frozenset({1, 2}), inputs=("a", "c"),
                      config=222, savings=1),  # overlaps the first
            Candidate(root=5, cone=frozenset({4, 5, 6}),
                      inputs=("x", "y"), config=111, savings=2),
        ]

    def test_greedy_respects_overlap(self):
        chosen = _select_greedy(self._cands(), max_functions=32)
        cones = [c.cone for c in chosen]
        for i, a in enumerate(cones):
            for b in cones[i + 1:]:
                assert not (a & b)

    def test_greedy_respects_function_budget(self):
        cands = [
            Candidate(root=i, cone=frozenset({i}), inputs=("a",),
                      config=1000 + i, savings=1)
            for i in range(0, 40, 1)
        ]
        chosen = _select_greedy(cands, max_functions=4)
        assert len({c.config for c in chosen}) <= 4

    def test_milp_at_least_as_good_as_greedy(self):
        cands = self._cands()
        greedy = sum(c.savings for c in _select_greedy(cands, 32))
        milp = _select_milp(cands, 32)
        if milp is not None:
            assert sum(c.savings for c in milp) >= greedy


class TestEndToEnd:
    def test_fusion_preserves_semantics(self):
        consts = {"$c00f0": 0xF0, "$c0f0f": 0x0F0F}
        body = [
            isa.Alu("AND", "t1", "x", "$c00f0"),
            isa.Alu("OR", "t2", "t1", "y"),
            isa.Alu("XOR", "t3", "t2", "$c0f0f"),
            isa.Alu("ADD", "out", "t3", "x"),   # non-logic consumer
        ]
        init = dict(consts, x=0x1234, y=0x00FF)
        baseline = FunctionalInterpreter(
            image_of(make_process(body, init)))
        baseline.step()
        expected = baseline.peek_reg(0, "out")

        proc = make_process(body, init)
        image = image_of(proc)
        result = synthesize_custom_functions(image)
        assert result.per_process[0].fused_cones >= 1
        assert any(isinstance(i, isa.Custom) for i in proc.body)

        fused = FunctionalInterpreter(image)
        fused.step()
        assert fused.peek_reg(0, "out") == expected

    def test_function_deduplication(self):
        # The same (a & b) | c shape at two places -> one CFU entry.
        body = []
        for tag in ("p", "q"):
            body += [
                isa.Alu("AND", f"{tag}1", f"{tag}a", f"{tag}b"),
                isa.Alu("OR", f"{tag}r", f"{tag}1", f"{tag}c"),
                isa.Alu("ADD", f"{tag}out", f"{tag}r", f"{tag}a"),
            ]
        proc = make_process(body, {f"{t}{s}": 1 for t in "pq"
                                   for s in "abc"})
        image = image_of(proc)
        result = synthesize_custom_functions(image)
        stats = result.per_process[0]
        if stats.fused_cones == 2:
            assert stats.functions_used == 1

    def test_config_evaluates_to_cone_function(self):
        body = [
            isa.Alu("AND", "t1", "a", "b"),
            isa.Alu("XOR", "r", "t1", "c"),
            isa.Alu("ADD", "out", "r", "a"),
        ]
        proc = make_process(body, {"a": 0, "b": 0, "c": 0})
        synthesize_custom_functions(image_of(proc))
        customs = [i for i in proc.body if isinstance(i, isa.Custom)]
        assert customs
        config = proc.cfu[customs[0].index]
        env = {"a": 0xF0F0, "b": 0xCCCC, "c": 0xAAAA, "$c0000": 0}
        args = [env[r] for r in customs[0].rs]
        assert eval_custom(config, *args) == \
            (env["a"] & env["b"]) ^ env["c"]


#: Compile and run with ``import numpy`` failing: the greedy selector
#: and the strict engine must not need it.
_NO_NUMPY = """
import sys

class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(name + " is blocked")
        return None

sys.meta_path.insert(0, _BlockNumpy())
from repro.compiler import CompilerOptions, compile_circuit
from repro.fuzz.generator import logic_heavy_circuit
from repro.machine import Machine, MachineConfig, run_batch

config = MachineConfig(grid_x=4, grid_y=4)
result = compile_circuit(logic_heavy_circuit(), CompilerOptions(
    config=config, custom_selector="greedy"))
assert result.report.custom.instructions_after < \\
    result.report.custom.instructions_before
run = Machine(result.program, config, engine="strict").run(10_000)
assert run.finished, run.vcycles
solo = Machine(result.program, config, engine="codegen").run(10_000)
assert solo == run, (solo, run)
lanes = run_batch(result.program, 10_000, config, width=40)
assert len(lanes) == 40
for lane in lanes:
    assert lane == solo, lane
assert "numpy" not in sys.modules
print("ok")
"""


def test_greedy_compile_and_strict_run_without_numpy():
    """A greedy compile and strict, codegen and 40-lane batched runs
    import no numpy."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
