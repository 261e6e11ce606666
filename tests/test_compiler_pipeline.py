"""Compiler pipeline tests: every phase plus end-to-end differential
validation against the golden netlist interpreter."""

import pytest

from repro.compiler import (
    CompilerError,
    CompilerOptions,
    compile_circuit,
    lower_circuit,
    merge_balanced,
    merge_lpt,
    optimize,
    split,
)
from repro.compiler.merge import build_processes, sequence_commit_movs
from repro.compiler.lir import Mov
from repro.isa import FunctionalInterpreter
from repro.machine import Machine, MachineConfig, TINY
from repro.netlist import CircuitBuilder, NetlistInterpreter

from repro.fuzz.generator import (
    accumulator_circuit,
    counter_circuit,
    logic_heavy_circuit,
    memory_circuit,
    random_circuit,
)


def run_both(circuit, max_cycles=200, config=TINY, **opt_kwargs):
    """Compile, run golden + machine, and return both results."""
    golden = NetlistInterpreter(circuit).run(max_cycles)
    result = compile_circuit(circuit, CompilerOptions(config=config,
                                                      **opt_kwargs))
    machine = Machine(result.program, config)
    mres = machine.run(max_cycles)
    return golden, mres, result


class TestEndToEnd:
    def test_counter(self):
        golden, mres, _ = run_both(counter_circuit())
        assert mres.displays == golden.displays
        assert mres.vcycles == golden.cycles
        assert mres.finished

    def test_wide_accumulator(self):
        golden, mres, _ = run_both(accumulator_circuit())
        assert mres.displays == golden.displays

    def test_memory_readback(self):
        golden, mres, _ = run_both(memory_circuit())
        assert mres.displays == golden.displays
        assert mres.finished

    def test_logic_heavy_with_custom_functions(self):
        golden, mres, res = run_both(logic_heavy_circuit())
        assert mres.displays == golden.displays
        assert res.report.custom is not None

    def test_logic_heavy_without_custom_functions(self):
        golden, mres, _ = run_both(logic_heavy_circuit(),
                                   enable_custom_functions=False)
        assert mres.displays == golden.displays

    def test_lpt_strategy_matches_semantics(self):
        golden, mres, _ = run_both(counter_circuit(),
                                   merge_strategy="lpt")
        assert mres.displays == golden.displays

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        circuit = random_circuit(seed)
        golden, mres, _ = run_both(circuit, max_cycles=20)
        assert mres.displays == golden.displays
        assert mres.vcycles == golden.cycles

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_single_core(self, seed):
        config = MachineConfig(grid_x=1, grid_y=1, result_latency=4,
                               imem_words=4096)
        circuit = random_circuit(seed + 100, n_ops=15)
        golden, mres, _ = run_both(circuit, max_cycles=12, config=config)
        assert mres.displays == golden.displays


class TestFunctionalInterpreterAgreement:
    """The lower interpreter must agree with the machine (paper SS6:
    interpreters validate compiler passes)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_image_matches_golden(self, seed):
        circuit = random_circuit(seed + 50, n_ops=20)
        golden = NetlistInterpreter(circuit).run(15)
        result = compile_circuit(circuit, CompilerOptions(config=TINY))
        fres = FunctionalInterpreter(result.image).run(15)
        assert fres.displays == golden.displays
        assert fres.vcycles == golden.cycles


class TestSplitMerge:
    def make_partitioned(self, circuit):
        return split(lower_circuit(optimize(circuit)))

    def test_split_produces_multiple_partitions(self):
        prog = self.make_partitioned(accumulator_circuit())
        assert len(prog.partitions) >= 2

    def test_split_single_privileged_partition(self):
        prog = self.make_partitioned(counter_circuit())
        priv = [p for p in prog.partitions if p.privileged]
        assert len(priv) == 1

    def test_memory_colocation(self):
        prog = self.make_partitioned(memory_circuit())
        design = prog.design
        for memory, users in design.memory_users.items():
            holders = [p for p in prog.partitions if p.indices & users]
            assert len(holders) == 1, f"memory {memory} split across cores"

    def test_merge_respects_core_limit(self):
        prog = self.make_partitioned(accumulator_circuit())
        for strategy in (merge_balanced, merge_lpt):
            merged = strategy(prog, 3)
            assert len(merged.partitions) <= 3

    def test_balanced_reduces_sends_vs_lpt(self):
        # The headline claim of SS7.8.1/Table 4: B produces fewer Sends.
        circuit = optimize(random_circuit(7, n_ops=60, n_regs=8))
        prog = split(lower_circuit(circuit))
        if len(prog.partitions) < 4:
            pytest.skip("design too small to partition meaningfully")
        b = merge_balanced(prog, 4)
        lpt = merge_lpt(prog, 4)
        assert b.send_count() <= lpt.send_count()

    def test_build_processes_pid_zero_is_privileged(self):
        prog = self.make_partitioned(counter_circuit())
        image = build_processes(merge_balanced(prog, 4))
        assert image.processes[0].privileged


class TestSequenceCommitMovs:
    def test_independent(self):
        movs = sequence_commit_movs([("a", "x"), ("b", "y")])
        assert movs == [Mov("a", "x"), Mov("b", "y")]

    def test_chain_order(self):
        # b <- a, a <- x : must copy b first.
        movs = sequence_commit_movs([("a", "x"), ("b", "a")])
        assert movs.index(Mov("b", "a")) < movs.index(Mov("a", "x"))

    def test_swap_uses_temp(self):
        movs = sequence_commit_movs([("a", "b"), ("b", "a")])
        assert len(movs) == 3
        srcs = {m.rs for m in movs}
        assert any(str(s).startswith("%swap") for s in srcs)
        # Simulate to verify the swap result.
        env = {"a": 1, "b": 2}
        for mov in movs:
            env[mov.rd] = env[mov.rs]
        assert env["a"] == 2 and env["b"] == 1

    def test_self_copy_dropped(self):
        assert sequence_commit_movs([("a", "a")]) == []

    def test_rotation_cycle(self):
        movs = sequence_commit_movs([("a", "b"), ("b", "c"), ("c", "a")])
        env = {"a": 1, "b": 2, "c": 3}
        for mov in movs:
            env[mov.rd] = env[mov.rs]
        assert (env["a"], env["b"], env["c"]) == (2, 3, 1)


class TestReport:
    def test_report_fields(self):
        result = compile_circuit(counter_circuit(),
                                 CompilerOptions(config=TINY))
        report = result.report
        assert report.vcpl >= 1
        assert 1 <= report.cores_used <= 4
        assert report.times.total > 0
        assert report.breakdown["vcpl"] == report.vcpl
        assert report.max_imem <= TINY.imem_words
        rate = report.simulated_rate_khz(500.0)
        assert rate == pytest.approx(500e3 / report.vcpl)

    def test_grid_too_small(self):
        config = MachineConfig(grid_x=1, grid_y=1)
        with pytest.raises(CompilerError):
            compile_circuit(
                counter_circuit(),
                CompilerOptions(config=config, max_cores=5))

    def test_open_circuit_rejected(self):
        m = CircuitBuilder("open")
        x = m.input("x", 8)
        m.output("y", x)
        with pytest.raises(CompilerError):
            compile_circuit(m.build())


class TestSchedulerContract:
    def test_vcpl_covers_pipeline_drain(self):
        result = compile_circuit(counter_circuit(),
                                 CompilerOptions(config=TINY))
        scheduled = result.scheduled
        for core in scheduled.cores.values():
            last = max((c for c, _ in core.items), default=0)
            assert scheduled.vcpl >= last + 1

    def test_strict_machine_detects_no_hazards(self):
        # Implicit in every end-to-end test, made explicit here: the
        # machine runs in strict mode (hazard fault on in-flight reads)
        # and the compiled schedule never trips it.
        result = compile_circuit(accumulator_circuit(),
                                 CompilerOptions(config=TINY))
        machine = Machine(result.program, TINY)
        machine.run(60)  # would raise HazardError on a bad schedule

    def test_epilogue_lengths_match_messages(self):
        result = compile_circuit(accumulator_circuit(),
                                 CompilerOptions(config=TINY))
        total_sends = sum(
            1 for core in result.scheduled.cores.values()
            for _, instr in core.items
            if type(instr).__name__ == "Send"
        )
        total_slots = sum(c.epilogue_length
                          for c in result.scheduled.cores.values())
        assert total_sends == total_slots
