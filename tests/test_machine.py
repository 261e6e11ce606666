"""Machine-model tests: cache, NoC routing, global stall, hazard
detection, bootloader round-trip."""

import pytest

from repro import isa
from repro.compiler import CompilerOptions, compile_circuit
from repro.isa.interp import HazardError, NoCDropError
from repro.isa.program import CoreBinary, ExceptionTable, MachineProgram
from repro.machine import Cache, Machine, MachineConfig, TINY
from repro.machine.boot import deserialize, serialize
from repro.designs import micro
from repro.netlist import CircuitBuilder

from repro.fuzz.generator import counter_circuit


class TestCache:
    def make(self, **kw):
        config = MachineConfig(cache_words=256, cache_line_words=8,
                               cache_hit_stall=10, cache_miss_stall=100,
                               cache_writeback_stall=50, **kw)
        return Cache(config)

    def test_miss_then_hit(self):
        cache = self.make()
        _, stall = cache.read(0)
        assert stall == 100
        _, stall = cache.read(1)  # same line
        assert stall == 10
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_write_read_roundtrip(self):
        cache = self.make()
        cache.write(40, 0xBEEF)
        value, _ = cache.read(40)
        assert value == 0xBEEF

    def test_writeback_on_conflict(self):
        cache = self.make()
        cache.write(0, 123)          # line 0, tag 0, dirty
        stall = 0
        _, stall = cache.read(256)   # line 0, tag 1 -> evict dirty
        assert stall == 150          # miss + writeback
        assert cache.dram[0] == 123
        value, _ = cache.read(0)     # reload original line
        assert value == 123
        assert cache.stats.writebacks == 1

    def test_flush(self):
        cache = self.make()
        cache.write(5, 55)
        assert 5 not in cache.dram
        cache.flush()
        assert cache.dram[5] == 55

    def test_peek_coherent(self):
        cache = self.make()
        cache.write(7, 77)
        assert cache.peek(7) == 77    # dirty line, not in DRAM yet
        assert cache.peek(999) == 0

    def test_sequential_hit_rate_high(self):
        cache = self.make()
        for addr in range(512):
            cache.read(addr)
        # One miss per 8-word line.
        assert cache.stats.misses == 512 // 8
        assert cache.stats.hit_rate > 0.85


class TestRouting:
    def test_route_is_unidirectional(self):
        config = MachineConfig(grid_x=4, grid_y=4)
        # going "west" must wrap east around the torus
        route = config.route(config.core_id(2, 0), config.core_id(1, 0))
        kinds = [k for k, _x, _y in route]
        assert kinds == ["E", "E", "E"]

    def test_dimension_order(self):
        config = MachineConfig(grid_x=4, grid_y=4)
        route = config.route(config.core_id(0, 0), config.core_id(2, 3))
        kinds = [k for k, _x, _y in route]
        assert kinds == ["E", "E", "S", "S", "S"]

    def test_route_latency_monotone_in_hops(self):
        config = MachineConfig(grid_x=8, grid_y=8)
        near = config.route_latency(0, 1)
        far = config.route_latency(0, config.core_id(7, 7))
        assert near < far

    def test_self_route_is_empty(self):
        config = MachineConfig(grid_x=4, grid_y=4)
        assert config.route(5, 5) == []


class TestGlobalStall:
    def _run_micro(self, circuit, cycles):
        config = MachineConfig(grid_x=1, grid_y=1)
        result = compile_circuit(circuit, CompilerOptions(config=config))
        machine = Machine(result.program, config)
        return machine.run(cycles + 10)

    def test_local_fifo_no_stalls(self):
        res = self._run_micro(micro.build_fifo(1024, cycles=64), 64)
        # Only the final $display mailbox write touches global memory;
        # FIFO data traffic stays in the scratchpad.
        assert res.cache.accesses <= 2

    def test_global_fifo_stalls(self):
        res = self._run_micro(
            micro.build_fifo(1024, cycles=64, force_global=True), 64)
        assert res.cache.accesses > 0
        assert res.counters.stall_cycles > 0
        # Sequential FIFO traffic has strong locality.
        assert res.cache.hit_rate > 0.8

    def test_random_ram_worse_locality_than_fifo(self):
        fifo = self._run_micro(
            micro.build_fifo(64 * 1024, cycles=128), 128)
        ram = self._run_micro(
            micro.build_ram(512 * 1024, cycles=128), 128)
        assert fifo.cache.hit_rate >= ram.cache.hit_rate

    def test_privileged_enforcement(self):
        # A GST executed by a non-privileged core faults.
        table = ExceptionTable()
        config = MachineConfig(grid_x=2, grid_y=1)
        prog = MachineProgram(
            name="bad", grid=(2, 1),
            cores={
                0: CoreBinary(body=[isa.Nop()], epilogue_length=0,
                              sleep_length=9),
                1: CoreBinary(body=[isa.GlobalLoad(1, (0, 0, 0))],
                              epilogue_length=0, sleep_length=9,
                              reg_init={0: 0}),
            },
            vcpl=10, exceptions=table, privileged_core=0)
        machine = Machine(prog, config)
        with pytest.raises(Exception):
            machine.run(1)


class TestHazardDetection:
    def test_strict_mode_catches_raw_violation(self):
        # Hand-craft a schedule that reads a register too early.
        config = MachineConfig(grid_x=1, grid_y=1, result_latency=8)
        body = [isa.Set(1, 42), isa.Alu("ADD", 2, 1, 1)]  # back-to-back
        prog = MachineProgram(
            name="hazard", grid=(1, 1),
            cores={0: CoreBinary(body=body, epilogue_length=0,
                                 sleep_length=20, reg_init={1: 0})},
            vcpl=22, exceptions=ExceptionTable())
        machine = Machine(prog, config)
        with pytest.raises(HazardError):
            machine.run(1)


class TestNoCFaults:
    def test_unconsumed_message_detected(self):
        config = MachineConfig(grid_x=2, grid_y=1)
        prog = MachineProgram(
            name="drop", grid=(2, 1),
            cores={
                0: CoreBinary(body=[isa.Send(1, 5, 0)], epilogue_length=0,
                              sleep_length=30, reg_init={0: 9}),
                1: CoreBinary(body=[isa.Nop()], epilogue_length=0,
                              sleep_length=30),
            },
            vcpl=31, exceptions=ExceptionTable())
        machine = Machine(prog, config)
        with pytest.raises(NoCDropError):
            machine.run(1)

    def test_message_delivery_updates_register(self):
        config = MachineConfig(grid_x=2, grid_y=1)
        lat = config.route_latency(0, 1)
        prog = MachineProgram(
            name="send", grid=(2, 1),
            cores={
                0: CoreBinary(body=[isa.Send(1, 5, 0)], epilogue_length=0,
                              sleep_length=30, reg_init={0: 9}),
                1: CoreBinary(body=[isa.Nop()] * (lat + 1),
                              epilogue_length=1, sleep_length=30 - lat - 1,
                              reg_init={5: 0}),
            },
            vcpl=31, exceptions=ExceptionTable())
        machine = Machine(prog, config)
        machine.step_vcycle()
        assert machine.peek_reg(1, 5) == 9


class TestBootloader:
    def test_roundtrip_counter(self):
        config = TINY
        result = compile_circuit(counter_circuit(),
                                 CompilerOptions(config=config))
        stream = serialize(result.program)
        restored = deserialize(stream)
        assert restored.vcpl == result.program.vcpl
        assert restored.grid == result.program.grid
        assert sorted(restored.cores) == sorted(result.program.cores)
        for cid, binary in result.program.cores.items():
            other = restored.cores[cid]
            assert other.body == binary.body
            assert other.reg_init == binary.reg_init
            assert other.cfu == binary.cfu
            assert other.epilogue_length == binary.epilogue_length

    def test_restored_binary_runs_identically(self):
        config = TINY
        result = compile_circuit(counter_circuit(),
                                 CompilerOptions(config=config))
        direct = Machine(result.program, config).run(100)
        restored = Machine(deserialize(serialize(result.program)),
                           config).run(100)
        assert restored.displays == direct.displays
        assert restored.vcycles == direct.vcycles

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize(b"\x00" * 64)


class TestPerfCounters:
    def test_counts_accumulate(self):
        config = TINY
        result = compile_circuit(counter_circuit(),
                                 CompilerOptions(config=config))
        machine = Machine(result.program, config)
        res = machine.run(100)
        c = res.counters
        assert c.vcycles == res.vcycles
        assert c.compute_cycles == c.vcycles * result.program.vcpl
        assert c.instructions > 0
        assert c.total_cycles == c.compute_cycles + c.stall_cycles

    def test_rate_uses_total_cycles(self):
        config = TINY
        result = compile_circuit(counter_circuit(display=False),
                                 CompilerOptions(config=config))
        machine = Machine(result.program, config)
        res = machine.run(50)
        khz = res.simulation_rate_khz(500.0)
        expected = 500e3 * res.vcycles / res.counters.total_cycles
        assert khz == pytest.approx(expected)
