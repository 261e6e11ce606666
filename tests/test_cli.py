"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main
from repro.machine import Machine
from repro.machine.waveform import WaveformCollector

COUNTER_V = """
module counter();
  reg [7:0] c = 0;
  always @(posedge clk) begin
    c <= c + 1;
    if (c == 3) $display("done %d", c);
    if (c == 3) $finish;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def hermetic_cache(tmp_path, monkeypatch):
    """The CLI caches compiles by default; keep tests off the real one."""
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "ccache"))


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter.v"
    path.write_text(COUNTER_V)
    return str(path)


class TestSimulate:
    def test_simulate(self, counter_file, capsys):
        assert main(["simulate", counter_file]) == 0
        assert "done 3" in capsys.readouterr().out


class TestCompile:
    def test_report(self, counter_file, capsys):
        assert main(["compile", counter_file, "--grid", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "VCPL" in out and "cores used" in out

    def test_asm_and_binary(self, counter_file, capsys, tmp_path):
        asm = tmp_path / "c.s"
        binary = tmp_path / "c.bin"
        assert main(["compile", counter_file, "--grid", "2", "2",
                     "--asm", str(asm), "--binary", str(binary)]) == 0
        assert ".p0:" in asm.read_text()
        assert binary.stat().st_size > 0
        # Disassemble the binary back.
        assert main(["disasm", str(binary)]) == 0
        out = capsys.readouterr().out
        assert "VCPL" in out


class TestRun:
    def test_run(self, counter_file, capsys):
        assert main(["run", counter_file, "--grid", "2", "2"]) == 0
        assert "done 3" in capsys.readouterr().out

    def test_run_with_vcd(self, counter_file, capsys, tmp_path):
        vcd = tmp_path / "c.vcd"
        assert main(["run", counter_file, "--grid", "2", "2",
                     "--vcd", str(vcd), "--trace", "c"]) == 0
        text = vcd.read_text()
        assert "$enddefinitions" in text
        assert "c_0" in text

    RUN_BC = ["run", "--design", "bc", "--engine", "codegen",
              "--grid", "4", "4", "--json"]

    def test_run_without_hooks_takes_the_bulk_path(self, capsys,
                                                   monkeypatch):
        """No --vcd and no --throttle: a trusted codegen run advances in
        bulk calls and prints what per-Vcycle stepping prints."""
        bulk = []
        real = Machine._run_bulk

        def counted(machine, until):
            ran = real(machine, until)
            bulk.append(ran)
            return ran

        monkeypatch.setattr(Machine, "_run_bulk", counted)
        assert main(self.RUN_BC) == 0
        fast = json.loads(capsys.readouterr().out)
        assert any(bulk), "the run never took the bulk path"
        bulk.clear()
        # --throttle needs every Vcycle, so it forces single steps.
        assert main(self.RUN_BC + ["--throttle", "1e-9"]) == 0
        stepped = json.loads(capsys.readouterr().out)
        assert not bulk
        assert fast["finished"] and fast == stepped

    def test_run_with_vcd_samples_every_vcycle(self, capsys, tmp_path,
                                               monkeypatch):
        samples = []
        real = WaveformCollector.sample

        def counted(collector):
            samples.append(collector.machine.counters.vcycles)
            real(collector)

        monkeypatch.setattr(WaveformCollector, "sample", counted)
        assert main(self.RUN_BC + ["--vcd", str(tmp_path / "bc.vcd")]) == 0
        vcycles = json.loads(capsys.readouterr().out)["vcycles"]
        # The initial values, then once after every Vcycle.
        assert samples == list(range(vcycles + 1))

    def test_run_batch_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--design", "mm", "--batch", "3"])
        assert exc.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_run_batch_lowering_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--design", "mm", "--batch", "3",
                  "--batch-lowering", "list"])
        assert exc.value.code == 2
        assert "--batch-lowering" in capsys.readouterr().err


class TestDesigns:
    def test_list(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("vta", "jpeg", "mc"):
            assert name in out

    def test_run_design(self, capsys):
        assert main(["design", "jpeg"]) == 0
        assert "jpeg decoded" in capsys.readouterr().out
