"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main

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

    def test_run_batch_json(self, capsys):
        import json

        assert main(["run", "--design", "mm", "--grid", "8", "8",
                     "--engine", "codegen", "--batch", "3", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["batch_width"] == 3
        assert "lowering" not in out
        lanes = out["lanes"]
        assert [lane["lane"] for lane in lanes] == [0, 1, 2]
        assert all(lane["finished"] for lane in lanes)
        assert lanes[0]["displays"] == ["mm checksum 606336"]
        for lane in lanes[1:]:
            assert lane["displays"] == lanes[0]["displays"]
            assert lane["vcycles"] == lanes[0]["vcycles"]

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
