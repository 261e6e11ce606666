"""Integration: every benchmark design at its *default* (benchmark)
scale, compiled for a mid-size grid and executed cycle-accurately against
the golden interpreter.  This is the heavyweight end-to-end check; the
per-design unit tests cover reduced parameterizations.
"""

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.designs import DESIGNS
from repro.machine import Machine, MachineConfig
from repro.netlist import NetlistInterpreter

CONFIG = MachineConfig(grid_x=8, grid_y=8)

# noc is the most expensive to machine-run; keep its horizon tight.
_BUDGET = {name: info.cycles + 300 for name, info in DESIGNS.items()}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_full_design_machine_matches_golden(name):
    info = DESIGNS[name]
    budget = _BUDGET[name]
    golden = NetlistInterpreter(info.build()).run(budget)
    assert golden.finished, f"{name}: golden run did not finish"

    result = compile_circuit(info.build(), CompilerOptions(config=CONFIG))
    machine = Machine(result.program, CONFIG)
    mres = machine.run(budget)

    assert mres.displays == golden.displays
    assert mres.vcycles == golden.cycles
    assert mres.finished
    # Architecture invariants.
    assert result.report.max_imem <= CONFIG.imem_words
    assert result.report.cores_used <= CONFIG.num_cores
    # Every full Vcycle carries exactly the scheduled Sends; the final
    # (finishing) Vcycle may break off early at the $finish exception.
    expected = result.report.send_count * mres.vcycles
    slack = result.report.send_count
    assert expected - slack <= mres.counters.messages <= expected
