"""Named-workload registry: the paper-scale benchmark surface.

One manifest (``manifest.json``) names every circuit the project treats
as a *workload* - something with a stable identity, a cycle budget, and
pinned correctness expectations - regardless of where it came from:

* ``builtin`` - a :mod:`repro.designs` family at a named scale tier
  (``vta@paper``);
* ``verilog`` - an external ``.v`` file ingested through the
  :mod:`repro.netlist.verilog` frontend (optionally auto-wrapped in a
  generated test driver);
* ``corpus`` - a fuzz-corpus circuit promoted into the regression set
  (``src/repro/workloads/corpus/``).

Each entry pins the circuit :meth:`~repro.netlist.ir.Circuit.fingerprint`
(content identity: the build is still producing the same netlist) and
per-grid :func:`repro.serve.jobs.state_digest` values (behavioral
identity: a machine run still ends in the same architectural state on
every engine).  ``python -m repro workloads list/run/bench/verify/pin``
is the CLI surface; CI runs ``workloads bench`` at 8x8, 15x15 and 32x32
as the scale-trajectory check.
"""

from .registry import (DEFAULT_GRID, PIN_ENGINE, Workload, WorkloadError,
                       WorkloadRun, build_workload, load_workloads,
                       manifest_path, pin_workloads, run_workload,
                       verify_workload)

__all__ = ["DEFAULT_GRID", "PIN_ENGINE", "Workload", "WorkloadError",
           "WorkloadRun", "build_workload", "load_workloads",
           "manifest_path", "pin_workloads", "run_workload",
           "verify_workload"]
