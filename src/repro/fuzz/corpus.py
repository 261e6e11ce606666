"""Replayable fuzz corpus: one JSON file per (minimized) circuit.

A corpus entry is self-contained: it stores the seed and generator
parameters that produced the original circuit *and* the reduced IR
itself, so replay needs neither the generator version that found the bug
nor the shrinker - ``repro fuzz --replay <file>`` deserializes the IR
and re-runs the recorded oracle (or any matrix) against the golden
interpreter, deterministically reproducing the recorded divergence.

Clean entries (``divergence: null``) double as regression seeds: the
tier-1 suite replays everything under ``tests/corpus/`` against the full
oracle matrix on every run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..netlist.ir import Circuit
from ..netlist.serialize import circuit_from_dict, circuit_to_dict
from ..store import write_atomic
from .generator import GeneratorParams
from .oracle import Divergence

FORMAT = "repro-fuzz-corpus/v1"


@dataclass
class CorpusEntry:
    """Everything needed to reproduce one fuzzing outcome."""

    circuit: Circuit
    cycles: int                       # run budget the finding used
    seed: int | None = None           # generator seed (None: hand-made)
    params: GeneratorParams | None = None
    matrix: str = "quick"             # matrix the finding ran against
    oracle: str | None = None         # the diverging oracle, if any
    divergence: Divergence | None = None
    note: str = ""

    @property
    def name(self) -> str:
        return f"{self.circuit.name}-{self.circuit.fingerprint()[:12]}"

    def replay_command(self, path: str) -> str:
        return f"python -m repro fuzz --replay {path}"

    def as_dict(self) -> dict:
        return {
            "format": FORMAT,
            "seed": self.seed,
            "params": None if self.params is None else self.params.as_dict(),
            "cycles": self.cycles,
            "matrix": self.matrix,
            "oracle": self.oracle,
            "divergence": (None if self.divergence is None
                           else self.divergence.as_dict()),
            "note": self.note,
            "fingerprint": self.circuit.fingerprint(),
            "circuit": circuit_to_dict(self.circuit),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        if data.get("format") != FORMAT:
            raise ValueError(
                f"unsupported corpus format {data.get('format')!r} "
                f"(expected {FORMAT!r})")
        circuit = circuit_from_dict(data["circuit"])
        recorded = data.get("fingerprint")
        if recorded and circuit.fingerprint() != recorded:
            raise ValueError(
                f"corpus fingerprint mismatch: file says {recorded[:12]}, "
                f"rebuilt circuit is {circuit.fingerprint()[:12]} "
                f"(corrupt or hand-edited entry)")
        return cls(
            circuit=circuit,
            cycles=int(data["cycles"]),
            seed=data.get("seed"),
            params=(None if data.get("params") is None
                    else GeneratorParams.from_dict(data["params"])),
            matrix=data.get("matrix", "quick"),
            oracle=data.get("oracle"),
            divergence=(None if data.get("divergence") is None
                        else Divergence.from_dict(data["divergence"])),
            note=data.get("note", ""),
        )


def save_entry(entry: CorpusEntry, corpus_dir: str) -> str:
    """Write ``entry`` into ``corpus_dir`` (created if missing); the
    filename is content-addressed so identical repros dedup."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"{entry.name}.json")
    text = json.dumps(entry.as_dict(), indent=1, sort_keys=True) + "\n"
    write_atomic(path, text.encode(), fsync=True)
    return path


def load_entry(path: str) -> CorpusEntry:
    with open(path) as f:
        return CorpusEntry.from_dict(json.load(f))


def replay_entry(entry: CorpusEntry, matrix: str | None = None,
                 config=None):
    """Re-run a corpus entry; returns (reference, divergences).

    By default the entry replays against the oracle that originally
    diverged (falling back to its recorded matrix for clean entries);
    pass ``matrix`` to override - e.g. ``"full"`` for regression sweeps.
    """
    from .oracle import FUZZ_CONFIG, matrix_oracles, run_matrix
    chosen = matrix if matrix is not None else (entry.oracle
                                                or entry.matrix)
    oracles = matrix_oracles(chosen)
    return run_matrix(lambda: circuit_from_dict(
        circuit_to_dict(entry.circuit)), oracles, entry.cycles,
        config or FUZZ_CONFIG)
