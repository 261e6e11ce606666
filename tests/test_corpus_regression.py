"""Seed-corpus regression: every checked-in corpus file under
``tests/corpus/`` must replay deterministically.

Clean entries (no recorded divergence) are swept against the *full*
oracle matrix - they are minimized circuits that once exercised
interesting compiler paths, so any new divergence is a real regression.
Entries recorded against a fault oracle must keep reproducing the same
divergence (same cycle, same signal), proving the detection and replay
machinery end to end.
"""

import glob
import os

import pytest

from repro.fuzz import load_entry, replay_entry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_populated():
    assert len(CORPUS_FILES) >= 4


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_entry_replays(path):
    entry = load_entry(path)
    if entry.divergence is None:
        _, divergences = replay_entry(entry, matrix="full")
        assert not divergences, divergences[0].describe()
    else:
        _, divergences = replay_entry(entry)
        assert divergences, "recorded divergence did not reproduce"
        got = divergences[0]
        assert got.oracle == entry.divergence.oracle
        assert got.cycle == entry.divergence.cycle
        assert got.signal == entry.divergence.signal

