"""Shared assertion on the machine's per-core state representation."""

from __future__ import annotations

import gc
from array import array


def assert_packed_core_state(machine) -> dict[int, tuple[int, int]]:
    """Assert that every core's register file and scratchpad is an
    ``array("H")`` whose words the cyclic GC never walks, and return
    their object identities per core (``{core_id: (id(regs),
    id(scratch))}``), so a caller can check that a restore refilled
    them in place.

    CPython tracks ``array`` objects themselves (``gc.is_tracked`` is
    True), but their traversal visits only the type - one step per
    array, where a list costs one per word.  The typecode also rules out
    foreign scalars (a ``numpy.int64``, say) in architectural state: an ``"H"`` array stores plain 16-bit words and
    reads back Python ints.
    """
    ids = {}
    for cid, core in machine.cores.items():
        for what, words in (("regs", core.regs), ("scratch", core.scratch)):
            assert type(words) is array and words.typecode == "H", \
                f"core {cid} {what} is {type(words).__name__}"
            assert gc.get_referents(words) == [array], \
                f"core {cid} {what}: the GC walks its contents"
        ids[cid] = (id(core.regs), id(core.scratch))
    return ids
