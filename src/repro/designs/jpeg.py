"""``jpeg`` - a pipelined JPEG decoder (paper SS7.5, [46]).

The paper notes jpeg is Manticore's worst case: "sizeable sequential data
dependencies that cannot be parallelized - Huffman table lookup is the
bottleneck".  We reproduce exactly that structure: a bit-serial
variable-length (Huffman) decoder walking a code tree one bit per cycle,
feeding a small dequantize/accumulate backend.  Almost everything is one
long serial dependence chain, so the compiled design has a deep critical
path and little to distribute - the benchmark where Verilator wins.
"""

from __future__ import annotations

import functools

from ..netlist.builder import CircuitBuilder
from ..netlist.ir import Circuit

#: A tiny canonical Huffman tree stored as a node table.  Each node packs
#: left/right child indices (or leaf symbols).  Entry format (8 bits per
#: field): [leaf(1) | value(7)] for each branch.
#: Tree over symbols 0..4 with code lengths (1, 2, 3, 4, 4).
_TREE: list[tuple[tuple[bool, int], tuple[bool, int]]] = [
    ((True, 0), (False, 1)),    # node 0: bit0 -> leaf 0, bit1 -> node 1
    ((True, 1), (False, 2)),    # node 1
    ((True, 2), (False, 3)),    # node 2
    ((True, 3), (True, 4)),     # node 3
]

#: Per-symbol dequantization factors.
_DEQUANT = [1, 3, 5, 11, 17]


def bitstream_bit(i: int) -> int:
    """Synthetic compressed bitstream (LFSR-flavored, deterministic)."""
    x = (i * 0x9E37 + 0x1234) & 0xFFFF
    return (x >> 7) & 1


@functools.lru_cache(maxsize=64)
def reference_decode(num_bits: int) -> tuple[int, int]:
    """(symbols decoded, accumulated dequantized sum) after consuming
    ``num_bits`` bits."""
    node = 0
    count = 0
    acc = 0
    for i in range(num_bits):
        leaf, value = _TREE[node][bitstream_bit(i)]
        if leaf:
            count += 1
            acc = (acc + _DEQUANT[value] * (count & 0x3F)) & 0xFFFFFFFF
            node = 0
        else:
            node = value
    return count, acc


def build(num_bits: int = 256) -> Circuit:
    m = CircuitBuilder("jpeg")
    cyc = m.register("cyc", 16)
    cyc.next = (cyc + 1).trunc(16)

    # Bitstream generator: bit = ((cyc * 0x9E37 + 0x1234) >> 7) & 1.
    word = (cyc * m.const(0x9E37, 16) + 0x1234).trunc(16)
    bit = word[7]

    # Huffman node table in an RTL memory: two packed branch bytes per
    # node -> one 16-bit word per node.
    table_init = []
    for (l_leaf, l_val), (r_leaf, r_val) in _TREE:
        lo = (0x80 if l_leaf else 0) | l_val
        hi = (0x80 if r_leaf else 0) | r_val
        table_init.append(lo | (hi << 8))
    table = m.memory("huffman", 16, len(_TREE), init=table_init)

    node = m.register("node", 4)
    entry = table.read(node.trunc(2))
    branch = m.mux(bit, entry.trunc(8), entry.bits(8, 8))
    is_leaf = branch[7]
    value = branch.trunc(3)

    count = m.register("count", 16)
    count.update(is_leaf, (count + 1).trunc(16))
    node.next = m.mux(is_leaf, branch.trunc(4), m.const(0, 4))

    # Dequantize: factor[symbol] * (count & 0x3F), accumulated serially.
    factor = m.select(value, [m.const(d, 8) for d in _DEQUANT]
                      + [m.const(0, 8)] * 3)
    scaled = factor.zext(16).mul_wide(
        ((count + 1) & 0x3F).trunc(16)).trunc(32)
    acc = m.register("acc", 32)
    acc.update(is_leaf, (acc + scaled).trunc(32))

    done = cyc == num_bits
    ref_count, ref_acc = reference_decode(num_bits)
    m.check_sticky(done, count == ref_count, "jpeg symbol count mismatch")
    m.check_sticky(done, acc == ref_acc,
                   "jpeg dequant accumulator mismatch")
    shown = m.display_staged(done, "jpeg decoded %d symbols acc %d",
                             count, acc)
    m.finish(shown)
    return m.build()


DEFAULT_CYCLES = 512
