"""``mc`` - a Monte-Carlo stock option price evolution predictor with
fixed-point arithmetic (paper SS7.5, [44]).

``walkers`` independent lanes each hold a 32-bit fixed-point price
(Q16.16) and a xorshift32 RNG.  Every cycle each lane updates::

    price += (price * drift) >> 16 + (price * noise) >> 16

where ``noise`` is a small signed value derived from the RNG.  Lanes are
completely independent - the design is embarrassingly parallel, which is
why the paper's mc scales to hundreds of cores (Fig. 7) and gains the
most from multithreaded Verilator (Table 3).

A running sum of all lane prices is checked against a Python reference
model at the end of the run.
"""

from __future__ import annotations

import functools

from ..netlist.builder import CircuitBuilder, Signal
from ..netlist.ir import Circuit

M32 = 0xFFFFFFFF
Q = 16                      # fixed-point fraction bits
DRIFT = 0x0100              # per-step drift: 2^-8 in Q16
NOISE_BITS = 10             # RNG noise magnitude


def xorshift32(x: int) -> int:
    x ^= (x << 13) & M32
    x ^= x >> 17
    x ^= (x << 5) & M32
    return x & M32


@functools.lru_cache(maxsize=64)
def reference_sum(walkers: int, steps: int) -> int:
    """Python model of the total price after ``steps`` cycles."""
    total = 0
    for w in range(walkers):
        price = (1 << Q) + (w << 8)
        state = 0x12345678 + w * 0x9E3779B9 & M32
        for _ in range(steps):
            state = xorshift32(state)
            noise = state & ((1 << NOISE_BITS) - 1)
            price = (price + ((price * DRIFT) >> Q)
                     + ((price * noise) >> Q)) & M32
        total = (total + price) & M32
    return total


def _xorshift_step(m: CircuitBuilder, x: Signal) -> Signal:
    x1 = (x ^ (x << 13)).trunc(32)
    x2 = (x1 ^ (x1 >> 17)).trunc(32)
    return (x2 ^ (x2 << 5)).trunc(32)


def build(walkers: int = 32, steps: int = 64) -> Circuit:
    m = CircuitBuilder("mc")
    cyc = m.register("cyc", 16)
    cyc.next = (cyc + 1).trunc(16)

    prices: list[Signal] = []
    for w in range(walkers):
        price = m.register(f"price{w}", 32, init=(1 << Q) + (w << 8))
        rng = m.register(f"rng{w}", 32,
                         init=(0x12345678 + w * 0x9E3779B9) & M32)
        nxt_rng = _xorshift_step(m, rng)
        rng.next = nxt_rng
        noise = nxt_rng.trunc(NOISE_BITS)
        drift_term = (price.mul_wide(m.const(DRIFT, 32))
                      >> Q).trunc(32)
        noise_term = (price.mul_wide(noise.zext(32)) >> Q).trunc(32)
        price.next = (price + drift_term + noise_term).trunc(32)
        prices.append(price)

    def add32(group):
        acc = group[0]
        for s in group[1:]:
            acc = (acc + s).trunc(32)
        return acc

    total, depth = m.registered_reduce("mc_sum", prices, add32)
    # The reduction tree lags the walkers by ``depth`` cycles: at cycle
    # steps + depth it holds the sum of prices as of cycle ``steps``.
    done = cyc == steps + depth
    m.check_sticky(done, total == reference_sum(walkers, steps),
                   "monte-carlo sum diverged from reference")
    shown = m.display_staged(done, "mc sum %d after %d steps", total,
                             m.const(steps, 16))
    m.finish(shown)
    return m.build()


DEFAULT_CYCLES = 128
