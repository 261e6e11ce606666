"""The kernel fusion pass against a frozen copy of its quadratic ancestor.

``codegen._fuse`` answers every question from per-name position indices.
It replaced a pass that rescanned the rest of the statement stream with
a fresh ``\\b{t}\\b`` regex per candidate.  That pass is frozen below,
verbatim with its constants, as the reference: the indexed pass must
take the same decisions and emit the same bytes on seeded random
statement streams that exercise every branch of the textual analysis.
A synthetic 30k-line body checks that the rewrite stays out of the
quadratic regime; the reference is never run on it.
"""

from __future__ import annotations

import random
import re
import time

import pytest

from repro.machine import codegen as cg

# ---------------------------------------------------------------------------
# Frozen reference: the rescanning pass, verbatim.  Do not edit.
# ---------------------------------------------------------------------------
_FUSE_ASSIGN = re.compile(r"^( *)(c\d+_(?:r\d+|cy|pr)|m\d+|_t) = (.*)$")
_FUSE_NAME = re.compile(r"c\d+_(?:r\d+|cy|pr)|m\d+|_t")
_FUSE_IDENT = re.compile(r"[A-Za-z_]\w*")
_FUSE_PURE_WORDS = frozenset(("if", "else"))
_FUSE_MAX_EXPR = 300


def _reference_fuse(body: list[str]) -> list[str]:
    n = len(body)
    indents: list[str | None] = [None] * n
    lhs: list[str | None] = [None] * n
    rhs: list[str] = [""] * n
    for idx, line in enumerate(body):
        m = _FUSE_ASSIGN.match(line)
        if m:
            indents[idx], lhs[idx], rhs[idx] = m.groups()
        else:
            rhs[idx] = line  # guards, calls, yields: count uses whole
    dead = [False] * n
    changed = True
    rounds = 0
    while changed and rounds < 4:
        changed = False
        rounds += 1
        for i in range(n):
            t = lhs[i]
            # Candidates are top-level register/carry/predicate/temp
            # writes; a send capture (m<N>) exists precisely because its
            # operand is clobbered before delivery, so it never moves.
            if (dead[i] or t is None or indents[i] != "            "
                    or t.startswith("m")):
                continue
            expr = rhs[i]
            if len(expr) > _FUSE_MAX_EXPR:
                continue
            idents = set(_FUSE_IDENT.findall(expr))
            if not all(w in _FUSE_PURE_WORDS or _FUSE_NAME.fullmatch(w)
                       for w in idents):
                continue
            pat = re.compile(rf"\b{t}\b")
            cnt = 0
            use = -1
            closed = False
            for j in range(i + 1, n):
                if dead[j]:
                    continue
                hits = len(pat.findall(rhs[j]))
                if hits:
                    cnt += hits
                    if cnt > 1:
                        break
                    use = j
                if lhs[j] == t:
                    closed = True  # redefined: the value window ends
                    break
                if cnt == 0 and lhs[j] in idents:
                    break  # an operand is clobbered before the use
            if not closed:
                continue
            if cnt == 0:
                dead[i] = True  # dead store
                changed = True
            elif cnt == 1:
                new_rhs = pat.sub(lambda _m: f"({expr})", rhs[use],
                                  count=1)
                rhs[use] = new_rhs
                body[use] = (f"{indents[use]}{lhs[use]} = {new_rhs}"
                             if lhs[use] is not None else new_rhs)
                dead[i] = True
                changed = True
    return [line for idx, line in enumerate(body) if not dead[idx]]


# ---------------------------------------------------------------------------
# Random statement streams.
# ---------------------------------------------------------------------------
TOP = " " * 12
NESTED = " " * 16

# A small pool so windows, clobbers and reuse collide often.  c1_r1,
# c1_r10 and c11_r1 share substrings, so any match that is not a whole
# word shows up as a diff.
_REGS = ("c0_r0", "c0_r1", "c0_r2", "c1_r1", "c1_r10", "c11_r1", "c2_r3")
_TARGETS = _REGS + ("c0_cy", "c1_cy", "c0_pr", "c1_pr", "_t", "m0", "m1")


def _operand(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(_TARGETS)
    if roll < 0.95:
        return str(rng.choice((0, 1, 7, 16, 255, 65535)))
    return "0x1f"  # lexes as ident `x1f`: not a kernel local, so impure


def _expr(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 2 or roll < 0.3:
        return _operand(rng)
    if roll < 0.75:
        op = rng.choice(("+", "&", "|", "^", ">>", "<<", "*"))
        return f"({_expr(rng, depth + 1)} {op} {_expr(rng, depth + 1)})"
    if roll < 0.9:
        return (f"{_expr(rng, depth + 1)} if {rng.choice(_TARGETS)} & 1 "
                f"else {_expr(rng, depth + 1)}")
    return f"{_expr(rng, depth + 1)} & 65535"


def _rhs(rng: random.Random, target: str) -> str:
    roll = rng.random()
    if roll < 0.2:
        return f"({target} + 1) & 65535"  # self-referencing def
    if roll < 0.25:
        return f"s0[{rng.choice(_REGS)}]"  # impure: scratchpad read
    if roll < 0.28:
        return f"_gr(0, {rng.choice(_REGS)})"  # impure: global read
    if roll < 0.32:  # longer than _FUSE_MAX_EXPR
        parts = [rng.choice(_TARGETS) for _ in range(40)]
        return " + ".join(parts)
    if roll < 0.38:
        return "_t >> 16" if target != "_t" else "c0_r0 + c0_r1 + c0_cy"
    return _expr(rng)


def _assign(rng: random.Random, indent: str) -> str:
    target = rng.choice(_TARGETS)
    return f"{indent}{target} = {_rhs(rng, target)}"


def _other(rng: random.Random, indent: str) -> str:
    reg = rng.choice(_TARGETS)
    return rng.choice((
        f"{indent}yield -1",
        f"{indent}cmd = yield -1",
        f"{indent}_se(0, {reg})",
        f"{indent}msgs[{rng.randrange(4)}] = {reg}",
        f"{indent}s0[{rng.choice(_REGS)}] = {reg}",
        f"{indent}regs0[3] = {reg}",
    ))


def _stream(seed: int) -> list[str]:
    rng = random.Random(seed)
    body: list[str] = []
    for _ in range(rng.randrange(4, 90)):
        roll = rng.random()
        if roll < 0.72:
            body.append(_assign(rng, TOP))
        elif roll < 0.84:
            body.append(_other(rng, TOP))
        else:  # a guarded block, like predicate stores and exceptions
            body.append(f"{TOP}if {rng.choice(_TARGETS)} & 1:")
            for _ in range(rng.randrange(1, 4)):
                body.append(_assign(rng, NESTED) if rng.random() < 0.6
                            else _other(rng, NESTED))
    if rng.random() < 0.5:  # a writeback tail naming every local
        body.append(f"{TOP}if cmd is not None:")
        body.extend(f"{NESTED}regs0[{k}] = {name}"
                    for k, name in enumerate(_TARGETS))
    return body


@pytest.mark.parametrize("block", range(8))
def test_fuse_matches_frozen_reference(block):
    changed = 0
    for seed in range(block * 250, (block + 1) * 250):
        body = _stream(seed)
        expected = _reference_fuse(list(body))
        assert cg._fuse(list(body)) == expected, f"seed {seed}"
        changed += expected != body
    assert changed > 150, "streams too tame to exercise the pass"


def test_fuse_reintroduced_name_is_counted_once():
    """``c2_r3 = (c2_r3 + 1) & 65535`` fuses into the store, whose count
    for ``c2_r3`` drops to zero and comes straight back.  The store must
    stay listed once under ``c2_r3``: listed twice, the second round
    sees two uses and keeps ``c2_r3 = _t`` that the reference fuses."""
    body = [
        f"{TOP}c2_r3 = _t",
        f"{TOP}_t = (_t + 1) & 65535",
        f"{TOP}c2_r3 = (c2_r3 + 1) & 65535",
        f"{NESTED}s0[c0_r1] = c2_r3",
        f"{TOP}c2_r3 = 65535 if m1 & 1 else c11_r1 & 65535 & 65535",
        f"{NESTED}_t = (c0_r2 ^ c0_r1 if c0_r0 & 1 else 7) & 65535",
    ]
    expected = _reference_fuse(list(body))
    assert expected[0] == f"{NESTED}s0[c0_r1] = (((_t) + 1) & 65535)"
    assert cg._fuse(list(body)) == expected


def _synthetic_body(lines: int, regs: int) -> list[str]:
    """Straight-line ALU code over ``regs`` registers: every value
    window spans ~``regs`` statements, and the last definitions never
    close."""
    rng = random.Random(0)
    names = [f"c{k % 64}_r{k // 64}" for k in range(regs)]
    body = []
    for k in range(lines):
        if k % 7 == 6:
            body.append(f"{TOP}_t = {rng.choice(names)} + "
                        f"{rng.choice(names)} + c0_cy")
            body.append(f"{TOP}{rng.choice(names)} = _t & 65535")
            body.append(f"{TOP}c0_cy = _t >> 16")
        else:
            a, b, c = rng.sample(names, 3)
            body.append(f"{TOP}{a} = ({b} + {c}) & 65535")
    return body


def test_fuse_is_not_quadratic():
    body = _synthetic_body(30_000, 2_000)
    t0 = time.perf_counter()
    fused = cg._fuse(body)
    elapsed = time.perf_counter() - t0
    assert len(fused) < len(body)
    assert elapsed < 10.0, f"fusing 30k lines took {elapsed:.1f} s"
