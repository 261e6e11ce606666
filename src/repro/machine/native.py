"""Native C tier for trusted codegen Vcycles.

The codegen engine (:mod:`repro.machine.codegen`) emits each program's
static Vcycle schedule as a Python generator, ``grid_kernel``: frame
locals for registers, masked 16-bit arithmetic, array loads and stores,
three host calls and a handful of ``yield`` points.  This module
translates that already-emitted function into one C function, builds it
with ``cc -O0 -fwrapv -shared -fPIC`` in a temporary directory and loads
it with :mod:`ctypes`.  The emitter, the fusion pass, the stop bodies,
the abort sentinels and the counter settlement stay the single source
of truth: nothing here walks a schedule.

Translation is line by line - one :func:`ast.parse` per emitted line,
block structure from indentation - through a closed whitelist; anything
it does not know refuses the whole kernel (:class:`NativeUnsupported`)
and the engine keeps its Python kernel.

* Preamble: ``_m``/``_se``/``_gr``/``_gw`` bound from ``machine``,
  ``coreN = cores[N]``, ``regsN = coreN.regs``, ``scN = coreN.scratch``;
  in ``grid_kernel`` the locals load from ``regsN[k]``,
  ``coreN.carry`` and ``coreN.predicate``.
* Locals are ``cN_rM``, ``cN_cy``, ``cN_pr``, ``mK`` (16-bit classes),
  ``_t`` (an add-with-carry temporary, below 2**18) and ``exc``.  They
  persist across calls in an ``int64`` array, as the generator's frame
  locals persist across ``yield``.
* Statements: assignments to locals, stores to ``regsN[k]``,
  ``scN[i]``, ``msgs[k]``, ``coreN.carry``/``.predicate``; ``if``
  blocks; ``_gw(...)``/``_se(...)`` calls; ``if _m.finished:`` right
  after ``_se``; ``yield K`` followed by ``return``; and the one Vcycle
  boundary ``cmd = yield -1`` followed by ``if cmd is not None:``.
* Expressions: integer constants, locals, ``+ - * & | ^ << >> %``,
  unary minus, one-operator comparisons, ``x if c else y``, array
  loads, and ``_gr(...)`` only as the left operand of ``& mask``.

Every expression gets a proven interval.  Each assignment must keep its
local inside the local's class, so by induction every value fits the
class it was proven for; an intermediate that could leave +-2**62, a
shift amount outside 0..63, a ``%`` of a possibly negative value, or an
array index not proven inside the array's length (``x & m`` with
``m < len``, ``x % n`` with ``n <= len``, constants checked against the
length) refuses the kernel, so the C code neither overflows nor reads or
writes out of bounds, and agrees with Python's integers everywhere.  So
does a 16-bit store whose value is not proven in range: the Python
kernel keeps running and raises :class:`OverflowError` there, exactly as
``array("H")`` does.

The C function is reentrant: all state travels through a context array
of pointers built at each hydrate (buffer addresses are never kept
across ``sync``, ``invalidate`` or a restore), because ``ctypes.CDLL``
calls release the interpreter lock.  Host calls go through ctypes
callbacks.  The C code marks each call pending and the callback clears
the mark as its last step, so a call that did not complete - it raised
and stashed its exception, or a signal handler raised before its
``try`` and ctypes swallowed the exception - makes the C code return at
once, and :meth:`NativeKernel._retire` raises again.

Builds run on a background thread, are de-duplicated per content key
and kept in a per-process memo; nothing is written to the kernel cache.
Every failure - no ``cc`` on ``PATH``, an unsupported construct, a
compiler error or timeout, a kernel above the line ceiling - is a
recorded reason, never an error.
"""

from __future__ import annotations

import ast
import atexit
import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs.trace import current_tracer

#: Trusted Python-kernel Vcycles a program runs in one process before
#: its native build starts: enough that short runs never pay for
#: ``cc`` (the longest ``cold-oneshot`` op runs 330 Vcycles), few
#: enough that a 30k-Vcycle run switches within its first few percent.
NATIVE_AFTER_VCYCLES = 1024

#: Vcycles per C call: bulk runs return to Python between calls, so
#: signal handlers run and ``KeyboardInterrupt`` lands within a few ms.
CHUNK_VCYCLES = 4096

#: ``grid_kernel`` line ceiling: ``cc -O0`` time and memory grow with
#: the single function's size (``noc@small``, 20.8k lines, takes 2.2 s
#: and 330 MB in ``cc1`` on a 2-CPU box); above it the Python kernel
#: keeps running.
MAX_KERNEL_LINES = 40_000

CC_FLAGS = ("-O0", "-fwrapv", "-shared", "-fPIC")
CC_TIMEOUT_S = 120.0
_NO_CC = "no C compiler: 'cc' is not on PATH"

# C entry-point operations and the code beyond the Python kernel's.
OP_HYDRATE, OP_RUN, OP_SYNC = 0, 1, 2
CODE_HOST_ERROR = -100      # a host call did not complete: io[1] still set

_WORD = (0, 0xFFFF)
_BOUND = 1 << 62
_NAME_CLASSES = (
    (re.compile(r"c\d+_(?:r\d+|cy|pr)|m\d+"), _WORD),
    (re.compile(r"_t"), (0, (1 << 18) - 1)),
    (re.compile(r"exc"), (0, 1)),
)
_HOSTS = {"service_exception": "_se", "global_read": "_gr",
          "global_write": "_gw"}
_ATTRS = ("carry", "predicate")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.BitAnd: "&",
           ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
           ast.RShift: ">>", ast.Mod: "%"}
_CMPOPS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">="}
# Fixed context slots; array pointers follow in Translation.arrays order.
_CTX_L, _CTX_IO, _CTX_A, _CTX_M, _CTX_SE, _CTX_GR, _CTX_GW = range(7)
_CTX_FIXED = 7


class NativeUnsupported(Exception):
    """The kernel cannot be translated or built; the engine keeps its
    Python kernel and records this message as ``native_error``."""


@dataclass
class Translation:
    """A translated ``grid_kernel`` and the layout its C code expects."""

    c_source: str
    arrays: list[tuple[int, str]]    # context order: (cid, "regs"|"scratch")
    attrs: list[tuple[int, str]]     # A slots: (cid, "carry"|"predicate")
    n_locals: int
    n_msgs: int


# ---------------------------------------------------------------------------
# Interval arithmetic over closed integer ranges; None is "unbounded".
# ---------------------------------------------------------------------------
def _hull(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _span_bits(r) -> int:
    return max(abs(r[0]), abs(r[1])).bit_length()


def _binop_range(op, a, b):
    if op is ast.Add:
        return (a[0] + b[0], a[1] + b[1])
    if op is ast.Sub:
        return (a[0] - b[1], a[1] - b[0])
    if op is ast.Mult:
        corners = [x * y for x in a for y in b]
        return (min(corners), max(corners))
    if op is ast.BitAnd:
        if a[0] >= 0 and b[0] >= 0:
            return (0, min(a[1], b[1]))
        if a[0] >= 0 or b[0] >= 0:
            return (0, a[1] if a[0] >= 0 else b[1])
    if op in (ast.BitAnd, ast.BitOr, ast.BitXor):
        k = max(_span_bits(a), _span_bits(b))
        if a[0] >= 0 and b[0] >= 0:
            return (0, (1 << k) - 1)
        return (-(1 << k), (1 << k) - 1)
    if op in (ast.LShift, ast.RShift):
        if b[0] < 0 or b[1] > 63:
            raise NativeUnsupported(f"shift amount range {b} leaves 0..63")
        if op is ast.LShift:
            corners = [x << s for x in a for s in b]
        else:
            corners = [x >> s for x in a for s in b]
        return (min(corners), max(corners))
    if op is ast.Mod:
        if a[0] < 0 or b[0] != b[1] or b[0] <= 0:
            raise NativeUnsupported("'%' needs a non-negative left operand "
                                    "and a positive constant modulus")
        return (0, min(a[1], b[0] - 1))
    raise NativeUnsupported(f"operator {op.__name__}")  # pragma: no cover


# ---------------------------------------------------------------------------
# The translator.
# ---------------------------------------------------------------------------
def _indent(line: str) -> int:
    stripped = line.lstrip(" ")
    if stripped.startswith("\t"):
        raise NativeUnsupported("tab indentation")
    return len(line) - len(stripped)


def _parse(text: str) -> ast.stmt:
    """One emitted line as one statement (a block header gets a dummy
    ``pass`` body)."""
    try:
        tree = ast.parse(text + " pass" if text.endswith(":") else text)
    except SyntaxError as exc:
        raise NativeUnsupported(f"unparsable line {text[:60]!r}") from exc
    if len(tree.body) != 1:
        raise NativeUnsupported(f"not one statement: {text[:60]!r}")
    return tree.body[0]


def _const(node) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        return int(node.value)
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and type(node.operand.value) is int):
        return -node.operand.value
    return None


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_cmd_test(stmt) -> bool:
    """``if cmd is not None:``"""
    test = getattr(stmt, "test", None)
    return (isinstance(stmt, ast.If) and isinstance(test, ast.Compare)
            and _is_name(test.left, "cmd") and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None)


def _is_finished_test(stmt) -> bool:
    """``if _m.finished:``"""
    test = stmt.test
    return (isinstance(test, ast.Attribute) and test.attr == "finished"
            and _is_name(test.value, "_m"))


@dataclass
class _Block:
    indent: int             # indentation of the block's statements
    kind: str               # "loop" | "if" | "sync" | "hydrate"
    stores: bool = False    # holds a store that must end the kernel
    returned: bool = False  # closed by ``yield K`` + ``return``


class _Translator:
    def __init__(self, lengths: dict[tuple[int, str], int],
                 n_msgs: int) -> None:
        self.lengths = lengths
        self.n_msgs = n_msgs
        self.hosts: dict[str, str] = {}         # py name -> role
        self.cores: dict[str, int] = {}         # coreN -> N
        self.arrays: dict[str, tuple[int, str, int]] = {}
        self.array_order: list[tuple[int, str]] = []
        self.slots: dict[str, int] = {}         # local -> L index
        self.attrs: dict[tuple[int, str], int] = {}
        self.defined: set[str] = set()
        self.out: list[str] = []
        self.tmp = 0
        self.pre: list[str] = []

    # -- names -----------------------------------------------------------
    def slot(self, name: str) -> str:
        for pattern, _rng in _NAME_CLASSES:
            if pattern.fullmatch(name):
                break
        else:
            raise NativeUnsupported(f"unknown local {name!r}")
        k = self.slots.setdefault(name, len(self.slots))
        return f"L[{k}]"

    @staticmethod
    def name_range(name: str):
        for pattern, rng in _NAME_CLASSES:
            if pattern.fullmatch(name):
                return rng
        raise NativeUnsupported(f"unknown local {name!r}")  # pragma: no cover

    def attr(self, node) -> str:
        if not (isinstance(node, ast.Attribute) and node.attr in _ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in self.cores):
            raise NativeUnsupported(f"attribute {ast.dump(node)[:60]}")
        key = (self.cores[node.value.id], node.attr)
        return f"A[{self.attrs.setdefault(key, len(self.attrs))}]"

    def array(self, node) -> tuple[str, int, str, int]:
        """(C name, cid, kind, length) of an array subscript base."""
        if not isinstance(node, ast.Name):
            raise NativeUnsupported("subscript of a non-name")
        if node.id == "msgs":
            return "M", -1, "msgs", self.n_msgs
        if node.id not in self.arrays:
            raise NativeUnsupported(f"unknown array {node.id!r}")
        cid, kind, length = self.arrays[node.id]
        return node.id, cid, kind, length

    # -- expressions -----------------------------------------------------
    def expr(self, node, refine=None) -> tuple[str, tuple[int, int] | None]:
        """C text and proven interval of ``node`` (None = unbounded,
        legal only under ``& mask``)."""
        c = _const(node)
        if c is not None:
            if abs(c) >= _BOUND:
                raise NativeUnsupported(f"constant {c} too wide")
            return f"{c}LL", (c, c)
        if isinstance(node, ast.Name):
            if node.id not in self.defined:
                raise NativeUnsupported(f"{node.id} read before assignment")
            rng = (refine or {}).get(node.id) or self.name_range(node.id)
            return self.slot(node.id), rng
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            s, r = self.bounded(node.operand, refine)
            return f"(-{s})", (-r[1], -r[0])
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = type(node.op)
            if op is ast.BitAnd:
                return self.mask(node, refine)
            sa, ra = self.bounded(node.left, refine)
            sb, rb = self.bounded(node.right, refine)
            return (f"({sa} {_BINOPS[op]} {sb})",
                    self.check(_binop_range(op, ra, rb)))
        if isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and type(node.ops[0]) in _CMPOPS:
            sa, _ra = self.bounded(node.left, refine)
            sb, _rb = self.bounded(node.comparators[0], refine)
            return f"({sa} {_CMPOPS[type(node.ops[0])]} {sb})", (0, 1)
        if isinstance(node, ast.IfExp):
            pre = len(self.pre)
            test, _r = self.bounded(node.test, refine)
            body, rb = self.bounded(node.body, self.narrow(node.test,
                                                           refine))
            orelse, ro = self.bounded(node.orelse, refine)
            if len(self.pre) != pre:
                raise NativeUnsupported("host call inside a conditional "
                                        "expression")
            return f"({test} ? {body} : {orelse})", _hull(rb, ro)
        if isinstance(node, ast.Subscript):
            cname, _cid, kind, length = self.array(node.value)
            if kind == "msgs":
                raise NativeUnsupported("msgs read inside grid_kernel")
            idx = self.index(node.slice, length, refine)
            return f"((int64_t){cname}[{idx}])", _WORD
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and self.hosts.get(node.func.id) == "_gr":
            return self.host_call(node, "gr", refine), None
        raise NativeUnsupported(f"expression {ast.dump(node)[:80]}")

    def bounded(self, node, refine=None):
        s, r = self.expr(node, refine)
        if r is None:
            raise NativeUnsupported("unbounded value outside '& mask'")
        return s, r

    def mask(self, node, refine):
        sa, ra = self.expr(node.left, refine)
        sb, rb = self.expr(node.right, refine)
        if ra is None or rb is None:
            known = rb if ra is None else ra
            if known is None or known[0] != known[1] or known[0] < 0:
                raise NativeUnsupported("unbounded value needs a "
                                        "non-negative constant mask")
            return f"({sa} & {sb})", (0, known[0])
        return f"({sa} & {sb})", self.check(_binop_range(ast.BitAnd, ra,
                                                          rb))

    @staticmethod
    def check(rng):
        if rng[0] <= -_BOUND or rng[1] >= _BOUND:
            raise NativeUnsupported(f"intermediate range {rng} may "
                                    "overflow int64")
        return rng

    def narrow(self, test, refine):
        """Ranges inside ``x if name < K else y``'s true branch."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Name)
                and type(test.ops[0]) in (ast.Lt, ast.LtE)):
            k = _const(test.comparators[0])
            if k is not None:
                _s, lo_hi = self.bounded(test.left, refine)
                top = k - 1 if isinstance(test.ops[0], ast.Lt) else k
                merged = dict(refine or {})
                merged[test.left.id] = (lo_hi[0], min(lo_hi[1], top))
                if merged[test.left.id][0] > merged[test.left.id][1]:
                    merged[test.left.id] = (lo_hi[0], lo_hi[0])
                return merged
        return refine

    def index(self, node, length: int, refine) -> str:
        s, r = self.bounded(node, refine)
        if r[0] < 0 or r[1] >= length:
            raise NativeUnsupported(f"index range {r} not proven inside "
                                    f"an array of {length}")
        return s

    def host_call(self, node, role: str, refine) -> str:
        """Hoist a host call into a temporary (arguments are pure, so
        evaluation order is unchanged) and return the temporary."""
        if node.keywords or len(node.args) != (3 if role == "gw" else 2):
            raise NativeUnsupported(f"host call shape {role}")
        args = [self.bounded(a, refine)[0] for a in node.args]
        name = f"h{self.tmp}"
        self.tmp += 1
        self.pre.append(f"io[1] = 1; int64_t {name} = "
                        f"{role}({', '.join(args)}); "
                        f"if (io[1]) return {CODE_HOST_ERROR};")
        return name

    # -- statements ------------------------------------------------------
    def emit(self, code: str) -> None:
        if self.pre:
            self.out.append("{ " + " ".join(self.pre) + " " + code + " }")
            self.pre = []
        else:
            self.out.append(code)

    @staticmethod
    def store16(target: str, value: str, rng) -> str:
        if rng is None or rng[0] < _WORD[0] or rng[1] > _WORD[1]:
            raise NativeUnsupported(f"cannot prove the 16-bit store "
                                    f"{target} = ... stays in {_WORD}")
        return f"{target} = (uint16_t){value};"

    def assign(self, stmt: ast.Assign, block: _Block, top: bool) -> None:
        if len(stmt.targets) != 1:
            raise NativeUnsupported("chained assignment")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            s, r = self.expr(stmt.value)
            cls = self.name_range(target.id)
            if r is None or r[0] < cls[0] or r[1] > cls[1]:
                raise NativeUnsupported(
                    f"cannot prove {target.id} = ... stays in {cls}")
            self.emit(f"{self.slot(target.id)} = {s};")
            if top:
                self.defined.add(target.id)
            return
        if isinstance(target, ast.Attribute):
            s, _r = self.bounded(stmt.value)
            block.stores = True
            self.emit(f"{self.attr(target)} = {s};")
            return
        if isinstance(target, ast.Subscript):
            cname, _cid, kind, length = self.array(target.value)
            s, r = self.expr(stmt.value)
            idx = self.index(target.slice, length, None)
            if kind == "msgs":
                if r is None:
                    raise NativeUnsupported("unbounded message value")
                block.stores = True
                self.emit(f"M[{idx}] = {s};")
            else:
                if kind == "regs":
                    block.stores = True
                self.emit(self.store16(f"{cname}[{idx}]", s, r))
            return
        raise NativeUnsupported(f"assignment target {ast.dump(target)[:60]}")

    # -- module structure ------------------------------------------------
    def preamble(self, stmt: ast.stmt) -> None:
        """One ``make_kernel`` binding line."""
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise NativeUnsupported(f"preamble {ast.dump(stmt)[:60]}")
        name, value = stmt.targets[0].id, stmt.value
        if _is_name(value, "machine") and name == "_m":
            self.hosts[name] = "_m"
        elif (isinstance(value, ast.Attribute)
              and _is_name(value.value, "machine")
              and _HOSTS.get(value.attr) == name):
            self.hosts[name] = name
        elif (isinstance(value, ast.Subscript)
              and _is_name(value.value, "cores")
              and _const(value.slice) is not None
              and name == f"core{_const(value.slice)}"):
            self.cores[name] = _const(value.slice)
        elif (isinstance(value, ast.Attribute)
              and isinstance(value.value, ast.Name)
              and value.value.id in self.cores
              and value.attr in ("regs", "scratch")):
            cid = self.cores[value.value.id]
            prefix = "regs" if value.attr == "regs" else "sc"
            length = self.lengths.get((cid, value.attr))
            if name != f"{prefix}{cid}" or length is None:
                raise NativeUnsupported(f"binding {name} = core{cid}."
                                        f"{value.attr}")
            self.arrays[name] = (cid, value.attr, length)
            self.array_order.append((cid, value.attr))
        else:
            raise NativeUnsupported(f"preamble {ast.dump(stmt)[:60]}")

    def kernel(self, lines: list[str]) -> None:
        """The ``grid_kernel`` body: hydrate loads, then the loop."""
        blocks = [_Block(8, "hydrate")]
        self.out.append(f"if (op == {OP_HYDRATE}) {{")
        expect: int | None = 8      # indentation a block header demands
        awaiting_return = False     # after ``yield K``
        prev_se: int | None = None  # indentation of the last _se call
        boundary = synced = False   # saw ``cmd = yield -1`` / its block
        for text in lines:
            if not text.strip():
                continue
            ind = _indent(text)
            if expect is not None and ind != expect:
                raise NativeUnsupported(f"indentation {ind}, expected "
                                        f"{expect}")
            expect = None
            while len(blocks) > 1 and ind < blocks[-1].indent:
                self.close(blocks.pop())
            block = blocks[-1]
            if ind != block.indent:
                raise NativeUnsupported(f"unexpected indentation {ind}")
            if block.returned:
                raise NativeUnsupported("statement after return")
            stmt = _parse(text.strip())
            if awaiting_return:
                if not (isinstance(stmt, ast.Return) and stmt.value is None):
                    raise NativeUnsupported("yield not followed by return")
                block.returned = True
                awaiting_return = False
                continue
            was_se, prev_se = prev_se, None
            if block.kind == "hydrate":
                if not isinstance(stmt, ast.While):
                    self.hydrate(stmt)
                    continue
                if _const(stmt.test) != 1 or stmt.orelse:
                    raise NativeUnsupported("loop header")
                self.out += ["}", "while (1) {"]
                blocks = [_Block(12, "loop")]
                expect = 12
                continue
            top = block.kind == "loop"
            if top and synced:
                raise NativeUnsupported("code after the sync block")
            if top and boundary and not _is_cmd_test(stmt):
                raise NativeUnsupported("statement after the Vcycle "
                                        "boundary")
            if isinstance(stmt, ast.If):
                expect = ind + 4
                if _is_cmd_test(stmt):
                    if not (top and boundary):
                        raise NativeUnsupported("misplaced cmd test")
                    synced = True
                    self.out += ["if (0) {", "sync_entry: ;"]
                    blocks.append(_Block(expect, "sync"))
                elif _is_finished_test(stmt) and "_m" in self.hosts:
                    if was_se != ind:
                        raise NativeUnsupported("_m.finished not right "
                                                "after _se")
                    self.out.append("if (fin) {")
                    blocks.append(_Block(expect, "if"))
                else:
                    s, _r = self.bounded(stmt.test)
                    if self.pre:
                        raise NativeUnsupported("host call in an if test")
                    self.out.append(f"if ({s}) {{")
                    blocks.append(_Block(expect, "if"))
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value,
                                                             ast.Yield):
                if not (top and _is_name(stmt.targets[0], "cmd")
                        and len(stmt.targets) == 1 and not boundary
                        and stmt.value.value is not None
                        and _const(stmt.value.value) == -1):
                    raise NativeUnsupported("yield assignment")
                boundary = True
                self.out.append("n += 1; if (n >= budget) "
                                "{ io[0] = n; return -1; }")
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                           ast.Yield):
                k = (_const(stmt.value.value)
                     if stmt.value.value is not None else None)
                if top or k is None or k < -3 or k == -1 \
                        or (k == -3) != (block.kind == "sync"):
                    raise NativeUnsupported(f"yield {k} here")
                self.out.append(f"io[0] = n; return {k};")
                awaiting_return = True
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                           ast.Call):
                call = stmt.value
                role = (self.hosts.get(call.func.id)
                        if isinstance(call.func, ast.Name) else None)
                if role == "_se":
                    self.emit(f"fin = {self.host_call(call, 'se', None)};")
                    prev_se = ind
                elif role == "_gw":
                    self.host_call(call, "gw", None)
                    self.emit(";")
                else:
                    raise NativeUnsupported("call of a non-host function")
            elif isinstance(stmt, ast.Assign):
                self.assign(stmt, block, top)
            else:
                raise NativeUnsupported(f"statement {ast.dump(stmt)[:60]}")
        if awaiting_return or expect is not None:
            raise NativeUnsupported("kernel ends inside a block")
        while len(blocks) > 1:
            self.close(blocks.pop())
        if not synced:
            raise NativeUnsupported("no Vcycle boundary")
        self.out.append("}")

    def close(self, block: _Block) -> None:
        if block.stores and not block.returned:
            raise NativeUnsupported("a write-back block that does not end "
                                    "the kernel")
        if block.kind == "sync" and not block.returned:
            raise NativeUnsupported("sync block without return")
        self.out.append("}")

    def hydrate(self, stmt) -> None:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise NativeUnsupported(f"hydrate line {ast.dump(stmt)[:60]}")
        name = stmt.targets[0].id
        value = stmt.value
        if isinstance(value, ast.Attribute):
            src = self.attr(value)
        elif isinstance(value, ast.Subscript):
            cname, _cid, kind, length = self.array(value.value)
            if kind != "regs":
                raise NativeUnsupported("hydrate from a non-register array")
            src = f"(int64_t){cname}[{self.index(value.slice, length, None)}]"
        else:
            raise NativeUnsupported(f"hydrate line {ast.dump(stmt)[:60]}")
        if self.name_range(name) != _WORD:
            raise NativeUnsupported(f"hydrate of {name}")
        self.out.append(f"{self.slot(name)} = {src};")
        self.defined.add(name)


def translate(source: str, lengths: dict[tuple[int, str], int],
              n_msgs: int) -> Translation:
    """Translate the ``grid_kernel`` of an emitted codegen module to C.

    ``lengths`` maps ``(cid, "regs"|"scratch")`` to the array lengths
    the kernel will be bound to (part of the content key, through the
    machine config); ``n_msgs`` is the ``msgs`` buffer length.  Raises
    :class:`NativeUnsupported` for anything outside the whitelist."""
    lines = source.split("\n")
    try:
        start = lines.index("def make_kernel(machine, cores, msgs, park):")
        body = lines.index("    def grid_kernel():", start)
        end = lines.index("    return grid_kernel", body)
    except ValueError as exc:
        raise NativeUnsupported("not an emitted codegen module") from exc
    if end - body > MAX_KERNEL_LINES:
        raise NativeUnsupported(f"grid_kernel has {end - body} lines "
                                f"(ceiling {MAX_KERNEL_LINES})")
    tr = _Translator(lengths, n_msgs)
    for text in lines[start + 1:body]:
        if text.strip():
            if _indent(text) != 4:
                raise NativeUnsupported("preamble indentation")
            tr.preamble(_parse(text.strip()))
    tr.kernel(lines[body + 1:end])
    head = [
        "#include <stdint.h>",
        "typedef int64_t (*host2)(int64_t, int64_t);",
        "typedef int64_t (*host3)(int64_t, int64_t, int64_t);",
        "int64_t grid_kernel(int64_t op, int64_t budget, void **ctx) {",
        f"register int64_t *L = (int64_t *)ctx[{_CTX_L}];",
        f"register int64_t *io = (int64_t *)ctx[{_CTX_IO}];",
        f"int64_t *A = (int64_t *)ctx[{_CTX_A}];",
        f"int64_t *M = (int64_t *)ctx[{_CTX_M}];",
        f"host2 se = (host2)ctx[{_CTX_SE}];",
        f"host2 gr = (host2)ctx[{_CTX_GR}];",
        f"host3 gw = (host3)ctx[{_CTX_GW}];",
    ]
    for pos, (cid, kind) in enumerate(tr.array_order):
        cname = ("regs" if kind == "regs" else "sc") + str(cid)
        head.append(f"uint16_t *{cname} = "
                    f"(uint16_t *)ctx[{_CTX_FIXED + pos}];")
    head += [
        "register int64_t n = 0;",
        "int64_t fin = 0;",
        "(void)A; (void)M; (void)se; (void)gr; (void)gw; (void)fin;",
        f"if (op == {OP_SYNC}) goto sync_entry;",
    ]
    tail = ["}", ""]
    return Translation(
        c_source="\n".join(head + tr.out + tail),
        arrays=list(tr.array_order),
        attrs=sorted(tr.attrs, key=tr.attrs.get),
        n_locals=len(tr.slots), n_msgs=n_msgs)


# ---------------------------------------------------------------------------
# Building and the per-process memo.
# ---------------------------------------------------------------------------
@dataclass
class NativeLib:
    """A loaded kernel: the ctypes entry point and its layout."""

    fn: object
    translation: Translation
    handle: object      # the CDLL: keeps the .so mapped


_LIBS: dict[str, NativeLib | str] = {}       # content key -> lib or reason
_BUILDS: dict[str, threading.Thread] = {}    # in-flight, per content key
#: Finished builds' spans, (tracer, start, end, outcome) per content key,
#: recorded by the engine thread that picks the result up.
_SPANS: dict[str, tuple] = {}
_LOCK = threading.Lock()
_PROCS: set = set()                          # live cc processes
_TMPDIRS: set[str] = set()                   # their build directories
_threshold = NATIVE_AFTER_VCYCLES
_synchronous = False


def build(source: str, lengths: dict[tuple[int, str], int],
          n_msgs: int) -> NativeLib:
    """Translate, compile and load one kernel (synchronously).  Raises
    :class:`NativeUnsupported` naming the reason on any failure."""
    cc = shutil.which("cc")
    if cc is None:
        raise NativeUnsupported(_NO_CC)
    tr = translate(source, lengths, n_msgs)
    import ctypes
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        _TMPDIRS.add(tmp)
        c_path = os.path.join(tmp, "kernel.c")
        so_path = os.path.join(tmp, "kernel.so")
        with open(c_path, "w") as fh:
            fh.write(tr.c_source)
        proc = subprocess.Popen([cc, *CC_FLAGS, "-o", so_path, c_path],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        _PROCS.add(proc)
        try:
            _out, err = proc.communicate(timeout=CC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise NativeUnsupported(
                f"cc timed out after {CC_TIMEOUT_S:g} s") from None
        finally:
            _PROCS.discard(proc)
        if proc.returncode != 0:
            first = err.decode(errors="replace").strip().splitlines()[:1]
            raise NativeUnsupported(f"cc failed with exit status "
                                    f"{proc.returncode}: "
                                    f"{first[0] if first else ''}")
        handle = ctypes.CDLL(so_path)   # stays mapped after the unlink
        _TMPDIRS.discard(tmp)
    fn = handle.grid_kernel
    fn.argtypes = (ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    fn.restype = ctypes.c_int64
    return NativeLib(fn, tr, handle)


def _build_into_memo(key: str, source: str, lengths, n_msgs: int,
                     tracer, clock) -> None:
    """The build thread: build, memoise the outcome, leave its span for
    the engine thread (the tracer itself is not touched here)."""
    start = clock()
    try:
        result: NativeLib | str = build(source, lengths, n_msgs)
        outcome = "ok"
    except NativeUnsupported as exc:
        result = outcome = str(exc)
    except Exception as exc:  # noqa: BLE001 - never an engine error
        result = outcome = f"{type(exc).__name__}: {exc}"
    end = clock()
    with _LOCK:
        _LIBS[key] = result
        _BUILDS.pop(key, None)
        if tracer is not None:
            _SPANS[key] = (tracer, start, end, outcome)


def _picked_up(key: str, done: NativeLib | str) -> NativeLib | str:
    """Record the finished build's span, once, on the calling thread."""
    pending = _SPANS.pop(key, None)
    if pending is not None:
        tracer, start, end, outcome = pending
        tracer.record("machine.codegen.native", start, end, key=key[:12],
                      outcome=outcome, seconds=round(end - start, 6))
    return done


def request(key: str, trusted: int, source_of, lengths_of
            ) -> NativeLib | str | None:
    """The native kernel for ``key``: the loaded lib, the reason it
    cannot exist, or ``None`` while it is not there yet.

    A build starts once ``trusted`` (Python-kernel Vcycles this program
    ran in the process) reaches the threshold; ``source_of()`` and
    ``lengths_of()`` supply its inputs only then, on the calling thread
    (re-emitting a kernel is not safe beside another emission), and not
    at all without ``cc``.  Concurrent requests for one key share one
    build.  Every outcome - a timeout included - is kept for the life
    of the process."""
    done = _LIBS.get(key)
    if done is not None:
        return _picked_up(key, done)
    if trusted < _threshold and key not in _BUILDS:
        return None
    with _LOCK:
        done = _LIBS.get(key)
        thread = _BUILDS.get(key)
        if done is None and thread is None:
            if trusted < _threshold:
                return None
            tracer = current_tracer()
            clock = tracer.clock if tracer is not None else time.perf_counter
            if shutil.which("cc") is None:
                done = _LIBS[key] = _NO_CC
                if tracer is not None:
                    now = clock()
                    _SPANS[key] = (tracer, now, now, done)
            else:
                lengths, n_msgs = lengths_of()
                thread = threading.Thread(
                    target=_build_into_memo, name=f"native-{key[:12]}",
                    args=(key, source_of(), lengths, n_msgs, tracer, clock),
                    daemon=True)
                _BUILDS[key] = thread
                thread.start()
    if done is None:
        if not _synchronous:
            return None
        thread.join()
        done = _LIBS[key]
    return _picked_up(key, done)


@contextmanager
def forced():
    """Build every kernel before its first trusted Vcycle, synchronously
    (differential tests and the ``machine-codegen-native`` oracle)."""
    global _threshold, _synchronous
    saved = _threshold, _synchronous
    _threshold, _synchronous = 0, True
    try:
        yield
    finally:
        _threshold, _synchronous = saved


@atexit.register
def _abandon_builds() -> None:
    """A build still running at exit is abandoned, never waited for:
    kill its compiler and remove its directory."""
    for proc in list(_PROCS):
        proc.kill()
    for tmp in list(_TMPDIRS):
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# One machine's live native state.
# ---------------------------------------------------------------------------
class NativeKernel:
    """The native counterpart of one live ``grid_kernel`` generator:
    persistent locals, I/O words, the host callbacks and the context
    array, with the generator's life cycle - hydrate on the first run,
    run until a non-clean Vcycle, flush on :meth:`sync`, drop on
    :meth:`invalidate`."""

    def __init__(self, lib: NativeLib, machine, msgs: list) -> None:
        import ctypes
        tr = lib.translation
        self._fn = lib.fn
        self._tr = tr
        self._machine = machine
        self._msgs = msgs
        self._locals = array("q", bytes(8 * max(1, tr.n_locals)))
        self._io = array("q", bytes(8 * 2))    # Vcycles run, pending
        self._attrs = array("q", bytes(8 * max(1, len(tr.attrs))))
        self._sent = array("q", bytes(8 * max(1, tr.n_msgs)))
        self._raised: BaseException | None = None
        self._hosts = (machine.service_exception, machine.global_read,
                       machine.global_write)
        host2 = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_int64)
        host3 = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_int64, ctypes.c_int64)
        self._callbacks = (host2(self._se), host2(self._gr),
                           host3(self._gw))
        self._ctx = (ctypes.c_void_p * (_CTX_FIXED + len(tr.arrays)))()
        self._ctx[_CTX_L] = self._locals.buffer_info()[0]
        self._ctx[_CTX_IO] = self._io.buffer_info()[0]
        self._ctx[_CTX_A] = self._attrs.buffer_info()[0]
        self._ctx[_CTX_M] = self._sent.buffer_info()[0]
        for slot, cb in zip((_CTX_SE, _CTX_GR, _CTX_GW), self._callbacks):
            self._ctx[slot] = ctypes.cast(cb, ctypes.c_void_p).value
        self._ctx_addr = ctypes.addressof(self._ctx)
        self.live = False
        #: Why a hydrate found state outside the proven ranges.
        self.refused: str | None = None

    # -- host callbacks (run with the interpreter lock re-acquired) -----
    # The C code sets io[1] before each call; clearing it is each
    # callback's last step, after which no call can raise.  An exception
    # the ``try`` catches is stashed; one raised before it (a signal
    # handler runs as the frame starts) escapes to ctypes, which reports
    # and drops it - io[1] stays set either way and the C code returns.
    def _se(self, cid: int, eid: int) -> int:
        try:
            self._hosts[0](cid, eid)
            fin = 1 if self._machine.finished else 0
        except BaseException as exc:  # re-raised after the C call returns
            self._raised = exc
            return 0
        self._io[1] = 0
        return fin

    def _gr(self, cid: int, addr: int) -> int:
        try:
            value = self._hosts[1](cid, addr)
            # Only ``value & mask`` is ever used: the low 64 bits suffice.
            value = ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)
        except BaseException as exc:  # re-raised after the C call returns
            self._raised = exc
            return 0
        self._io[1] = 0
        return value

    def _gw(self, cid: int, addr: int, value: int) -> int:
        try:
            self._hosts[2](cid, addr, value)
        except BaseException as exc:  # re-raised after the C call returns
            self._raised = exc
            return 0
        self._io[1] = 0
        return 0

    # -- life cycle ------------------------------------------------------
    def _hydrate(self) -> str | None:
        """Bind buffers and host functions afresh, as ``make_kernel``
        does, and load carry/predicate for the C preamble; returns why
        not when a value lies outside the proven 16-bit range."""
        machine = self._machine
        cores = machine.cores
        for pos, (cid, kind) in enumerate(self._tr.arrays):
            words = getattr(cores[cid], kind)
            self._ctx[_CTX_FIXED + pos] = words.buffer_info()[0]
        for slot, (cid, attr) in enumerate(self._tr.attrs):
            value = getattr(cores[cid], attr)
            if not 0 <= value <= 0xFFFF:
                return (f"core {cid} {attr}={value!r} is outside the "
                        "proven 16-bit range")
            self._attrs[slot] = value
        self._hosts = (machine.service_exception, machine.global_read,
                       machine.global_write)
        return None

    def _call(self, op: int, budget: int) -> int:
        try:
            code = self._fn(op, budget, self._ctx_addr)
            self.live = code == -1
            if code != -1:
                self._retire(code)
        except BaseException:
            self.live = False
            raise
        return code

    def _retire(self, code: int) -> None:
        """The kernel ended: publish its write-back, or raise."""
        cores = self._machine.cores
        for slot, (cid, attr) in enumerate(self._tr.attrs):
            setattr(cores[cid], attr, self._attrs[slot])
        if code >= 0:
            self._msgs[:] = self._sent.tolist()[:len(self._msgs)]
        elif code == CODE_HOST_ERROR:
            exc, self._raised = self._raised, None
            if exc is None:
                # Lost before the callback's ``try``: only an
                # asynchronous exception gets there, in practice the
                # KeyboardInterrupt of a Ctrl-C landing as the frame
                # started.
                raise KeyboardInterrupt("raised as a host callback "
                                        "started; reported above by ctypes")
            raise exc

    def run(self, budget: int) -> tuple[int, int] | None:
        """Run up to ``budget`` (>= 1) Vcycles in one C call of at most
        ``CHUNK_VCYCLES``; returns ``(code, clean)`` with the Python
        kernel's yield code of the last Vcycle and the number of clean
        Vcycles before it - or ``None`` when a hydrate found state it
        cannot prove in range (:attr:`refused` says which), and the
        caller keeps the Python kernel."""
        budget = min(budget, CHUNK_VCYCLES)
        if self.live:
            code = self._call(OP_RUN, budget)
        else:
            self.refused = self._hydrate()
            if self.refused is not None:
                return None
            code = self._call(OP_HYDRATE, budget)
        return code, self._io[0]

    def sync(self) -> None:
        if self.live:
            self._call(OP_SYNC, 0)

    def invalidate(self) -> None:
        self.live = False


def threshold() -> int:
    """Trusted Vcycles per program before its build starts (0 while
    :func:`forced`)."""
    return _threshold
