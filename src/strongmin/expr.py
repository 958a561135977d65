"""Scalar expression trees with exact first and second derivatives.

Expressions are parsed over a fixed, ordered variable list.  One
traversal, ``_fold``, carries every pass over a tree: the walker, the
row-program builder and the text renderer are its per-node rules.  It
keeps its own stack, so a sum's length is not capped; only the parser
recurses, once per level of parentheses, to about 240 levels.  The walker
evaluates a tree in forward mode over the columns of an (n, N) array, up
to a requested derivative order: 0 gives values, 1 adds gradients, 2 adds
Hessians; higher derivatives than requested are never formed.  Values,
gradients and Hessians are exact up to floating point; finite
differences never appear here (the test suite uses them as an
independent cross-check only).

The batched calls (``eval_values``, ``eval_grads``) turn a column that
leaves the domain of sqrt/log (argument <= 0) or divides by zero into
NaN, so that samplers can drop it.  At a single point (``eval_bundle``,
``eval_value``) the same columns raise EvalDomainError, and any other
inf/nan raises NonFiniteError.

``RowStack`` compiles a stack of rows, on the first call of each entry
point, into one generated straight-line program: the walker's float
operations unrolled for every row, with each subtree shared within or
across rows formed once and structurally zero gradient terms skipped.
The walker stays the reference the programs are tested against.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' INTEGER)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Binary operators of equal precedence associate to the left.  Function
identifiers are limited to sqrt, exp, log, sin, cos; any other identifier
must be a declared variable.  Exponents are nonnegative integer literals
up to MAX_EXPONENT, which keeps polynomial data smooth everywhere and
bounds the repeated multiplication that evaluates a power.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "EvalBundle",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "NonFiniteError",
    "parse",
    "parse_number",
    "check_variables",
    "eval_bundle",
    "eval_value",
    "eval_values",
    "eval_grads",
    "to_text",
    "RowStack",
    "MAX_EXPONENT",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
MAX_EXPONENT = 100


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the domain of a unary op (sqrt/log of y <= 0, x/0)."""


class NonFiniteError(ExprError):
    """Arithmetic overflowed to a non-finite value."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sqrt, exp, log, sin, cos
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # add, sub, mul, div
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int  # integer literal >= 0


Expression = Union[Const, Var, Unary, Binary, Power]


@dataclass(frozen=True)
class EvalBundle:
    """Value, gradient and symmetric Hessian of an expression at a point."""

    value: float
    gradient: np.ndarray  # shape (n,)
    hessian: np.ndarray  # shape (n, n), symmetric by construction


# ----------------------------------------------------------------------
# tokenizer / parser
# ----------------------------------------------------------------------

_OPS = set("+-*/^()")
# the binary operators by precedence, loosest first
_LEVELS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})
_SYMBOLS = {op: sym for level in _LEVELS for sym, op in level.items()}
# a number literal: ASCII digits with at most one point (a leading point
# needs a digit after it), then an optional exponent.  [0-9], not \d or
# str.isdigit, which also accept digits such as "²" and "٣" that float
# and int refuse or misread
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_number(text: str) -> float:
    """A number field outside expressions: an optional sign, then one
    literal of the tokenizer's rule, so "1_0", "٣" and "nan" are refused."""
    if not _NUMBER.fullmatch(text[1:] if text[:1] in ("+", "-") else text):
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _tokenize(text: str):
    """Yield (kind, value, offset) with kind in num/ident/op/end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        num = _NUMBER.match(text, i)
        if num:
            tokens.append(("num", num[0], i))
            i = num.end()
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {name: k for k, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.take()

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self, level: int = 0) -> Expression:
        """A left-associated chain of _LEVELS[level]'s operators, each operand
        parsed by a direct call: a helper would add a frame per nesting."""
        ops, e, op = _LEVELS[level], None, None
        while True:
            rhs = self.expr(level + 1) if level + 1 < len(_LEVELS) else self.factor()
            e = rhs if op is None else Binary(op, e, rhs)
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return e
            self.take()
            op = ops[val]

    def factor(self) -> Expression:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.take()
            negate = True
        e = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, off = self.take()
            if kind != "num" or any(c in val for c in ".eE"):
                raise ParseError("exponent must be a nonnegative integer literal", off)
            if int(val) > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", off)
            e = Power(e, int(val))
        if negate:
            e = Unary("neg", e)
        return e

    def atom(self) -> Expression:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Unary(val, inner)
            if val in self.var_index:
                return Var(self.var_index[val])
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {val!r}", off)


def check_variables(variables) -> None:
    """Raise ParseError unless every name is one identifier token of the
    tokenizer and no name is a function identifier."""
    for name in variables:
        try:
            tokens = [tok[:2] for tok in _tokenize(name)]
        except ParseError:
            tokens = []
        if tokens != [("ident", name), ("end", "")]:
            raise ParseError(f"variable name {name!r} is not an identifier", 0)
        if name in FUNCTIONS:
            raise ParseError(f"variable name {name!r} collides with a function", 0)


def parse(text: str, variables) -> Expression:
    """Parse ``text`` over the ordered variable name list ``variables``.
    Parentheses and calls nested past the recursion limit (about 240
    levels at the default) are a ParseError; a sum of any length is not."""
    check_variables(variables)
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

# phi, phi' and phi'' of the smooth unary ops; the derivatives take
# (u, phi(u)) so that phi(u) is formed once.
_UNARY = {
    "sqrt": (np.sqrt, lambda u, s: 0.5 / s, lambda u, s: -0.25 / (u * s)),
    "exp": (np.exp, lambda u, ev: ev, lambda u, ev: ev),
    "log": (np.log, lambda u, _: 1.0 / u, lambda u, _: -1.0 / (u * u)),
    "sin": (np.sin, lambda u, _: np.cos(u), lambda u, s: -s),
    "cos": (np.cos, lambda u, _: -np.sin(u), lambda u, c: -c),
}


def _outer(a, b):
    """Columnwise outer products of (n, N) arrays: (n, n, N)."""
    return a[:, None] * b[None, :]


def _domain(u, dom, bad):
    """NaN out the columns in ``dom`` and record them in ``bad``."""
    bad |= dom
    return np.where(dom, np.nan, u)


def _ipow(u, k):
    """u^k (k >= 0) by repeated multiplication.  Each product is exactly
    rounded, so the bits are the same on every host and for one column or
    many; a vectorised ``u ** k`` may differ from libm pow in the last bit."""
    v = np.ones_like(u) if k == 0 else u
    for _ in range(k - 1):
        v = v * u
    return v


# each node type's children, left to right
_CHILDREN = {Const: lambda e: (), Var: lambda e: (), Unary: lambda e: (e.arg,),
             Power: lambda e: (e.base,), Binary: lambda e: (e.left, e.right)}


def _fold(e: Expression, visit, done: Optional[dict] = None):
    """The one tree traversal: ``visit(node, [each child's result])`` once
    per node object of ``e``, children first and left to right, on a stack
    of its own, so no tree is too deep; returns the root's result.  ``done``
    maps id(node) to results already known and keeps every new one; without
    it, a result is dropped once its last parent has read it."""
    keep, done = done is not None, {} if done is None else done
    order, uses, seen, todo = [], {}, set(), [(e, None)]
    while todo:  # the nodes to visit, in post order, and their parent counts
        node, kids = todo.pop()
        if kids is not None:
            order.append((node, kids))
        elif id(node) not in done and id(node) not in seen:
            seen.add(id(node))
            kids = _CHILDREN[type(node)](node)
            for k in kids:
                uses[id(k)] = uses.get(id(k), 0) + 1
            todo += [(node, kids)] + [(k, None) for k in reversed(kids)]
    for node, kids in order:
        done[id(node)] = visit(node, [done[id(k)] for k in kids])
        for k in () if keep else kids:
            uses[id(k)] -= 1
            if not uses[id(k)]:
                del done[id(k)]
    return done[id(e)]


def _walk(e: Expression, X: np.ndarray, order: int, bad: np.ndarray, done: Optional[dict] = None):
    """Values (N,), gradients (n, N) and Hessians (n, n, N) of ``e`` over the
    columns of ``X`` (n, N).  Derivatives above ``order`` are None and never
    formed.  Columns that leave a domain (sqrt/log of u <= 0, division by 0)
    become NaN and are set in the bool mask ``bad``.  ``done`` is _fold's:
    no rule writes into a child's arrays, so a recurring subtree shares them."""
    n, N = X.shape

    def rule(e: Expression, kids: list):
        if isinstance(e, (Const, Var)):
            g = np.zeros((n, N)) if order >= 1 else None
            h = np.zeros((n, n, N)) if order >= 2 else None
            if isinstance(e, Const):
                return np.full(N, e.value), g, h
            if g is not None:
                g[e.index] = 1.0
            return X[e.index].copy(), g, h
        if isinstance(e, Binary):
            (lv, lg, lh), (rv, rg, rh) = kids
            if e.op in ("add", "sub"):
                op = np.add if e.op == "add" else np.subtract
                return (op(lv, rv), None if lg is None else op(lg, rg),
                        None if lh is None else op(lh, rh))
            g = h = None
            if e.op == "mul":
                if order >= 1:
                    g = lg * rv + lv * rg
                if order >= 2:
                    cross = _outer(lg, rg)
                    h = lh * rv + lv * rh + (cross + cross.transpose(1, 0, 2))
                return lv * rv, g, h
            if e.op == "div":
                rv = _domain(rv, rv == 0, bad)
                w = lv / rv
                if order >= 1:
                    g = (lg - w * rg) / rv
                if order >= 2:
                    cross = _outer(g, rg)
                    h = (lh - (cross + cross.transpose(1, 0, 2)) - w * rh) / rv
                return w, g, h
            raise ValueError(f"unknown binary op {e.op}")
        ((u, g, h),) = kids
        if isinstance(e, Power):
            k = e.exponent
            if k == 0:
                return (np.ones(N), None if g is None else np.zeros_like(g),
                        None if h is None else np.zeros_like(h))
            if k == 1:
                return u, g, h
            v = _ipow(u, k)
            d1 = k * _ipow(u, k - 1) if order >= 1 else None
            d2 = k * (k - 1) * _ipow(u, k - 2) if order >= 2 else None
        else:
            if e.op == "neg":
                return -u, None if g is None else -g, None if h is None else -h
            if e.op not in _UNARY:
                raise ValueError(f"unknown unary op {e.op}")
            if e.op in ("sqrt", "log"):
                u = _domain(u, u <= 0, bad)
            phi, dphi, ddphi = _UNARY[e.op]
            v = phi(u)
            d1 = dphi(u, v) if order >= 1 else None
            d2 = ddphi(u, v) if order >= 2 else None
        # chain rule: D phi(u) = phi' Du,  D^2 phi(u) = phi'' Du Du^T + phi' D^2 u
        return (v, None if d1 is None else d1 * g,
                None if d2 is None else d2 * _outer(g, g) + d1 * h)

    with np.errstate(all="ignore"):
        return _fold(e, rule, done)


def eval_bundle(e: Expression, x) -> EvalBundle:
    """Exact value, gradient and Hessian of ``e`` at ``x``.

    Raises EvalDomainError when the point leaves the domain of sqrt, log
    or division and NonFiniteError when arithmetic overflows to inf/nan.
    """
    x = np.asarray(x, dtype=float)
    bad = np.zeros(1, dtype=bool)
    v, g, h = _walk(e, x[:, None], 2, bad)
    if bad[0]:
        raise EvalDomainError("sqrt/log of a nonpositive argument or division by zero")
    if not (np.isfinite(v[0]) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise NonFiniteError("evaluation produced a non-finite value")
    return EvalBundle(float(v[0]), g[:, 0], h[:, :, 0])


def eval_value(e: Expression, x) -> float:
    return eval_bundle(e, x).value


def eval_values(e: Expression, X: np.ndarray) -> np.ndarray:
    """Batched values (N,); columns outside a domain are NaN."""
    return _walk(e, X, 0, np.zeros(X.shape[1], dtype=bool))[0]


def eval_grads(e: Expression, X: np.ndarray):
    """Batched (values, gradients) with shapes (N,) and (n, N); columns
    outside a domain are NaN."""
    return _walk(e, X, 1, np.zeros(X.shape[1], dtype=bool))[:2]


# ----------------------------------------------------------------------
# row programs
# ----------------------------------------------------------------------

# Longest text of an inline operation: a longer one becomes a temporary,
# which keeps every statement far below the 200 nested parentheses that
# Python's parser takes.
_LONGEST = 400
_SUMS = ("({} + {})", "({} - {})")


class _Graph:
    """The walker's float operations over a stack of rows, unrolled.

    An operation is a (template, argument ids) pair, and equal pairs are one
    operation, so a subtree that recurs within or across rows is formed
    once; every argument's id precedes its user's.  The leaves are the rows
    X[i] and constants, bound as global names of the program, never written
    into its text: inf, nan and -0.0 keep their bits, and no input text
    reaches the source.

    ``node`` gives a tree's (value, gradient, finite, constant): the value's
    operation; the gradient as {d: operation} over the structurally nonzero
    entries, ``one`` standing for the walker's exact 1.0; whether the value
    is finite wherever X is and nothing overflows; and whether the tree
    reads no variable (such a tree is folded into the walker's constants).
    An entry is left out when the walker forms it as a zero times finite
    values; a zero times any other value (one fed by a division, sqrt, log
    or non-finite constant) is formed, since it may be NaN.
    """

    def __init__(self, n: int):
        self.n = n
        self.ops, self.ids, self.memo, self.walked = [], {}, {}, {}
        self.env = {"_zeros": np.zeros, "_where": np.where, "_nan": np.nan, "_sqrt": np.sqrt,
                    "_exp": np.exp, "_log": np.log, "_sin": np.sin, "_cos": np.cos}
        self.zero, self.one = self.const(0.0), self.const(1.0)

    def op(self, template: str, *args: int) -> int:
        key = (template, args)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ops)
            self.ops.append(key)
        return i

    def const(self, c) -> int:
        key = struct.pack("<d", c)  # by its bits: -0.0 and each NaN apart
        if key not in self.ids:
            name = f"k{len(self.ops)}"
            self.env[name] = float(c)
            self.ids[key] = self.op(name)
        return self.ids[key]

    def node(self, e: Expression):
        """(value, gradient, finite, constant) of ``e``, memoized by identity."""
        return _fold(e, self._rule, self.memo)

    def _rule(self, e: Expression, kids: list):
        if isinstance(e, Const):
            return self.const(e.value), {}, bool(np.isfinite(e.value)), True
        if isinstance(e, Var):
            return self.op(f"X[{e.index}]"), {e.index: self.one}, True, False
        if isinstance(e, Binary):
            left, right = kids
            return self._folded(e) if left[3] and right[3] else self._binary(e.op, left, right)
        (u,) = kids
        if isinstance(e, Power):
            return self._folded(e) if u[3] or e.exponent == 0 else self._power(e.exponent, *u[:3])
        return self._folded(e) if u[3] else self._unary(e.op, *u[:3])

    def _folded(self, e: Expression):
        # every call walks at X = 0, so one walker memo serves them all
        v, g, _ = _walk(e, np.zeros((self.n, 1)), 1, np.zeros(1, dtype=bool), self.walked)
        return (self.const(v[0]), {d: self.const(g[d, 0]) for d in range(self.n)
                                   if g[d, 0] != 0.0}, bool(np.isfinite(v[0])), True)

    def _scaled(self, s: int, finite: bool, g: dict) -> dict:
        """The walker's s * g, entry by entry (a product commutes exactly)."""
        out = {d: s if x == self.one else self.op("({} * {})", s, x) for d, x in g.items()}
        for d in () if finite else range(self.n):
            if d not in out:
                out[d] = self.op("({} * {})", s, self.zero)
        return out

    def _combined(self, sym: str, lg: dict, rg: dict) -> dict:
        """The walker's lg + rg or lg - rg, a zero term left out."""
        out = dict(lg)
        for d, x in rg.items():
            out[d] = (self.op(f"({{}} {sym} {{}})", lg[d], x) if d in lg
                      else x if sym == "+" else self.op("(-{})", x))
        return out

    def _binary(self, op: str, left, right):
        (lv, lg, lf, _), (rv, rg, rf, rc) = left, right
        if op != "div":
            sym = _SYMBOLS[op]
            g = (self._combined(sym, lg, rg) if op != "mul" else
                 self._combined("+", self._scaled(rv, rf, lg), self._scaled(lv, lf, rg)))
            return self.op(f"({{}} {sym} {{}})", lv, rv), g, lf and rf, False
        # a zero divisor is made NaN, as _domain does; lv / rv overflows for
        # a tiny rv, so the quotient counts as not finite
        if not (rc and self.env[self.ops[rv][0]] != 0.0):
            rv = self.op("_where({} == 0, _nan, {})", rv, rv)
        w = self.op("({} / {})", lv, rv)
        num = self._combined("-", lg, self._scaled(w, False, rg))
        return w, {d: self.op("({} / {})", x, rv) for d, x in num.items()}, False, False

    def _power(self, k: int, u: int, g: dict, finite: bool):
        if k == 1:
            return u, g, finite, False
        powers = [u]  # u^j by repeated multiplication, as _ipow forms it
        for _ in range(k - 1):
            powers.append(self.op("({} * {})", powers[-1], u))
        d1 = self.op("({} * {})", self.const(k), powers[-2])
        return powers[-1], self._scaled(d1, finite, g), finite, False

    def _unary(self, op: str, u: int, g: dict, finite: bool):
        if op == "neg":
            negated = {d: self.op("(-{})", x) for d, x in g.items()}
            return self.op("(-{})", u), negated, finite, False
        if op in ("sqrt", "log"):
            u, finite = self.op("_where({} <= 0, _nan, {})", u, u), False
        v = self.op(f"_{op}({{}})", u)
        d1 = {"sqrt": lambda: self.op("({} / {})", self.const(0.5), v),
              "exp": lambda: v,
              "log": lambda: self.op("({} / {})", self.one, u),
              "sin": lambda: self.op("_cos({})", u),
              "cos": lambda: self.op("(-{})", self.op("_sin({})", u))}[op]()
        return v, self._scaled(d1, finite, g), finite, False

    def program(self, signature: str, blocks):
        """``def program(signature)`` from blocks: a str is one line, and a
        list holds (format, operation) statements, the operation written
        into the format's {} (with None, the format is the statement).  The
        program sets no np.errstate: its caller holds one.

        A first pass counts each operation's references.  The second writes
        the operations in id order: one referenced more than once (or
        too long) as a temporary, defined before the first statement
        that needs it, and every other one inline, so that no array
        outlives its use.
        """
        roots = [op for b in blocks if not isinstance(b, str) for _, op in b if op is not None]
        uses, first = [0] * len(self.ops), {}
        for i, root in enumerate(roots):
            stack = [root]
            while stack:
                op = stack.pop()
                uses[op] += 1
                if uses[op] == 1:
                    first[op] = i
                    stack.extend(self.ops[op][1])
        text, temps = {}, {}
        for op in sorted(first):
            template, args = self.ops[op]
            text[op] = template.format(*[text[a] for a in args]) if args else template
            if args and (uses[op] > 1 or len(text[op]) > _LONGEST):
                temps.setdefault(first[op], []).append(f"t{op} = {text[op]}")
                text[op] = f"t{op}"
        lines, i = [], 0
        for b in blocks:
            if isinstance(b, str):
                lines.append(b)
                continue
            for fmt, op in b:
                if op is None:
                    lines.append(fmt)
                    continue
                lines += temps.get(i, [])
                i += 1
                if not fmt.endswith(" = {}"):
                    lines.append(fmt.format(text[op]))
                    continue
                # target = a + b - c as target = a; target += b; target -= c:
                # the same float operations, in the target's memory (an
                # inline operation's text is in one pair of parentheses)
                target, terms = fmt[:-5], []
                while self.ops[op][0] in _SUMS and text[op] != f"t{op}":
                    template, (op, right) = self.ops[op]
                    terms.append((f"{template[4]}=", text[right]))
                lines += [f"{target} {sign} {t[1:-1] if t[0] == '(' else t}"
                          for sign, t in [("=", text[op])] + terms[::-1]]
        body = "".join(f"    {s}\n" for s in lines or ["pass"])  # a stack of no rows
        source = f"def program({signature}):\n" + body
        exec(compile(source, "<RowStack program>", "exec"), self.env)
        return self.env.pop("program")


class RowStack:
    """A stack of rows over n variables, evaluated together.

    The first use of each program (``values``, ``grads``, ``pullback``,
    ``objective_pullback``) generates it, and every later call runs it:
    the walker's float operations unrolled for every row (see ``_Graph``).
    So the values are the walker's bits, and the gradients its floats up
    to the sign of a zero wherever no intermediate overflows (there, a
    skipped 0 * inf can keep a NaN out).  ``values`` and ``grads`` return
    fresh arrays under their own np.errstate; the two pullback programs
    write into the caller's arrays under the caller's np.errstate, so that
    the penalty descent holds one around its whole loop.
    """

    def __init__(self, rows, n: int, objective: Optional[Expression] = None):
        self.rows = tuple(rows)
        self.n = n
        self.objective = objective

    @functools.cached_property
    def _graph(self):
        """The operations shared by every program, and each row's node."""
        graph = _Graph(self.n)
        return graph, [graph.node(r) for r in self.rows]

    def _program(self, signature: str, head: list, tail: list, *rest):
        """_Graph.program of the statements ``head``, V[r] = row r's value
        for every row and ``tail``; then ``rest``."""
        graph, nodes = self._graph
        values = [(f"V[{r}] = {{}}", node[0]) for r, node in enumerate(nodes)]
        return graph.program(signature, [head + values + tail, *rest])

    @functools.cached_property
    def _values(self):
        return self._program("X, V", [], [])

    @functools.cached_property
    def _grads(self):
        nodes = self._graph[1]
        jacobian = [(f"J[{r}, {d}] = {{}}", op) for r, node in enumerate(nodes)
                    for d, op in sorted(node[1].items())]
        zeros = (f"J = _zeros(({len(nodes)}, {self.n}, X.shape[1]))", None)
        return self._program("X, V", [zeros], jacobian, "return J")

    def _pullback_program(self, objective: bool):
        """out[off:off + n] = G (see ``pullback``), after the objective's
        value and gradient in out[0:n + 1] when ``objective``."""
        (graph, nodes), n = self._graph, self.n
        off, head, pulled, started = n + 1 if objective else 0, [], [], set()
        if objective:
            v, g = graph.node(self.objective)[:2]
            head = [("out[0] = {}", v)] + [(f"out[{1 + d}] = {{}}", g[d]) if d in g
                                           else (f"out[{1 + d}] = 0.0", None) for d in range(n)]
        for r, node in enumerate(nodes):
            for d, op in sorted(node[1].items()):
                sign = "+=" if d in started else "="
                pulled.append((f"out[{off + d}] {sign} {{}} * R[{r}]", op))
                started.add(d)
        pulled += [(f"out[{off + d}] = 0.0", None) for d in range(n) if d not in started]
        return self._program("X, V, fn, out", head, [], "R = fn(V)", pulled, "return R")

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row values (m, N) over the columns of X (n, N)."""
        V = np.empty((len(self.rows), X.shape[1]))
        with np.errstate(all="ignore"):
            self._values(X, V)
        return V

    def grads(self, X: np.ndarray):
        """Row values (m, N) and gradients (m, n, N); the values are the
        bits ``values`` gives."""
        V = np.empty((len(self.rows), X.shape[1]))
        with np.errstate(all="ignore"):
            return V, self._grads(X, V)

    @functools.cached_property
    def pullback(self):
        """The program ``pullback(X, V, fn, out) -> R``: the row values
        into V (m, N), R = fn(V), and G (n, N) into out, with
        G[d] = sum_r J[r, d] * R[r], J the Jacobian ``grads`` gives.

        G is summed in row order from the same J[r, d] bits without
        forming J.  Structurally zero entries are skipped, which can only
        change the sign of a zero sum or keep a 0 * inf = NaN out of it.
        The program runs under the caller's np.errstate.
        """
        return self._pullback_program(False)

    @functools.cached_property
    def objective_pullback(self):
        """``pullback`` with the objective's value and gradient, from one
        program: out[0] is the objective's value, out[1:n+1] its gradient
        (the bits of a one-row stack's ``grads``) and out[n+1:2n+1] G."""
        return self._pullback_program(True)


# ----------------------------------------------------------------------
# rendering and tree surgery
# ----------------------------------------------------------------------

def to_text(e: Expression, variables) -> str:
    """Render a tree to parseable text (fully parenthesized)."""

    def rule(e: Expression, kids: list) -> str:
        if isinstance(e, Const):
            # -0.0 too: a bare "-0.0" after a unary minus would not parse
            return repr(e.value) if not np.signbit(e.value) else f"({repr(e.value)})"
        if isinstance(e, Var):
            return variables[e.index]
        if isinstance(e, Binary):
            return f"({kids[0]} {_SYMBOLS[e.op]} {kids[1]})"
        if isinstance(e, Power):
            return f"({kids[0]})^{e.exponent}"
        return f"(-{kids[0]})" if e.op == "neg" else f"{e.op}({kids[0]})"

    return _fold(e, rule)
