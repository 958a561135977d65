"""Scalar expression trees with exact first and second derivatives.

Expressions are parsed over a fixed, ordered variable list.  One recursive
walker evaluates a tree in forward mode over the columns of an (n, N)
array, up to a requested derivative order: 0 gives values, 1 adds
gradients, 2 adds Hessians; higher derivatives than requested are never
formed.  Values, gradients and Hessians are exact up to floating point;
finite differences never appear here (the test suite uses them as an
independent cross-check only).

The batched calls (``eval_values``, ``eval_grads``) turn a column that
leaves the domain of sqrt/log (argument <= 0) or divides by zero into
NaN, so that samplers can drop it.  At a single point (``eval_bundle``,
``eval_value``) the same columns raise EvalDomainError, and any other
inf/nan raises NonFiniteError.

A polynomial tree (``+ - *``, unary minus, ``^k``, constants, variables)
can also be compiled once into its monomials (``compile_polynomial``).
``RowStack`` turns a stack of such rows, on the first call of each entry
point, into one generated straight-line program that repeats, in the same
order, the float operations of summing coefficient times monomial over a
shared power table; every other row goes to the walker.

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
from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
    "compile_polynomial",
    "RowStack",
    "MAX_EXPONENT",
    "MAX_MONOMIALS",
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
        self.text = text
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

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = Binary("add" if val == "+" else "sub", e, rhs)
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = Binary("mul" if val == "*" else "div", e, rhs)
            else:
                return e

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
    """Parse ``text`` over the ordered variable name list ``variables``."""
    check_variables(variables)
    return _Parser(text, variables).parse()


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


def _walk(e: Expression, X: np.ndarray, order: int, bad: np.ndarray):
    """Values (N,), gradients (n, N) and Hessians (n, n, N) of ``e`` over the
    columns of ``X`` (n, N).  Derivatives above ``order`` are None and never
    formed.  Columns that leave a domain (sqrt/log of u <= 0, division by
    0) become NaN and are set in the bool mask ``bad``."""
    n, N = X.shape
    if isinstance(e, (Const, Var)):
        g = np.zeros((n, N)) if order >= 1 else None
        h = np.zeros((n, n, N)) if order >= 2 else None
        if isinstance(e, Const):
            return np.full(N, e.value), g, h
        if g is not None:
            g[e.index] = 1.0
        return X[e.index].copy(), g, h
    if isinstance(e, Binary):
        lv, lg, lh = _walk(e.left, X, order, bad)
        rv, rg, rh = _walk(e.right, X, order, bad)
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
    if isinstance(e, Power):
        u, g, h = _walk(e.base, X, order, bad)
        k = e.exponent
        if k == 0:
            return (np.ones(N), None if g is None else np.zeros_like(g),
                    None if h is None else np.zeros_like(h))
        if k == 1:
            return u, g, h
        v = _ipow(u, k)
        d1 = k * _ipow(u, k - 1) if order >= 1 else None
        d2 = k * (k - 1) * _ipow(u, k - 2) if order >= 2 else None
    elif isinstance(e, Unary):
        u, g, h = _walk(e.arg, X, order, bad)
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
    else:
        raise TypeError(f"not an expression node: {e!r}")
    # chain rule: D phi(u) = phi' Du,  D^2 phi(u) = phi'' Du Du^T + phi' D^2 u
    return (v, None if d1 is None else d1 * g,
            None if d2 is None else d2 * _outer(g, g) + d1 * h)


def eval_bundle(e: Expression, x) -> EvalBundle:
    """Exact value, gradient and Hessian of ``e`` at ``x``.

    Raises EvalDomainError when the point leaves the domain of sqrt, log
    or division and NonFiniteError when arithmetic overflows to inf/nan.
    """
    x = np.asarray(x, dtype=float)
    bad = np.zeros(1, dtype=bool)
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
        return _walk(e, X, 0, np.zeros(X.shape[1], dtype=bool))[0]


def eval_grads(e: Expression, X: np.ndarray):
    """Batched (values, gradients) with shapes (N,) and (n, N); columns
    outside a domain are NaN."""
    with np.errstate(all="ignore"):
        v, g, _ = _walk(e, X, 1, np.zeros(X.shape[1], dtype=bool))
    return v, g


# ----------------------------------------------------------------------
# compiled polynomial rows
# ----------------------------------------------------------------------

# Most monomials a tree may expand to (at any step of its expansion) and
# still be compiled; a larger tree keeps the walker.
MAX_MONOMIALS = 64

# One monomial: (coefficient, ((variable, exponent >= 1), ...) by variable).
Monomial = Tuple[float, Tuple[Tuple[int, int], ...]]


def _times(a: dict, b: dict):
    """Product of two {exponents: coefficient} expansions, or None above the
    bounds."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            if max(key, default=0) > MAX_EXPONENT:
                return None
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return out if len(out) <= MAX_MONOMIALS else None


def _expand(e: Expression, n: int):
    """``e`` as an {exponents: coefficient} dict in order of first
    appearance, or None when ``e`` is not a polynomial (sqrt exp log sin
    cos, '/') or exceeds MAX_MONOMIALS or MAX_EXPONENT."""
    if isinstance(e, Const):
        return {(0,) * n: e.value}
    if isinstance(e, Var):
        return {tuple(int(i == e.index) for i in range(n)): 1.0}
    if isinstance(e, Unary):
        a = _expand(e.arg, n) if e.op == "neg" else None
        return None if a is None else {k: -c for k, c in a.items()}
    if isinstance(e, Power):
        a = _expand(e.base, n)
        if a is None:
            return None
        if e.exponent == 0:
            return {(0,) * n: 1.0}
        out = a
        for _ in range(e.exponent - 1):
            out = _times(out, a)
            if out is None:
                return None
        return out
    if isinstance(e, Binary) and e.op != "div":
        a, b = _expand(e.left, n), _expand(e.right, n)
        if a is None or b is None:
            return None
        if e.op == "mul":
            return _times(a, b)
        sign = 1.0 if e.op == "add" else -1.0
        out = dict(a)
        for k, c in b.items():
            out[k] = out[k] + sign * c if k in out else sign * c
        return out if len(out) <= MAX_MONOMIALS else None
    return None


def compile_polynomial(e: Expression, n: int) -> Optional[Tuple[Monomial, ...]]:
    """The monomials of ``e`` over n variables, or None if it has no
    compiled form within MAX_MONOMIALS and MAX_EXPONENT."""
    terms = _expand(e, n)
    if terms is None:
        return None
    return tuple((c, tuple((i, k) for i, k in enumerate(ex) if k))
                 for ex, c in terms.items())


class _Source:
    """The source of one straight-line program over compiled rows, and the
    names it binds.

    Each power, product and partial product is a temporary emitted on first
    use and named by what it holds, so it is formed once.  Coefficients,
    folded constants and walked trees are bound as global names of the
    program, never written into its text: inf, nan and -0.0 keep their
    bits, and no input text reaches the source.
    """

    def __init__(self):
        self.lines = []
        self.indent = 1
        self.env = {"_empty": np.empty, "_zeros": np.zeros, "_errstate": np.errstate,
                    "_eval_values": eval_values, "_eval_grads": eval_grads}
        self.memo = {}

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def bind(self, value) -> str:
        name = f"k{len(self.env)}"
        self.env[name] = value
        return name

    def temp(self, key, rhs) -> str:
        """The temporary holding ``key``; emits ``name = rhs()`` on first use."""
        name = self.memo.get(key)
        if name is None:
            name = self.memo[key] = f"t{len(self.memo)}"
            self.line(f"{name} = {rhs()}")
        return name

    def power(self, i: int, k: int) -> str:
        """x_i^k for k >= 1: x_i^(k-1) * x_i, as ``_ipow`` forms it."""
        if k == 1:
            return self.temp(("x", i), lambda: f"X[{i}]")
        return self.temp(("x", i, k),
                         lambda: f"{self.power(i, k - 1)} * {self.power(i, 1)}")

    def product(self, factors, d=None):
        """prod x_i^k over ``factors`` in variable order; with ``d``, the
        partial derivative in x_d: k x_d^(k-1) first, then the other factors.
        None stands for the constant 1."""
        ops = []
        if d is not None:
            k = int(dict(factors)[d])
            if k > 1:
                ops.append(self.temp(("d", d, k), lambda: f"{k} * {self.power(d, k - 1)}"))
        ops += [self.power(i, k) for i, k in factors if i != d]
        out = ops[0] if ops else None
        for j in range(1, len(ops)):
            left, right = out, ops[j]
            out = self.temp(("*",) + tuple(ops[:j + 1]), lambda: f"{left} * {right}")
        return out

    def term(self, c, prod) -> str:
        """c times a product: c alone for the constant 1, the product itself
        for c == 1.0 (1.0 * p is p bit for bit)."""
        if prod is None:
            return self.bind(c)
        return prod if c == 1.0 else f"{self.bind(c)} * {prod}"

    def value(self, target: str, terms) -> None:
        """target = the first term, then += each other term in order."""
        for t, (c, factors) in enumerate(terms):
            self.line(f"{target} {'+=' if t else '='} {self.term(c, self.product(factors))}")

    def partial(self, terms, d: int) -> str:
        """d/dx_d of a compiled row from the monomials that contain x_d,
        summed from 0.0 in monomial order: a bound constant when every term
        is one, else a parenthesized sum that its use consumes, so no array
        of it outlives the statement.  Leading constant terms are summed
        here, with the same float additions."""
        acc, parts = 0.0, []
        for c, factors in terms:
            prod = self.product(factors, d)
            if prod is None and not parts:
                acc = acc + c
            else:
                parts.append(self.term(c, prod))
        if not parts:
            return self.bind(acc)
        return "(" + " + ".join([self.bind(acc)] + parts) + ")"

    def ignoring_errors(self, body) -> None:
        """Emit body() inside np.errstate(all="ignore")."""
        self.line("with _errstate(all='ignore'):")
        self.indent += 1
        start = len(self.lines)
        body()
        if len(self.lines) == start:
            self.line("pass")
        self.indent -= 1

    def function(self, signature: str):
        text = f"def program({signature}):\n" + "\n".join(self.lines) + "\n"
        exec(compile(text, "<RowStack program>", "exec"), self.env)
        return self.env["program"]


def _partials(terms):
    """{d: the monomials that contain x_d, in order} for a compiled row, in
    order of first appearance; the other partials are structurally zero."""
    out = {}
    for c, factors in terms:
        for i, _ in factors:
            out.setdefault(i, []).append((c, factors))
    return out


class RowStack:
    """A stack of rows over n variables, evaluated together.

    A polynomial row is compiled on construction into its monomials; any
    other row is walked, through ``eval_values``/``eval_grads``.  The first
    call of each entry point (``values``, ``grads``, ``pullback``,
    ``objective_pullback``) generates one straight-line program for it,
    which every later call runs.  A program forms one power table shared
    by every row, x_i^k by repeated multiplication as ``_ipow`` forms it,
    and each distinct monomial and partial derivative once.  A row's value
    is its first term, then += each other term in order of first
    appearance; a gradient entry sums its terms from 0.0 in the same order,
    with k x_d^(k-1) first and then the other factors in variable order.
    So a row written as a sum of coefficient-times-monomial terms gets the
    walker's bits.  Every call returns fresh arrays unless given ``out``.
    """

    def __init__(self, rows, n: int, objective: Optional[Expression] = None):
        self.rows = tuple(rows)
        self.n = n
        self.objective = objective
        self.compiled = tuple(compile_polynomial(r, n) for r in self.rows)

    def _rows(self, src: _Source, order: int) -> None:
        """Emit the row values V and, for ``order`` 1, bind each walked row's
        gradients to a temporary ("w", r)."""
        for r, (row, terms) in enumerate(zip(self.rows, self.compiled)):
            if terms is not None:
                src.value(f"V[{r}]", terms)
            elif order:
                src.memo[("w", r)] = w = f"w{r}"
                src.line(f"V[{r}], {w} = _eval_grads({src.bind(row)}, X)")
            else:
                src.line(f"V[{r}] = _eval_values({src.bind(row)}, X)")

    def _objective(self, src: _Source) -> None:
        """Emit the objective's value into out[0] and its gradient into
        out[1:n+1], the bits a one-row stack's ``grads`` gives."""
        n, terms = self.n, compile_polynomial(self.objective, self.n)
        if terms is None:
            src.line(f"out[0], out[1:{n + 1}] = _eval_grads({src.bind(self.objective)}, X)")
            return
        src.value("out[0]", terms)
        partials = _partials(terms)
        for d in range(n):
            src.line(f"out[{1 + d}] = {src.partial(partials[d], d) if d in partials else '0.0'}")

    def _entries(self, src: _Source, r: int):
        """(d, name of J[r, d]) of row r's structurally nonzero entries."""
        terms = self.compiled[r]
        if terms is None:
            return [(d, f"{src.memo[('w', r)]}[{d}]") for d in range(self.n)]
        return [(d, src.partial(ts, d)) for d, ts in _partials(terms).items()]

    @functools.cached_property
    def _values(self):
        src = _Source()
        src.line(f"V = _empty(({len(self.rows)}, X.shape[1]))")
        src.ignoring_errors(lambda: self._rows(src, 0))
        src.line("return V")
        return src.function("X")

    @functools.cached_property
    def _grads(self):
        src = _Source()
        src.line(f"V = _empty(({len(self.rows)}, X.shape[1]))")
        src.line(f"J = _zeros(({len(self.rows)}, {self.n}, X.shape[1]))")

        def body():
            self._rows(src, 1)
            for r in range(len(self.rows)):
                if self.compiled[r] is None:
                    src.line(f"J[{r}] = {src.memo[('w', r)]}")
                else:
                    for d, j in self._entries(src, r):
                        src.line(f"J[{r}, {d}] = {j}")

        src.ignoring_errors(body)
        src.line("return V, J")
        return src.function("X")

    def _pullback_program(self, objective: bool):
        """out[off:off + n] = G (see ``pullback``), after the objective's
        value and gradient in out[0:n + 1] when ``objective``."""
        src = _Source()
        n, off = self.n, self.n + 1 if objective else 0
        src.line(f"V = _empty(({len(self.rows)}, X.shape[1]))")

        def values():
            if objective:
                self._objective(src)
            self._rows(src, 1)

        def pulled_back():
            started = set()
            for r in range(len(self.rows)):
                for d, j in self._entries(src, r):
                    src.line(f"out[{off + d}] {'+=' if d in started else '='} {j} * R[{r}]")
                    started.add(d)
            for d in range(n):
                if d not in started:
                    src.line(f"out[{off + d}] = 0.0")

        src.ignoring_errors(values)
        src.line("R = fn(V)")
        src.ignoring_errors(pulled_back)
        src.line("return R")
        return src.function("X, fn, out")

    @functools.cached_property
    def _pullback(self):
        return self._pullback_program(False)

    @functools.cached_property
    def _objective_pullback(self):
        return self._pullback_program(True)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row values (m, N) over the columns of X (n, N)."""
        return self._values(X)

    def grads(self, X: np.ndarray):
        """Row values (m, N) and gradients (m, n, N); the values are the
        bits ``values`` gives."""
        return self._grads(X)

    def pullback(self, X: np.ndarray, fn, out: Optional[np.ndarray] = None):
        """R = fn(V) for the row values V (m, N), and G (n, N) with
        G[d] = sum_r J[r, d] * R[r], J the Jacobian ``grads`` gives.

        G is summed in row order from the same J[r, d] bits without
        forming J, into ``out`` when given.  Structurally zero entries are
        skipped, which can only change the sign of a zero sum or keep a
        0 * inf = NaN out of it.
        """
        G = np.empty((self.n, X.shape[1])) if out is None else out
        return self._pullback(X, fn, G), G

    def objective_pullback(self, X: np.ndarray, fn, out: np.ndarray) -> np.ndarray:
        """``pullback`` with the objective's value and gradient, from one
        power table: out[0] is the objective's value, out[1:n+1] its
        gradient (the bits of a one-row stack's ``grads``) and
        out[n+1:2n+1] G.  Returns R."""
        return self._objective_pullback(X, fn, out)


# ----------------------------------------------------------------------
# rendering and tree surgery
# ----------------------------------------------------------------------

def to_text(e: Expression, variables) -> str:
    """Render a tree to parseable text (fully parenthesized)."""
    if isinstance(e, Const):
        # -0.0 too: a bare "-0.0" after a unary minus would not parse
        return repr(e.value) if not np.signbit(e.value) else f"({repr(e.value)})"
    if isinstance(e, Var):
        return variables[e.index]
    if isinstance(e, Power):
        return f"({to_text(e.base, variables)})^{e.exponent}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_text(e.arg, variables)})"
        return f"{e.op}({to_text(e.arg, variables)})"
    if isinstance(e, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        return f"({to_text(e.left, variables)} {sym} {to_text(e.right, variables)})"
    raise TypeError(f"not an expression node: {e!r}")
