"""Scalar expression trees with exact first and second derivatives.

Expressions are parsed over a fixed, ordered variable list and evaluated
by recursive differentiation of the tree.  Values, gradients and Hessians
are exact up to floating point; finite differences never appear here (the
test suite uses them as an independent cross-check only).

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' INTEGER)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Binary operators of equal precedence associate to the left.  Function
identifiers are limited to sqrt, exp, log, sin, cos; any other identifier
must be a declared variable.  Exponents are nonnegative integer literals,
which keeps polynomial data smooth everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    "eval_bundle",
    "eval_value",
    "eval_values",
    "eval_grads",
    "to_text",
    "quadratic_shift",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")


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
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                d = text[j]
                if d.isdigit():
                    j += 1
                elif d == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif d in "eE" and not seen_exp and j + 1 < n and (
                    text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
                ):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(("num", text[i:j], i))
            i = j
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


def parse(text: str, variables) -> Expression:
    """Parse ``text`` over the ordered variable name list ``variables``."""
    for name in variables:
        if name in FUNCTIONS:
            raise ParseError(f"variable name {name!r} collides with a function", 0)
    return _Parser(text, variables).parse()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _chain(phi, dphi, ddphi, val, grad, hess):
    # scalar chain rule: H[phi(u)] = phi''(u) grad grad^T + phi'(u) H[u]
    g = dphi * grad
    h = ddphi * np.outer(grad, grad) + dphi * hess
    return phi, g, h


def _bundle(e: Expression, x: np.ndarray):
    n = x.shape[0]
    if isinstance(e, Const):
        return e.value, np.zeros(n), np.zeros((n, n))
    if isinstance(e, Var):
        g = np.zeros(n)
        g[e.index] = 1.0
        return float(x[e.index]), g, np.zeros((n, n))
    if isinstance(e, Power):
        v, g, h = _bundle(e.base, x)
        k = e.exponent
        if k == 0:
            return 1.0, np.zeros(n), np.zeros((n, n))
        if k == 1:
            return v, g, h
        vk1 = v ** (k - 1)
        vk2 = v ** (k - 2)
        return (
            v ** k,
            k * vk1 * g,
            k * (k - 1) * vk2 * np.outer(g, g) + k * vk1 * h,
        )
    if isinstance(e, Unary):
        v, g, h = _bundle(e.arg, x)
        if e.op == "neg":
            return -v, -g, -h
        if e.op == "sqrt":
            if v <= 0.0:
                raise EvalDomainError("sqrt of nonpositive argument")
            s = np.sqrt(v)
            return _chain(s, 0.5 / s, -0.25 / (v * s), v, g, h)
        if e.op == "exp":
            ev = np.exp(v)
            return _chain(ev, ev, ev, v, g, h)
        if e.op == "log":
            if v <= 0.0:
                raise EvalDomainError("log of nonpositive argument")
            return _chain(np.log(v), 1.0 / v, -1.0 / (v * v), v, g, h)
        if e.op == "sin":
            return _chain(np.sin(v), np.cos(v), -np.sin(v), v, g, h)
        if e.op == "cos":
            return _chain(np.cos(v), -np.sin(v), -np.cos(v), v, g, h)
        raise ValueError(f"unknown unary op {e.op}")
    if isinstance(e, Binary):
        lv, lg, lh = _bundle(e.left, x)
        rv, rg, rh = _bundle(e.right, x)
        if e.op == "add":
            return lv + rv, lg + rg, lh + rh
        if e.op == "sub":
            return lv - rv, lg - rg, lh - rh
        if e.op == "mul":
            cross = np.outer(lg, rg)
            return (
                lv * rv,
                lg * rv + lv * rg,
                lh * rv + lv * rh + (cross + cross.T),
            )
        if e.op == "div":
            if rv == 0.0:
                raise EvalDomainError("division by zero")
            w = lv / rv
            gw = (lg - w * rg) / rv
            cross = np.outer(gw, rg)
            hw = (lh - (cross + cross.T) - w * rh) / rv
            return w, gw, hw
        raise ValueError(f"unknown binary op {e.op}")
    raise TypeError(f"not an expression node: {e!r}")


def eval_bundle(e: Expression, x) -> EvalBundle:
    """Exact value, gradient and Hessian of ``e`` at ``x``.

    Raises EvalDomainError when the point leaves the domain of a unary op
    and NonFiniteError when arithmetic overflows to inf/nan.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        v, g, h = _bundle(e, x)
    if not (np.isfinite(v) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise NonFiniteError("evaluation produced a non-finite value")
    return EvalBundle(float(v), g, h)


def eval_value(e: Expression, x) -> float:
    return eval_bundle(e, x).value


# Batched evaluation over columns of X (shape (n, N)).  Domain violations
# poison the affected columns with NaN instead of raising, which lets the
# sampling drivers reject those columns cheaply.

def eval_values(e: Expression, X: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return _values(e, X)


def _values(e, X):
    if isinstance(e, Const):
        return np.full(X.shape[1], e.value)
    if isinstance(e, Var):
        return X[e.index].copy()
    if isinstance(e, Power):
        return _values(e.base, X) ** e.exponent
    if isinstance(e, Unary):
        v = _values(e.arg, X)
        if e.op == "neg":
            return -v
        if e.op == "sqrt":
            return np.where(v > 0, np.sqrt(np.maximum(v, 0)), np.nan)
        if e.op == "exp":
            return np.exp(v)
        if e.op == "log":
            return np.where(v > 0, np.log(np.maximum(v, 1e-300)), np.nan)
        if e.op == "sin":
            return np.sin(v)
        return np.cos(v)
    if isinstance(e, Binary):
        lv = _values(e.left, X)
        rv = _values(e.right, X)
        if e.op == "add":
            return lv + rv
        if e.op == "sub":
            return lv - rv
        if e.op == "mul":
            return lv * rv
        return np.where(rv != 0, lv / np.where(rv != 0, rv, 1.0), np.nan)
    raise TypeError(f"not an expression node: {e!r}")


def eval_grads(e: Expression, X: np.ndarray):
    """Batched (values, gradients) with shapes (N,) and (n, N)."""
    with np.errstate(all="ignore"):
        return _grads(e, X)


def _grads(e, X):
    n, N = X.shape
    if isinstance(e, Const):
        return np.full(N, e.value), np.zeros((n, N))
    if isinstance(e, Var):
        g = np.zeros((n, N))
        g[e.index] = 1.0
        return X[e.index].copy(), g
    if isinstance(e, Power):
        v, g = _grads(e.base, X)
        k = e.exponent
        if k == 0:
            return np.ones(N), np.zeros((n, N))
        if k == 1:
            return v, g
        return v ** k, (k * v ** (k - 1)) * g
    if isinstance(e, Unary):
        v, g = _grads(e.arg, X)
        if e.op == "neg":
            return -v, -g
        if e.op == "sqrt":
            ok = v > 0
            s = np.sqrt(np.where(ok, v, 1.0))
            return np.where(ok, s, np.nan), np.where(ok, 0.5 / s, np.nan) * g
        if e.op == "exp":
            ev = np.exp(v)
            return ev, ev * g
        if e.op == "log":
            ok = v > 0
            return (
                np.where(ok, np.log(np.where(ok, v, 1.0)), np.nan),
                np.where(ok, 1.0 / np.where(ok, v, 1.0), np.nan) * g,
            )
        if e.op == "sin":
            return np.sin(v), np.cos(v) * g
        return np.cos(v), -np.sin(v) * g
    if isinstance(e, Binary):
        lv, lg = _grads(e.left, X)
        rv, rg = _grads(e.right, X)
        if e.op == "add":
            return lv + rv, lg + rg
        if e.op == "sub":
            return lv - rv, lg - rg
        if e.op == "mul":
            return lv * rv, lg * rv + lv * rg
        ok = rv != 0
        rs = np.where(ok, rv, 1.0)
        w = np.where(ok, lv / rs, np.nan)
        return w, np.where(ok, 1.0 / rs, np.nan) * (lg - w * rg)
    raise TypeError(f"not an expression node: {e!r}")


# ----------------------------------------------------------------------
# rendering and tree surgery
# ----------------------------------------------------------------------

def to_text(e: Expression, variables) -> str:
    """Render a tree to parseable text (fully parenthesized)."""
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"({repr(e.value)})"
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


def quadratic_shift(e: Expression, center, rho: float) -> Expression:
    """Return e + (rho/2) * ||x - center||^2 as a tree."""
    center = np.asarray(center, dtype=float)
    out = e
    for i, ci in enumerate(center):
        term = Power(Binary("sub", Var(i), Const(float(ci))), 2)
        out = Binary("add", out, Binary("mul", Const(rho / 2.0), term))
    return out
