"""Univariate piecewise functions: exact subdifferentials and growth tests.

This module exercises the unconstrained second-order theory on functions
with genuine nonsmoothness: proximal subdifferentials computed from
piecewise rules, a numerical tangent-cone test on the subgradient graph,
the positive-definiteness and existence-type slope conditions, empirical
quadratic growth, and second-order difference quotients.

Functions are piecewise affine/quadratic with finitely many pieces, plus
two generator families whose pieces accumulate factorially or dyadically
at the origin (truncated well below any sampled scale).  Generator pieces
store f minus its value at the accumulation point, so that deep-piece
evaluation never cancels catastrophically.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .expr import parse_number
from .oracle import QgcEstimate, qgc_verdict

__all__ = [
    "Piece",
    "Piecewise1D",
    "ConditionsReport",
    "D2Result",
    "Pw1dFormatError",
    "example31",
    "example33",
    "binary_staircase",
    "loads",
    "load",
    "check_conditions",
    "estimate_qgc_1d",
    "second_subderivative",
]

_VCAP = 1e6  # cap for unbounded subgradient intervals in graph geometry
_EX31_LEVELS = 16          # factorial levels of example31 before its tail stub
_STAIRCASE_LEVELS = 40     # flat/rise levels of binary_staircase before its tail
_SCALES = tuple(10.0 ** (-k / 2.0) for k in range(2, 17))  # default t schedule
_RADII = (1.0, 0.25, 0.0625)                                # default growth radii
_TANGENT_TOL = 1e-3        # final normalized graph distance of a tangent pair
_Z_GRID = np.linspace(-4.0, 4.0, 161)  # slopes z paired with w = +-1
_QGC_GRID = 512            # geometric offsets per side and radius
_QGC_FLOOR_REL = 1e-7      # smallest offset, relative to the radius
_WPRIME_REL = (0.0, 1e-6, -1e-6)  # relative perturbations of w in d2


class Pw1dFormatError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    a: float
    b: float
    c: float

    def val(self, x: float) -> float:
        return self.a + self.b * x + self.c * x * x

    def slope(self, x: float) -> float:
        return self.b + 2.0 * self.c * x


@dataclass
class Piecewise1D:
    """Piecewise affine/quadratic function, lower semicontinuous by rule.

    ``pieces`` are sorted open intervals of positive width, each ending
    where the next starts; they cover the line except breakpoints (where
    the value is the min of the one-sided limits) and an optional
    accumulation point.  f is ``offset`` plus the stored pieces, whose
    value at the accumulation point is 0.
    """

    pieces: List[Piece]
    offset: float = 0.0
    accumulation: Optional[Tuple[float, Tuple[float, float]]] = None
    even: bool = False
    scales: Tuple[float, ...] = _SCALES
    radii: Tuple[float, ...] = _RADII
    name: str = "custom"
    _starts: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one piece")
        if not all(p.lo < p.hi for p in self.pieces):
            raise ValueError("every piece needs lo < hi")
        if any(p.hi != q.lo for p, q in zip(self.pieces, self.pieces[1:])):
            raise ValueError("each piece must start where the previous one ends")
        self._starts = [p.lo for p in self.pieces]

    @property
    def breakpoints(self) -> List[float]:
        """Where pieces meet, in increasing order, without the accumulation point."""
        acc = self.accumulation
        return [s for s in self._starts[1:] if acc is None or s != acc[0]]

    # -- lookup ---------------------------------------------------------

    def _around(self, x: float):
        """(piece ending at x, piece holding x inside, piece starting at x).

        At most the inside piece or the two others are set; a point no
        piece touches raises ValueError.
        """
        i = bisect_right(self._starts, x) - 1
        left = inside = right = None
        if i >= 0:
            p = self.pieces[i]
            if p.lo == x:
                right = p
                left = self.pieces[i - 1] if i else None
            elif x < p.hi:
                inside = p
        if left is None and inside is None and right is None:
            raise ValueError(f"x={x} outside the represented domain")
        return left, inside, right

    # -- values ---------------------------------------------------------

    def _stored(self, x: float) -> float:
        """f(x) - offset."""
        if self.accumulation is not None and x == self.accumulation[0]:
            return 0.0
        left, inside, right = self._around(x)
        if inside is not None:
            return inside.val(x)
        return min(p.val(x) for p in (left, right) if p is not None)

    def value(self, x: float) -> float:
        return self.offset + self._stored(x)

    def diff(self, x: float, xbar: float) -> float:
        """f(x) - f(xbar), free of the offset's cancellation."""
        return self._stored(x) - self._stored(xbar)

    # -- subdifferential --------------------------------------------------

    def prox_subdiff(self, x: float) -> Optional[Tuple[float, float]]:
        """Proximal subdifferential as a closed interval, or None when empty."""
        if self.accumulation is not None and x == self.accumulation[0]:
            return self.accumulation[1]
        left, inside, right = self._around(x)
        if inside is not None:
            s = inside.slope(x)
            return (s, s)
        v = min(p.val(x) for p in (left, right) if p is not None)
        lo = -math.inf
        hi = math.inf
        tiny = 1e-14 * max(1.0, abs(v))
        if right is not None and right.val(x) <= v + tiny:
            hi = right.slope(x)
        if left is not None and left.val(x) <= v + tiny:
            lo = left.slope(x)
        if lo > hi:
            return None
        return (lo, hi)

    @cached_property
    def _graph(self) -> "_Graph":
        """The pieces as arrays and gph of the proximal subdifferential as
        segments, built on first use; ``pieces`` must not change after."""
        return _Graph(self)


class _Graph:
    """Straight segments of gph prox-subdifferential, and stored values.

    A piece is the segment x -> (x, slope(x)) over its interval, clipped to
    each window; a breakpoint with a nonempty subdifferential is the
    vertical segment over its interval, capped at +-_VCAP; the
    accumulation point is the one over its own interval.
    """

    def __init__(self, f: Piecewise1D):
        self.lo = np.array(f._starts)
        self.hi, self.a, self.b, self.c = np.array(
            [(p.hi, p.a, p.b, p.c) for p in f.pieces]).T.copy()
        self.c2 = 2.0 * self.c
        self.accumulation = f.accumulation
        # Piecewise1D.prox_subdiff at every breakpoint, with its floats and
        # its ties: the value is the min of the one-sided values, left
        # first, and a side within 1e-14 max(1, |value|) of it bounds the
        # interval by its slope; an interval with lo > hi is empty
        x = self.lo[1:]
        keep = (x != self.accumulation[0] if self.accumulation is not None
                else np.ones(x.shape, dtype=bool))
        x = self.breakpoints = x[keep]
        left = np.flatnonzero(keep)
        right = left + 1
        lv = self.a[left] + self.b[left] * x + self.c[left] * x * x
        rv = self.a[right] + self.b[right] * x + self.c[right] * x * x
        v = np.where(rv < lv, rv, lv)
        mag = np.abs(v)
        tiny = 1e-14 * np.where(mag > 1.0, mag, 1.0)
        v1 = np.where(rv <= v + tiny, self.b[right] + self.c2[right] * x, math.inf)
        v0 = np.where(lv <= v + tiny, self.b[left] + self.c2[left] * x, -math.inf)
        nonempty = ~(v0 > v1)
        x, v0, v1 = x[nonempty], v0[nonempty], v1[nonempty]
        v0, v1 = np.maximum(v0, -_VCAP), np.minimum(v1, _VCAP)
        if self.accumulation is not None:
            k = np.searchsorted(x, self.accumulation[0])
            x = np.insert(x, k, self.accumulation[0])
            v0 = np.insert(v0, k, self.accumulation[1][0])
            v1 = np.insert(v1, k, self.accumulation[1][1])
        self.vert_x = x
        # a c = 0 piece (dv = 0) and a vertical segment (dx = 0) are
        # separable rows: their squared distance is an x-part of the row
        # plus a v-part of the row's (v0, v1), one group per pair
        groups: dict = {}
        self.piece_group = np.array(
            [groups.setdefault((p.b, p.b), len(groups)) if p.c == 0 else -1
             for p in f.pieces], dtype=np.intp)
        self.vert_group = np.array(
            [groups.setdefault(key, len(groups))
             for key in zip(v0.tolist(), v1.tolist())], dtype=np.intp)
        self.group_v0, self.group_v1 = np.array(
            list(groups), dtype=float).reshape(-1, 2).T.copy()
        self.group_dv = self.group_v1 - self.group_v0
        L2 = self.group_dv * self.group_dv
        self.group_L2 = np.where(L2 > 0, L2, 1.0)
        # the graph's rows: the pieces, then the vertical segments
        self.row_lo = np.concatenate((self.lo, x))
        self.row_hi = np.concatenate((self.hi, x))
        self.row_group = np.concatenate((self.piece_group, self.vert_group))

    @property
    def size(self) -> int:
        """The most segments a window can hold."""
        return self.lo.shape[0] + self.vert_x.shape[0]

    def least_squares(self, X: np.ndarray, V: np.ndarray,
                      window: np.ndarray) -> np.ndarray:
        """Least squared distances from (X[s], v) to the segments with x in
        [X[s] - window[s], X[s] + window[s]], for every v in row s of V; inf
        where the window holds none.

        A segment's squared distance is computed in the rounding order of
        (X - (t dx + x0))^2 + (v - (t dv + v0))^2 with
        t = clip(((X - x0) dx + (v - v0) dv) / |d|^2, 0, 1).  On a separable
        row, where dv = 0 (a c = 0 piece) or dx = 0 (a vertical segment),
        one term of t's numerator is a signed zero, so the x-part is
        computed with t from the x term alone and the v-part with t from
        the v term alone, which depends only on (v0, v1).  Rounded addition
        is monotone, so the least square over a group's rows is the least
        x-part plus the group's v-part, bit for bit.

        The rows of every window are laid out at once, tagged with their
        scale (the row of X), so the x-parts and the least x-part per
        (scale, group) key take one pass each.  The quadratic rows, then
        one v-part row per key, run through the (rows, Z) passes in chunks
        of consecutive scales, each at most max(size, S) rows: two (size, Z)
        buffers are what one window may need, and the profile itself has S
        rows.  Each scale takes the exact minimum of its rows; a scale
        without rows stays inf.
        """
        S, Z = V.shape
        lo, hi = X - window, X + window
        # the pieces and then the vertical segments of every window, as
        # ranges of the graph's rows; a window's first piece is no row when
        # it ends at or before lo, past a last piece
        first = np.maximum(np.searchsorted(self.lo, lo, side="right") - 1, 0)
        first += self.hi[first] <= lo
        n = self.lo.shape[0]
        row, scale = _ranges(
            np.concatenate((first, n + np.searchsorted(self.vert_x, lo))),
            np.concatenate((np.searchsorted(self.lo, hi),
                            n + np.searchsorted(self.vert_x, hi, side="right"))),
            np.tile(np.arange(S), 2))
        x0 = np.maximum(self.row_lo[row], lo[scale])
        x1 = np.minimum(self.row_hi[row], hi[scale])
        dx = x1 - x0
        group = self.row_group[row]
        out = np.full((S, Z), math.inf)
        limit = max(self.size, S)
        work = np.empty((2, limit, Z))
        quad = group < 0
        if quad.any():
            q = row[quad]
            qscale, qx0, qdx = scale[quad], x0[quad], dx[quad]
            qv0 = self.b[q] + self.c2[q] * qx0
            qdv = (self.b[q] + self.c2[q] * x1[quad]) - qv0
            qL2 = qdx * qdx + qdv * qdv
            qL2 = np.where(qL2 > 0, qL2, 1.0)
            qX = X[qscale]
            qxdx = (qX - qx0) * qdx
            for r in _chunks(q.shape[0], limit):
                rows = _quad_squares(
                    V, qscale[r], qX[r, None], qx0[r, None], qdx[r, None],
                    qv0[r, None], qdv[r, None], qL2[r, None], qxdx[r, None],
                    work[:, :r.stop - r.start])
                _least_per_scale(out, rows, qscale[r])
            sep = ~quad
            scale, x0, dx, group = scale[sep], x0[sep], dx[sep], group[sep]
        # separable rows: the least x-part per (scale, group) key, and one
        # v-part row per key
        L2 = dx * dx
        xpart = _square_part(X[scale], x0, dx, np.where(L2 > 0, L2, 1.0),
                             np.empty(x0.shape))
        G = self.group_v0.shape[0]
        keys = scale * G + group
        best = np.full(S * G, math.inf)
        np.minimum.at(best, keys, xpart)
        present = np.zeros(S * G, dtype=bool)
        present[keys] = True
        keys = np.flatnonzero(present)
        kscale, kgroup = np.divmod(keys, G)
        kv0, kdv = self.group_v0[kgroup, None], self.group_dv[kgroup, None]
        kL2, kbest = self.group_L2[kgroup, None], best[keys, None]
        for r in _chunks(keys.shape[0], limit):
            P, rows = work[:, :r.stop - r.start]
            np.take(V, kscale[r], axis=0, out=P, mode="clip")
            _square_part(P, kv0[r], kdv[r], kL2[r], rows)
            rows += kbest[r]
            _least_per_scale(out, rows, kscale[r])
        return out

    def stored(self, xs: np.ndarray) -> np.ndarray:
        """f - offset at every x of xs, by Piecewise1D._stored's rules."""
        shape, xs = xs.shape, xs.ravel()
        i = np.searchsorted(self.lo, xs, side="right") - 1
        j = np.maximum(i, 0)
        at = self.lo[j] == xs
        acc = (np.zeros(xs.shape, dtype=bool) if self.accumulation is None
               else xs == self.accumulation[0])
        bad = ~acc & ((i < 0) | ~(at | (xs < self.hi[j])))
        if bad.any():
            raise ValueError(f"x={float(xs[bad][0])} outside the represented domain")
        out = self.a[j] + self.b[j] * xs + self.c[j] * xs * xs
        # at a breakpoint, the min of the two one-sided values, left first
        k = np.flatnonzero(at & (i > 0))
        x, left = xs[k], j[k] - 1
        lv = self.a[left] + self.b[left] * x + self.c[left] * x * x
        out[k] = np.where(out[k] < lv, out[k], lv)
        out[acc] = 0.0
        return out.reshape(shape)


def _square_part(P, p0, dp, L2, out: np.ndarray) -> np.ndarray:
    """(P - (t dp + p0))^2 with t = clip((P - p0) dp / L2, 0, 1), into out."""
    np.subtract(P, p0, out=out)
    out *= dp
    out /= L2
    np.clip(out, 0.0, 1.0, out=out)
    out *= dp
    out += p0
    np.subtract(P, out, out=out)
    return np.square(out, out=out)


def _quad_squares(V, scale, X, x0, dx, v0, dv, L2, xdx,
                  work: np.ndarray) -> np.ndarray:
    """(X - (t dx + x0))^2 + (v - (t dv + v0))^2 for every v in V[scale],
    with t = clip(((v - v0) dv + xdx) / L2, 0, 1), into work[1]; ``scale``
    is sorted."""
    t, sq = work
    np.take(V, scale, axis=0, out=t, mode="clip")
    t -= v0
    t *= dv
    t += xdx
    t /= L2
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, dx, out=sq)
    sq += x0
    np.subtract(X, sq, out=sq)
    np.square(sq, out=sq)
    t *= dv
    t += v0
    # v - (t dv + v0) with each scale's row of V broadcast over its rows:
    # gathering V again would take a third buffer
    for s, r in _runs(scale):
        np.subtract(V[s], t[r], out=t[r])
    np.square(t, out=t)
    sq += t
    return sq


def _ranges(first: np.ndarray, end: np.ndarray, label: np.ndarray):
    """(i, l): every i in range(first[k], end[k]), range by range, and the
    label[k] of its range."""
    count = np.maximum(end - first, 0)
    i = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    return i, np.repeat(label, count)


def _chunks(n: int, size: int) -> List[slice]:
    """range(n) in consecutive slices of at most size."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _runs(scale: np.ndarray):
    """(s, rows) for each run of rows of equal scale s; ``scale`` is sorted."""
    first = np.flatnonzero(np.diff(scale, prepend=-1)).tolist()
    return zip(scale[first].tolist(),
               map(slice, first, first[1:] + [scale.shape[0]]))


def _least_per_scale(out: np.ndarray, rows: np.ndarray,
                     scale: np.ndarray) -> None:
    """out[s] = min(out[s], least row of scale s) for every s in ``scale``,
    the sorted scale of each row.  One reduction per run of rows: faster
    than np.minimum.reduceat, which loops over the columns of each run."""
    for s, r in _runs(scale):
        least = out[s]
        np.minimum(least, np.minimum.reduce(rows[r], axis=0), out=least)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def example31() -> Piecewise1D:
    """Even convex staircase with factorially shrinking slopes.

    Slopes 1/(n+2)! on (1/(n+2)!, 1/(n+1)!], global minimum at the origin
    where the proximal subdifferential collapses to {0}; quadratic growth
    fails there.  Pieces are stored relative to the minimum value so deep
    pieces evaluate without cancellation.
    """
    alpha = [1.0 / math.factorial(n + 1) for n in range(_EX31_LEVELS + 3)]
    # tail[m] = sum_{k>=m} 1/(k! (k+2)!)
    tail = [0.0] * (_EX31_LEVELS + 4)
    for m in range(_EX31_LEVELS + 2, -1, -1):
        tail[m] = tail[m + 1] + 1.0 / (math.factorial(m) * math.factorial(m + 2))
    beta = tail[0]

    pieces: List[Piece] = []
    pieces.append(Piece(1.0, math.inf, -beta, 1.0, 0.0))  # f = x beyond 1
    for m in range(_EX31_LEVELS + 1):
        pieces.append(Piece(alpha[m + 1], alpha[m], -tail[m + 1], alpha[m + 1], 0.0))
    last = alpha[_EX31_LEVELS + 1]
    pieces.append(Piece(0.0, last, 0.0, alpha[_EX31_LEVELS + 2], 0.0))  # tail stub
    return Piecewise1D(_mirror(pieces), offset=beta,
                       accumulation=(0.0, (0.0, 0.0)), even=True,
                       scales=tuple(alpha[n] for n in range(2, 15)),
                       radii=tuple(alpha[n] for n in range(3, 9)),
                       name="example31")


def binary_staircase(base: float = 2.0, slope: float = 2.0) -> Piecewise1D:
    """Even staircase of flats and rises accumulating geometrically at 0.

    Constant value base^-n on [t_n, base^-n) with a rise of the given
    slope connecting consecutive flats; f(x) = x beyond 1.  Grows at least
    like x^2 on [-1, 1] while the subgradient graph contains long flats.
    A slope within rounding of 1, or a base or slope so large that the
    pieces underflow, rounds a flat or a rise to zero width and raises
    ValueError.
    """
    if base <= 1.0 or slope <= 1.0:
        raise ValueError("need base > 1 and slope > 1")
    r = [base ** (-n) for n in range(_STAIRCASE_LEVELS + 2)]
    pieces: List[Piece] = [Piece(1.0, math.inf, 0.0, 1.0, 0.0)]
    for n in range(_STAIRCASE_LEVELS + 1):
        c_n, c_n1 = r[n], r[n + 1]
        t_n = r[n + 1] + (c_n - c_n1) / slope
        pieces.append(Piece(t_n, r[n], c_n, 0.0, 0.0))              # flat
        pieces.append(Piece(r[n + 1], t_n, c_n1 - slope * r[n + 1],
                            slope, 0.0))                            # rise
    pieces.append(Piece(0.0, r[-1], 0.0, 1.0, 0.0))                 # tail: f = x
    return Piecewise1D(_mirror(pieces), accumulation=(0.0, (-1.0, 1.0)),
                       even=True,
                       scales=tuple(base ** (-n) for n in range(0, 31)),
                       name=f"binary-staircase({base:g},{slope:g})")


def example33() -> Piecewise1D:
    """Dyadic flat/rise staircase (base 2, rise slope 2)."""
    return replace(binary_staircase(2.0, 2.0), name="example33")


def _mirror(pieces: List[Piece]) -> List[Piece]:
    """The pieces of x >= 0 and their reflections, sorted."""
    full = list(pieces)
    for p in pieces:
        full.append(Piece(-p.hi, -p.lo, p.a, -p.b, p.c))
    full.sort(key=lambda q: (q.lo, q.hi))
    return full


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------

def _floats(values: List[str], what: str, lineno: int) -> List[float]:
    """The finite numbers of one line, or a Pw1dFormatError naming it."""
    try:
        out = [parse_number(v) for v in values]
    except ValueError as err:
        raise Pw1dFormatError(f"bad {what}: {err}", lineno) from err
    if not all(math.isfinite(v) for v in out):
        raise Pw1dFormatError(f"every {what} must be finite", lineno)
    return out


def loads(text: str) -> Piecewise1D:
    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not lines or lines[0][1] != "pw1d":
        raise Pw1dFormatError("file must start with a 'pw1d' header line",
                              lines[0][0] if lines else 1)
    body = lines[1:]
    if body and body[0][1].startswith("generator:"):
        spec = body[0][1][len("generator:"):].split()
        if not spec:
            raise Pw1dFormatError("empty generator", body[0][0])
        name, args = spec[0], spec[1:]
        if len(body) > 1:
            raise Pw1dFormatError("a generator file has no further lines",
                                  body[1][0])
        if name in ("example31", "example33"):
            if args:
                raise Pw1dFormatError(f"{name} takes no parameters", body[0][0])
            return example31() if name == "example31" else example33()
        if name == "binary-staircase":
            vals = _floats(args, "generator parameter", body[0][0]) or [2.0, 2.0]
            if len(vals) != 2:
                raise Pw1dFormatError("binary-staircase takes two parameters",
                                      body[0][0])
            try:
                return binary_staircase(*vals)
            except ValueError as err:
                raise Pw1dFormatError(str(err), body[0][0]) from err
        raise Pw1dFormatError(f"unknown generator {name!r}", body[0][0])

    bps: Optional[List[float]] = None
    coeffs: List[Tuple[float, float, float]] = []
    even = False
    for lineno, ln in body:
        if ln.startswith("breakpoints:"):
            if bps is not None:
                raise Pw1dFormatError("breakpoints given twice", lineno)
            bps = _floats(ln[len("breakpoints:"):].split(), "breakpoint", lineno)
        elif ln.startswith("piece "):
            head, _, rest = ln.partition(":")
            index = re.fullmatch(r"piece\s+([0-9]+)", head)
            if index is None:
                raise Pw1dFormatError("piece index must be an integer", lineno)
            idx = int(index[1])
            if idx != len(coeffs):
                raise Pw1dFormatError(f"expected piece {len(coeffs)}", lineno)
            vals = _floats(rest.split(), "coefficient", lineno)
            if len(vals) != 3:
                raise Pw1dFormatError("piece needs coefficients 'a b c'", lineno)
            coeffs.append(tuple(vals))
        elif ln.startswith("even:"):
            flag = ln[len("even:"):].strip().lower()
            if flag not in ("true", "false"):
                raise Pw1dFormatError("even must be 'true' or 'false'", lineno)
            even = flag == "true"
        else:
            raise Pw1dFormatError(f"unexpected line {ln!r}", lineno)
    if bps is None:
        bps = []
    if sorted(bps) != bps or len(set(bps)) != len(bps):
        raise Pw1dFormatError("breakpoints must be strictly increasing")
    if len(coeffs) != len(bps) + 1:
        raise Pw1dFormatError(
            f"{len(bps)} breakpoints need {len(bps) + 1} pieces, got {len(coeffs)}")
    if even and any(b <= 0 for b in bps):
        raise Pw1dFormatError("even functions list positive breakpoints only")
    edges = [0.0 if even else -math.inf] + bps + [math.inf]
    pieces = [Piece(edges[i], edges[i + 1], *coeffs[i])
              for i in range(len(coeffs))]
    return Piecewise1D(_mirror(pieces) if even else pieces, even=even)


def load(path: str) -> Piecewise1D:
    """Load a function from a file; ``loads`` parses text."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def _delta_profile(f: Piecewise1D, xbar: float, vbar: float, w: float,
                   zs: np.ndarray) -> np.ndarray:
    """Normalized graph distances, one row per scale, one column per z."""
    ts = np.array(sorted(f.scales, reverse=True))
    out = f._graph.least_squares(xbar + ts * w, vbar + ts[:, None] * zs,
                                 6.0 * ts * (abs(w) + 1.0))
    # sqrt is monotone and correctly rounded: sqrt of the least square is
    # the least distance
    np.sqrt(out, out=out)
    out /= ts[:, None] * np.hypot(w, zs)
    return out


def _accept_profile(deltas: np.ndarray) -> np.ndarray:
    """Which columns of a (scales, slopes) profile are tangent: the last
    distance is within _TANGENT_TOL, or the distances reach 0.15, never grow
    by more than 1.3 from one scale to the next and halve overall.  A
    column holding a NaN is accepted only by its last distance."""
    last = deltas[-1]
    decays = ((deltas.min(axis=0) <= 0.15)
              & (deltas[1:] <= deltas[:-1] * 1.3).all(axis=0)
              & (deltas[0] >= 2.0 * last))
    return (last <= _TANGENT_TOL) | decays


@dataclass(frozen=True)
class ConditionsReport:
    pd_lower_bound: bool          # every tangent slope pair has z.w >= c w^2, c > 0
    pd_strict: bool               # every tangent slope pair has z.w > 0
    second_kind: bool             # for each direction some slope has z.w >= kappa > 0
    second_kind_kappa: float
    min_ratio: float              # min of z.w / w^2 over accepted pairs
    accepted: Tuple[Tuple[float, float], ...]


def check_conditions(f: Piecewise1D, xbar: float) -> ConditionsReport:
    """Slope conditions on the subgradient graphical derivative at xbar.

    Directions w = +-1 are paired with a z grid (plus analytic seed slopes
    from the adjacent pieces); membership of (w, z) in the tangent cone of
    the subgradient graph decides which pairs count.
    """
    iv = f.prox_subdiff(xbar)
    if iv is None or not (iv[0] <= 1e-12 and iv[1] >= -1e-12):
        raise ValueError("0 is not a proximal subgradient at xbar")
    left, _, right = f._around(xbar)
    seeds = {2.0 * p.c for p in (left, right) if p is not None}
    accepted: List[Tuple[float, float]] = []
    per_w_max = {}
    for w in (1.0, -1.0):
        # w is +-1 here, so the direction is already normalized
        zs = np.array(sorted(set(float(z) for z in _Z_GRID) | {s * w for s in seeds}))
        tangent = zs[_accept_profile(_delta_profile(f, xbar, 0.0, w, zs))]
        accepted.extend((w, float(z)) for z in tangent)
        if tangent.shape[0]:
            per_w_max[w] = float((tangent * w).max())

    if accepted:
        min_ratio = min(z * w / (w * w) for w, z in accepted)
    else:
        min_ratio = math.inf
    pd_lower = bool(accepted) and min_ratio > 1e-9 or not accepted
    pd_strict = all(z * w > 1e-9 for w, z in accepted)
    if per_w_max:
        kappa = min(per_w_max.values())
        second = kappa > 1e-9
    else:
        kappa = math.inf
        second = True
    return ConditionsReport(bool(pd_lower), pd_strict, bool(second),
                            float(kappa), float(min_ratio), tuple(accepted))


def estimate_qgc_1d(f: Piecewise1D, xbar: float,
                    radii: Optional[Sequence[float]] = None) -> QgcEstimate:
    """Empirical growth modulus: inf of 2(f(x)-f(xbar))/(x-xbar)^2 per radius.

    The grid is geometric between radius*_QGC_FLOOR_REL and the radius on
    both sides, with every breakpoint in range included exactly; radii
    default to ``f.radii``, which generator functions match to their
    pieces.  The sample and kept counts are the distinct points evaluated.
    """
    if radii is None:
        radii = f.radii
    graph = f._graph
    base = f._stored(xbar)
    gaps = np.abs(graph.breakpoints - xbar)
    per_radius: List[float] = []
    counts: List[int] = []
    for r in radii:
        offs = np.geomspace(r * _QGC_FLOOR_REL, r, _QGC_GRID)
        near = graph.breakpoints[(gaps <= r) & (gaps >= r * _QGC_FLOOR_REL)]
        xs = np.unique(np.concatenate((xbar + offs, xbar - offs, near)))
        d = xs - xbar
        vals = 2.0 * (graph.stored(xs) - base) / (d * d)
        # a NaN quotient never wins
        per_radius.append(float(np.fmin.reduce(vals, initial=math.inf)))
        counts.append(xs.shape[0])
    verdict = qgc_verdict(per_radius)
    kappa = float(min(per_radius)) if per_radius else math.inf
    return QgcEstimate(tuple(float(r) for r in radii), tuple(per_radius),
                       tuple(counts), tuple(counts), verdict, kappa, 0)


@dataclass(frozen=True)
class D2Result:
    value: float
    trend: str                    # "stable" | "decreasing" | "increasing" | "diverging"


def _quotient_minima(f: Piecewise1D, xbar: float, v: float,
                     w: float) -> np.ndarray:
    """Per scale of ``f.scales``, largest first, the least second-order
    difference quotient over the directions around w."""
    ts = np.array(sorted(f.scales, reverse=True))[:, None]
    wp = np.array([w * (1.0 + rel) for rel in _WPRIME_REL])
    diff = f._graph.stored(xbar + ts * wp) - f._stored(xbar)
    q = 2.0 * (diff - ts * v * wp) / (ts * ts)
    # a NaN quotient never wins
    return np.fmin.reduce(q, axis=1, initial=math.inf)


def second_subderivative(f: Piecewise1D, xbar: float, v: float,
                         w: float) -> D2Result:
    """Numerical lower second-order difference quotient along w.

    Minimizes the quotient over the tau schedule ``f.scales`` and a tight
    grid of directions around w; a decreasing tail is Aitken-extrapolated
    and flagged, since the underlying limit inferior may sit below every
    finite-scale quotient.
    """
    per_tau = _quotient_minima(f, xbar, v, w).tolist()
    raw = min(per_tau)
    value = raw
    trend = "stable"
    if len(per_tau) >= 3:
        a, b, c = per_tau[-3], per_tau[-2], per_tau[-1]
        if a > b > c:
            trend = "decreasing"
            d1, d2 = b - a, c - b
            if abs(d2 - d1) > 1e-300:
                extrap = c - d2 * d2 / (d2 - d1)
                if np.isfinite(extrap):
                    value = min(value, float(extrap))
        elif c > b > a:
            trend = "increasing"
    if value < -1e8:
        return D2Result(-math.inf, "diverging")
    return D2Result(float(value), trend)
