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
from bisect import bisect_left, bisect_right
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
        self.starts = f._starts
        self.lo = np.array(self.starts)
        self.hi, self.a, self.b, self.c = np.array(
            [(p.hi, p.a, p.b, p.c) for p in f.pieces]).T.copy()
        self.c2 = 2.0 * self.c
        bps = f.breakpoints
        self.breakpoints = np.array(bps, dtype=float)
        self.accumulation = f.accumulation
        xs, v0, v1 = [], [], []
        for x in bps:
            iv = f.prox_subdiff(x)
            if iv is not None:
                xs.append(x)
                v0.append(max(iv[0], -_VCAP))
                v1.append(min(iv[1], _VCAP))
        if self.accumulation is not None:
            x, (lo, hi) = self.accumulation
            k = bisect_left(xs, x)
            xs.insert(k, x)
            v0.insert(k, lo)
            v1.insert(k, hi)
        self.vert = xs  # the x of each vertical segment, for bisect
        self.vert_x, self.vert_v0, self.vert_v1 = (np.array(u, dtype=float)
                                                   for u in (xs, v0, v1))

    @property
    def size(self) -> int:
        """The most segments a window can hold."""
        return self.lo.shape[0] + self.vert_x.shape[0]

    def distances(self, X: float, V: np.ndarray, window: float,
                  work: np.ndarray) -> np.ndarray:
        """Distances from (X, v) to the segments with x in [X - window,
        X + window], for every v in V.

        ``work`` holds two (size, len(V)) buffers.  The projection
        parameter and both squared differences are computed in them, in the
        rounding order of x0 + t dx with
        t = clip(((X - x0) dx + (V - v0) dv) / |d|^2, 0, 1).
        """
        lo, hi = X - window, X + window
        pieces = slice(max(bisect_right(self.starts, lo) - 1, 0),
                       bisect_left(self.starts, hi))
        a = np.maximum(self.lo[pieces], lo)
        b = np.minimum(self.hi[pieces], hi)
        slope, c2 = self.b[pieces], self.c2[pieces]
        keep = a < b  # false only past a last piece that ends before lo
        if not keep.all():
            a, b, slope, c2 = a[keep], b[keep], slope[keep], c2[keep]
        vert = slice(bisect_left(self.vert, lo), bisect_right(self.vert, hi))
        xv = self.vert_x[vert]
        x0 = np.concatenate((a, xv))[:, None]
        v0 = np.concatenate((slope + c2 * a, self.vert_v0[vert]))[:, None]
        dx = np.concatenate((b, xv))[:, None] - x0
        dv = np.concatenate((slope + c2 * b, self.vert_v1[vert]))[:, None] - v0
        S = x0.shape[0]
        if S == 0:
            return np.full(V.shape[0], math.inf)
        L2 = dx * dx + dv * dv
        L2 = np.where(L2 > 0, L2, 1.0)
        t, sq = work[0, :S], work[1, :S]
        np.subtract(V, v0, out=t)
        t *= dv
        t += (X - x0) * dx
        t /= L2
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(t, dx, out=sq)
        sq += x0
        np.subtract(X, sq, out=sq)
        np.square(sq, out=sq)
        t *= dv
        t += v0
        np.subtract(V, t, out=t)
        np.square(t, out=t)
        sq += t
        # sqrt is monotone and correctly rounded: sqrt of the least square
        # is the least distance
        return np.sqrt(sq.min(axis=0))

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
    graph = f._graph
    ts = sorted(f.scales, reverse=True)
    nrm = np.hypot(w, zs)
    work = np.empty((2, graph.size, zs.shape[0]))
    out = np.empty((len(ts), zs.shape[0]))
    for i, t in enumerate(ts):
        X = xbar + t * w
        window = 6.0 * t * (abs(w) + 1.0)
        d = graph.distances(X, vbar + t * zs, window, work)
        out[i] = d / (t * nrm)
    return out


def _accept_profile(deltas: np.ndarray) -> bool:
    if deltas[-1] <= _TANGENT_TOL:
        return True
    dmin = float(np.min(deltas))
    ratios_ok = bool(np.all(deltas[1:] <= deltas[:-1] * 1.3))
    return bool(dmin <= 0.15 and ratios_ok and deltas[0] >= 2.0 * deltas[-1])


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
        profile = _delta_profile(f, xbar, 0.0, w, zs)
        best = None
        for j, z in enumerate(zs):
            if _accept_profile(profile[:, j]):
                accepted.append((w, float(z)))
                best = z * w if best is None else max(best, z * w)
        if best is not None:
            per_w_max[w] = best

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
