"""Stationarity verification and the Lagrange multiplier set.

The multiplier set is the intersection of an affine set (solutions of the
stationarity equation) with the normal-cone face of the evaluated point
(``PointData.face``).  It is stored as a particular solution plus a
null-space basis, with the point's ``NormalFace`` attached.  A linear
functional can be maximized exactly over it by one loop of dense simplex
LPs: a polyhedral set needs one LP, and the face's ``NormalFace.cuts``
handle blocks constrained to the polar second-order cone.  With k <= 3
parameters, ``VertexMaximizer`` reads many such maxima at once off the
vertices and rays of that first LP's polyhedron, and leaves the LP loop
only the objectives this geometry does not settle.

``face_least_squares``, the stationarity check that ``cq`` also calls,
exits its accelerated projected-gradient loop at an exact fixed point,
where every later iterate would repeat the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import cones
from ._simplex import solve_lp
from .problem import PointData

__all__ = [
    "MultiplierSet",
    "LinMaxResult",
    "StationarityResult",
    "EmptyMultiplierSet",
    "stationarity_check",
    "face_least_squares",
    "build_multiplier_set",
    "maximize_linear",
    "enumerate_polyhedron",
    "VertexMaximizer",
    "STATIONARITY_TOL",
]

STATIONARITY_TOL = 1e-7
_STATIONARITY_ITERS = 4000  # accelerated projected-gradient iterations
# cutting-plane loop: relative bound gap that ends it, and its cut budget
_GAP_TOL = 1e-9
_MAX_CUTS = 200
_RECESSION_TOL = 1e-10  # soc violation of a unit ray that still recedes


class EmptyMultiplierSet(Exception):
    """Stationarity equation is inconsistent with the cone constraints."""


@dataclass(frozen=True)
class StationarityResult:
    is_stationary: bool
    residual: float
    witness: Optional[np.ndarray]  # None when not stationary


@dataclass
class MultiplierSet:
    """Affine parameterization lam0 + basis @ t, intersected with the face."""

    lam0: np.ndarray
    basis: np.ndarray                     # (m, k)
    face: cones.NormalFace

    @property
    def m(self) -> int:
        return self.lam0.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def member(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.lam0 + self.basis @ t


@dataclass(frozen=True)
class LinMaxResult:
    status: str                       # "bounded" | "unbounded"
    value: Optional[float] = None
    argmax: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None  # recession direction when unbounded
    cuts_exceeded: bool = False       # best bound returned, accuracy not certified


# ----------------------------------------------------------------------
# stationarity
# ----------------------------------------------------------------------

def stationarity_check(pd: PointData,
                       tol: float = STATIONARITY_TOL) -> StationarityResult:
    """Distance from -∇g(x̄) to ∇q(x̄)^T applied to the normal cone, by
    ``face_least_squares``; stationary iff it is at most ``tol``."""
    lam, res = face_least_squares(pd.g.gradient, pd.J, pd.face)
    ok = res <= tol
    return StationarityResult(ok, res, lam if ok else None)


def face_least_squares(grad_g: np.ndarray, J: np.ndarray,
                       face: cones.NormalFace):
    """(lam, ||grad_g + J^T lam||) for lam in the face nearly minimizing it.

    Accelerated projected gradient (Beck & Teboulle 2009) followed by an
    active-face least-squares polish.  The loop runs _STATIONARITY_ITERS
    iterations, or stops after one that leaves both its iterate and its
    extrapolated point bitwise unchanged: from there on every iterate is
    the same, so the result has the bits of the full budget.
    """
    m = J.shape[0]
    if m == 0:
        return np.zeros(0), float(np.linalg.norm(grad_g))

    JT = J.T
    nrm = float(np.linalg.norm(J, 2))
    step = 1.0 / max(nrm * nrm, 1e-12)  # 0.0 when nrm * nrm overflows

    lam = np.zeros(m)
    y = lam.copy()
    t_acc = 1.0
    for _ in range(_STATIONARITY_ITERS):
        grad = J @ (grad_g + JT @ y)
        nxt = face.project(y - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y_next = nxt + ((t_acc - 1.0) / t_next) * (nxt - lam)
        # nxt == lam makes the momentum term +0.0, and y_next == y makes the
        # next nxt this one: every later iterate is this one, bit for bit
        fixed = nxt.tobytes() == lam.tobytes() and y_next.tobytes() == y.tobytes()
        y, lam, t_acc = y_next, nxt, t_next
        if fixed:
            break

    lam = _active_face_polish(face, lam, grad_g, JT)
    return lam, float(np.linalg.norm(grad_g + JT @ lam))


def _active_face_polish(face, lam, grad_g, JT):
    """Least squares on the face of the normal cone identified by lam."""
    m = lam.shape[0]
    cols = []
    for i in face.nonneg:
        if lam[i] > 1e-10:
            e = np.zeros(m)
            e[i] = 1.0
            cols.append(e)
    for sl, d in face.rays:
        if float(lam[sl] @ d) / float(d @ d) > 1e-10:
            e = np.zeros(m)
            e[sl] = d
            cols.append(e)
    for sl in face.socs:
        v = lam[sl]
        nv = np.linalg.norm(v)
        if nv <= 1e-10:
            continue
        margin = -v[0] - np.linalg.norm(v[1:])
        if margin > 1e-10 * max(1.0, nv):  # interior of -soc: whole block free
            for j in range(sl.start, sl.stop):
                e = np.zeros(m)
                e[j] = 1.0
                cols.append(e)
        else:  # boundary of -soc: free along the ray through lam
            e = np.zeros(m)
            e[sl] = v / nv
            cols.append(e)
    if not cols:
        return lam
    F = np.stack(cols, axis=1)
    mu, *_ = np.linalg.lstsq(JT @ F, -grad_g, rcond=None)
    cand = F @ mu
    if not face.contains(cand[:, None], tol=1e-8)[0]:
        return lam
    old = np.linalg.norm(grad_g + JT @ lam)
    new = np.linalg.norm(grad_g + JT @ cand)
    return cand if new <= old + 1e-12 else lam


# ----------------------------------------------------------------------
# multiplier set
# ----------------------------------------------------------------------

def build_multiplier_set(pd: PointData,
                         witness: Optional[np.ndarray] = None) -> MultiplierSet:
    """Affine parameterization of the multiplier set at a stationary point."""
    if witness is None:
        st = stationarity_check(pd)
        if not st.is_stationary:
            raise EmptyMultiplierSet(
                f"point is not stationary (residual {st.residual:.3e})")
        witness = st.witness
    m = pd.m
    face = pd.face
    if m == 0:
        return MultiplierSet(np.zeros(0), np.zeros((0, 0)), face)

    # equality system: stationarity rows, fixed coordinates, ray complements
    rows = [pd.J.T]
    rhs = [-pd.g.gradient]
    for i in face.fixed:
        e = np.zeros(m)
        e[i] = 1.0
        rows.append(e[None, :])
        rhs.append(np.zeros(1))
    for sl, d in face.rays:
        width = sl.stop - sl.start
        basis = _orthogonal_complement(d)
        block_rows = np.zeros((width - 1, m))
        block_rows[:, sl] = basis.T
        rows.append(block_rows)
        rhs.append(np.zeros(width - 1))
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    lam0 = np.asarray(witness, dtype=float).copy()
    # snap the witness exactly onto the affine set
    corr, *_ = np.linalg.lstsq(A, A @ lam0 - b, rcond=None)
    lam0 = lam0 - corr
    if np.linalg.norm(A @ lam0 - b) > 1e-7 * max(1.0, np.linalg.norm(b)):
        raise EmptyMultiplierSet("stationarity system is inconsistent")

    _, s, vt = np.linalg.svd(A)
    tol = max(1e-12, (s[0] if s.size else 0.0) * 1e-10)
    rank = int(np.sum(s > tol))
    basis = vt[rank:].T  # (m, k)

    if not face.contains(lam0[:, None], tol=1e-7)[0]:
        raise EmptyMultiplierSet("witness violates the cone constraints")
    return MultiplierSet(lam0, basis, face)


def _orthogonal_complement(d: np.ndarray) -> np.ndarray:
    """Orthonormal basis (len(d), len(d)-1) of the complement of span{d}."""
    n = d.shape[0]
    q, _ = np.linalg.qr(np.column_stack([d / np.linalg.norm(d), np.eye(n)]))
    return q[:, 1:n]


# ----------------------------------------------------------------------
# linear maximization over the multiplier set
# ----------------------------------------------------------------------

def maximize_linear(ms: MultiplierSet, c) -> LinMaxResult:
    """Exact maximum of c.lam over the multiplier set.

    One LP loop in the parameters t of lam = lam0 + basis @ t.  The first
    LP holds the face's sign rows and the polyhedral relaxation of each
    block in the polar second-order cone.  A polyhedral set returns after
    it: its argmax is feasible, or its ray recedes.  Otherwise each round
    adds the face's ``NormalFace.cuts``: at an argmax that leaves a soc
    block, or at the unit multiplier direction of a ray that does not
    recede, which the homogeneous cut then removes from the relaxation's
    recession cone.  The loop stops once the argmax is feasible or the
    primal bound gap drops below ``_GAP_TOL``.  k > 0 without soc blocks
    leaves a nonneg or ray coordinate, so the first LP has a row.
    """
    c = np.asarray(c, dtype=float)
    if ms.k == 0:
        return LinMaxResult("bounded", value=float(c @ ms.lam0), argmax=ms.lam0.copy())

    N, lam0 = ms.basis, ms.lam0
    f = c @ N
    A_rows, b_rows, add_row = _first_lp_rows(ms)
    best_feasible = lam0.copy()
    best_value = float(c @ lam0)
    for _ in range(_MAX_CUTS):
        res = solve_lp(f, A_ub=np.array(A_rows), b_ub=np.array(b_rows))
        if res.status == "infeasible":
            # cannot happen for a valid cut set; treat conservatively
            return LinMaxResult("bounded", value=best_value, argmax=best_feasible,
                                cuts_exceeded=True)
        if res.status == "unbounded":
            lam_dir = N @ res.ray
            if _soc_recession_ok(ms, lam_dir):
                return LinMaxResult("unbounded", ray=lam_dir)
            cut_at = lam_dir / np.linalg.norm(lam_dir)
        else:
            cut_at = lam_star = ms.member(res.x)
            ub = float(c @ lam_star)
            if ms.face.soc_violation(lam_star) <= 1e-9:
                return LinMaxResult("bounded", value=ub, argmax=lam_star)
            lam_feas = _shrink_to_feasible(ms, lam0, lam_star)
            lb = float(c @ lam_feas)
            if lb > best_value:
                best_value, best_feasible = lb, lam_feas
            if ub - best_value <= _GAP_TOL * max(1.0, abs(ub)):
                return LinMaxResult("bounded", value=best_value, argmax=best_feasible)
        for a in ms.face.cuts(cut_at, 1e-12):
            add_row(a)
    return LinMaxResult("bounded", value=best_value, argmax=best_feasible,
                        cuts_exceeded=True)


def _first_lp_rows(ms):
    """Rows a.t <= b of maximize_linear's first LP, valid for the whole
    set with t = 0 feasible: the face's sign rows, then the polyhedral
    relaxation of each polar soc block.  Returns the two row lists and
    add_row(a_lam), which appends the row a_lam.lam <= 0, given in
    multiplier coordinates."""
    N, lam0 = ms.basis, ms.lam0
    A_rows = list(-ms.face.inequality_rows(N))
    b_rows = list(ms.face.inequality_rows(lam0))

    def add_row(a_lam: np.ndarray):
        A_rows.append(a_lam @ N)
        b_rows.append(0.0 - float(a_lam @ lam0))  # +0.0 where a_lam.lam0 is 0

    for sl in ms.face.socs:
        # initial relaxation of lam_B in -soc, i.e. of -lam_B in soc
        for a in cones.soc_relaxation(-np.eye(ms.m)[sl]):
            add_row(a)
    return A_rows, b_rows, add_row


def _soc_recession_ok(ms, lam_dir) -> bool:
    scale = max(np.linalg.norm(lam_dir), 1e-30)
    return ms.face.soc_violation(lam_dir / scale) <= _RECESSION_TOL


def _shrink_to_feasible(ms, lam0, lam_star):
    lo, hi = 0.0, 1.0
    if ms.face.soc_violation(lam_star) <= 1e-12:
        return lam_star
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        cand = lam0 + mid * (lam_star - lam0)
        if ms.face.soc_violation(cand) <= 1e-12:
            lo = mid
        else:
            hi = mid
    return lam0 + lo * (lam_star - lam0)


def enumerate_polyhedron(ms: MultiplierSet):
    """Vertices and extreme rays of the polyhedron that
    ``maximize_linear``'s first LP solves over, in t.

    Returns (vertices, rays) as (m, nv) and (m, nr) arrays in multiplier
    coordinates, or None when k > 3 or the polyhedron has no vertex
    (callers then fall back to per-objective LPs).  On a polyhedral set
    the polyhedron is the set, whose maximum of c.lam is max over vertex
    dot products, unbounded iff some ray has positive objective.  With
    soc blocks it is their polyhedral relaxation, which contains the set;
    ``VertexMaximizer`` reads both.
    """
    from itertools import combinations

    if ms.k > 3:
        return None
    k = ms.k
    if k == 0:
        return ms.lam0[:, None], np.zeros((ms.m, 0))

    A_rows, b_rows, _ = _first_lp_rows(ms)
    A = np.array(A_rows).reshape(-1, k)
    b = np.array(b_rows)
    verts: List[np.ndarray] = []
    for subset in combinations(range(A.shape[0]), k):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10 * max(1.0, np.max(np.abs(sub)) ** k):
            continue
        t = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ t <= b + 1e-8):
            if not any(np.linalg.norm(t - v) <= 1e-8 for v in verts):
                verts.append(t)
    if not verts:
        return None
    ray_dirs: List[np.ndarray] = []
    if k == 1:
        for s in (1.0, -1.0):
            r = np.array([s])
            if np.all(A @ r <= 1e-12):
                ray_dirs.append(r)
    else:
        for subset in combinations(range(A.shape[0]), k - 1):
            sub = A[list(subset)]
            _, s, vt = np.linalg.svd(sub)
            null = vt[np.sum(s > 1e-10):]
            for u in null:
                for sgn in (1.0, -1.0):
                    r = sgn * u
                    if np.all(A @ r <= 1e-10):
                        if not any(np.linalg.norm(r - q) <= 1e-8 for q in ray_dirs):
                            ray_dirs.append(r)
    V = ms.lam0[:, None] + ms.basis @ np.stack(verts, axis=1)
    R = ms.basis @ np.stack(ray_dirs, axis=1) if ray_dirs else np.zeros((ms.m, 0))
    return V, R


class VertexMaximizer:
    """``maximize_linear`` for many objectives at once, read off the
    vertices and rays of ``enumerate_polyhedron``.

    A column c is settled as the first LP would settle it: unbounded when
    some ray has objective above 1e-9 (1 + ||c||) and every such ray
    recedes in the set (``_soc_recession_ok``), bounded with the best
    vertex's value when no ray does and that vertex lies in the set (soc
    violation at most 1e-9), which is then the exact maximum because the
    relaxation contains the set.  Any other column needs the cut loop of
    ``maximize_linear``.  On a polyhedral set every column is settled.
    """

    def __init__(self, ms: MultiplierSet, geom):
        self.vertices, self.rays = geom
        self._vertex_in = np.array([ms.face.soc_violation(v) <= 1e-9
                                    for v in self.vertices.T], dtype=bool)
        self._ray_in = np.array([_soc_recession_ok(ms, r) for r in self.rays.T],
                                dtype=bool)

    def __call__(self, C: np.ndarray):
        """Columnwise (values, best, settled) for objectives C (m, N):
        values[j] is +inf when column j is unbounded, else the value of
        vertex best[j]; both are meaningful only where settled[j]."""
        vals = self.vertices.T @ C
        best = np.argmax(vals, axis=0)
        values = vals[best, np.arange(C.shape[1])]
        if not self.rays.shape[1]:
            return values, best, self._vertex_in[best]
        scale = 1.0 + np.linalg.norm(C, axis=0)
        up = self.rays.T @ C > 1e-9 * scale
        unbounded = np.any(up, axis=0)
        recedes = ~np.any(up & ~self._ray_in[:, None], axis=0)
        return (np.where(unbounded, math.inf, values), best,
                np.where(unbounded, recedes, self._vertex_in[best]))
