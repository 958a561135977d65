"""Geometry of constraint cones: nonpositive orthant and second-order cone.

Supplies Euclidean projection, the polyhedral outer relaxation of soc,
normal/tangent cone tests at a point, the local smooth-reduction data (h,
its Jacobian and Hessians) that feeds the curvature correction of the
second-order machinery, and the normal-cone face of a product of blocks
that holds the multipliers.
Conventions: the orthant block is the NONPOSITIVE orthant {y : y <= 0};
the second-order cone soc(m) is {y : y_1 >= ||(y_2..y_m)||} with the first
coordinate on the axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Cone",
    "orthant",
    "soc",
    "Reduction",
    "NormalFace",
    "project",
    "distance",
    "soc_relaxation",
    "normal_cone_test",
    "tangent_cone_test",
    "reduction_at",
    "normal_face",
    "project_normal",
    "MEMBERSHIP_TOL",
]

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Cone:
    kind: str  # "orthant" | "soc"
    m: int

    def __post_init__(self):
        if self.kind not in ("orthant", "soc"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("cone dimension must be positive")
        if self.kind == "soc" and self.m < 2:
            raise ValueError("second-order cone needs dimension >= 2")


def orthant(m: int) -> Cone:
    return Cone("orthant", m)


def soc(m: int) -> Cone:
    return Cone("soc", m)


def project(k: Cone, Y) -> np.ndarray:
    """Euclidean projection onto the cone of a vector (m,) or of the columns
    of an (m, N) array (total on finite inputs).

    A soc column (t, ybar) outside the cone and its polar maps to
    alpha (1, ybar / r) with r = ||ybar|| and alpha = (t + r) / 2; columns
    in the cone (the vertex included) are copied, and the other polar
    columns become +0.0.  r sums its squares in row order, so a column of a
    batch and the same vector alone project bit for bit alike.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[0] != k.m:
        raise ValueError(f"expected {k.m} rows, got shape {Y.shape}")
    if k.kind == "orthant":
        return np.minimum(Y, 0.0)
    t = Y[0]
    sq = Y[1] * Y[1]
    for row in Y[2:]:
        sq = sq + row * row
    r = np.sqrt(sq)
    inside = t >= r
    polar = t <= -r
    alpha = (t + r) / 2.0
    out = np.empty_like(Y)
    out[0] = np.where(inside, t, np.where(polar, 0.0, alpha))
    out[1:] = np.where(inside, Y[1:], np.where(
        polar, 0.0, alpha / np.where(r > 0, r, 1.0) * Y[1:]))
    return out


def distance(k: Cone, y) -> float:
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(y - project(k, y)))


def soc_relaxation(B: np.ndarray) -> np.ndarray:
    """Rows R with R w <= 0 whenever B w lies in soc(m).

    The polyhedral outer relaxation (Bw)_1 >= |(Bw)_i| of the cone, as the
    rows [-B_1, -(B_1 + B_i), -(B_1 - B_i), ...] for i = 2..m.
    """
    B = np.asarray(B, dtype=float)
    R = np.empty((2 * B.shape[0] - 1, B.shape[1]))
    R[0] = -B[0]
    R[1::2] = -(B[0] + B[1:])
    R[2::2] = B[1:] - B[0]  # -(B_1 - B_i), with +0.0 where the two agree
    return R


def normal_cone_test(k: Cone, y, v, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff v lies in the normal cone to the cone at y, within tol.

    Orthant: v >= 0 with v_i = 0 on rows where y_i < 0.  Soc: {0} at
    interior points, the polar cone -soc(m) at the vertex, and the single
    ray spanned by (-1, ybar/||ybar||) at nonzero boundary points.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if distance(k, y) > tol:
        raise ValueError("base point is outside the cone beyond tolerance")
    if k.kind == "orthant":
        if np.any(v < -tol):
            return False
        inactive = y < -tol
        return bool(np.all(np.abs(v[inactive]) <= tol))
    position = _soc_position(y, tol)
    if position == "vertex":  # v in -soc(m)
        return -v[0] >= float(np.linalg.norm(v[1:])) - tol
    if position == "interior":
        return float(np.linalg.norm(v)) <= tol
    d = _boundary_ray(y)
    mu = float(v @ d) / float(d @ d)
    return mu >= -tol and float(np.linalg.norm(v - mu * d)) <= tol


def tangent_cone_test(k: Cone, y, w, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff w lies in the tangent cone to the cone at y, within tol."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if k.kind == "orthant":
        active = np.abs(y) <= tol
        return bool(np.all(w[active] <= tol))
    position = _soc_position(y, tol)
    if position == "vertex":
        return w[0] >= float(np.linalg.norm(w[1:])) - tol
    if position == "interior":
        return True
    return float(_boundary_ray(y) @ w) <= tol


def project_normal(k: Cone, y, v) -> np.ndarray:
    """Projection of v onto the normal cone at y (y assumed in the cone)."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if k.kind == "orthant":
        out = np.maximum(v, 0.0)
        out[y < -MEMBERSHIP_TOL] = 0.0
        return out
    position = _soc_position(y, MEMBERSHIP_TOL)
    if position == "vertex":
        return -project(k, -v)
    if position == "interior":
        return np.zeros_like(v)
    d = _boundary_ray(y)
    mu = max(float(v @ d) / float(d @ d), 0.0)
    return mu * d


def _soc_position(y: np.ndarray, tol: float) -> str:
    """Where y sits in soc(m): "vertex", "interior" or "boundary", within tol."""
    t, r = y[0], float(np.linalg.norm(y[1:]))
    if r <= tol and abs(t) <= tol:
        return "vertex"
    if t > r + tol:
        return "interior"
    return "boundary"


def _boundary_ray(y: np.ndarray) -> np.ndarray:
    """Generator (-1, ybar/||ybar||) of the normal ray at a soc boundary point."""
    r = float(np.linalg.norm(y[1:]))
    d = np.empty_like(y)
    d[0] = -1.0
    d[1:] = y[1:] / r
    return d


@dataclass(frozen=True)
class Reduction:
    """Local description of the cone near a point as h^{-1}(C).

    case is one of "inactive", "affine" (orthant, h = coordinate selection),
    "soc_vertex" (h = identity, C the cone itself) and "soc_boundary"
    (h(y) = ||ybar|| - y_1, C = R_-, the only case with curvature).  The
    value-level accessors return h, its Jacobian (ell x m) and the stack of
    component Hessians (ell x m x m) at a query point.  ``scale`` rescales
    h by a positive constant; any scale yields an equally valid reduction,
    which downstream code exploits as an invariance check.  On
    "soc_boundary", ``ray`` is the generator (-1, ybar/||ybar||) of the
    normal cone at the classified point.
    """

    case: str
    cone: Cone
    active: tuple = ()
    scale: float = 1.0
    ray: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def ell(self) -> int:
        if self.case == "inactive":
            return 0
        if self.case == "affine":
            return len(self.active)
        if self.case == "soc_vertex":
            return self.cone.m
        return 1

    def h(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.case == "inactive":
            return np.zeros(0)
        if self.case == "affine":
            return self.scale * y[list(self.active)]
        if self.case == "soc_vertex":
            return self.scale * y
        return self.scale * np.array([float(np.linalg.norm(y[1:])) - y[0]])

    def grad_h(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        m = self.cone.m
        if self.case == "inactive":
            return np.zeros((0, m))
        if self.case == "affine":
            J = np.zeros((len(self.active), m))
            for row, idx in enumerate(self.active):
                J[row, idx] = self.scale
            return J
        if self.case == "soc_vertex":
            return self.scale * np.eye(m)
        r = float(np.linalg.norm(y[1:]))
        J = np.empty((1, m))
        J[0, 0] = -self.scale
        J[0, 1:] = self.scale * y[1:] / r
        return J

    def hess_h(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        m = self.cone.m
        if self.case != "soc_boundary":
            return np.zeros((self.ell, m, m))
        ybar = y[1:]
        r = float(np.linalg.norm(ybar))
        H = np.zeros((1, m, m))
        block = (np.eye(m - 1) - np.outer(ybar, ybar) / (r * r)) / r
        H[0, 1:, 1:] = self.scale * block
        return H


def reduction_at(k: Cone, y, tol: float = 1e-8) -> Reduction:
    """Classify the point and return the canonical reduction there.

    Orthant points with no active rows and soc interior points are
    Inactive.  The base-point identities h(y) = 0 and surjectivity of the
    Jacobian hold by construction for every returned case.
    """
    y = np.asarray(y, dtype=float)
    if distance(k, y) > tol:
        raise ValueError("point is outside the cone beyond tolerance")
    if k.kind == "orthant":
        active = tuple(int(i) for i in np.flatnonzero(np.abs(y) <= tol))
        if not active:
            return Reduction("inactive", k)
        return Reduction("affine", k, active=active)
    position = _soc_position(y, tol)
    if position == "vertex":
        return Reduction("soc_vertex", k)
    if position == "interior":
        return Reduction("inactive", k)
    return Reduction("soc_boundary", k, ray=_boundary_ray(y))


@dataclass(frozen=True)
class NormalFace:
    """The normal cone N_Θ(q(x̄)) of a block product, in stacked coordinates.

    nonneg: coordinates with lam_i >= 0 (active orthant rows); fixed:
    coordinates held at zero (inactive orthant rows and soc interiors), in
    block order; rays: (block slice, d) with lam_B = mu d, mu >= 0, at soc
    boundary points; socs: block slices constrained to -soc(m) at soc
    vertices.
    """

    nonneg: np.ndarray
    fixed: np.ndarray
    rays: Tuple[Tuple[slice, np.ndarray], ...]
    socs: Tuple[slice, ...]

    def project(self, lam: np.ndarray) -> np.ndarray:
        """Euclidean projection of a stacked multiplier onto the face."""
        out = lam.copy()
        if self.fixed.size:
            out[self.fixed] = 0.0
        if self.nonneg.size:
            out[self.nonneg] = np.maximum(out[self.nonneg], 0.0)
        for sl, d in self.rays:
            mu = max(float(out[sl] @ d) / float(d @ d), 0.0)
            out[sl] = mu * d
        for sl in self.socs:
            out[sl] = -project(soc(sl.stop - sl.start), -out[sl])
        return out

    def inequality_rows(self, X: np.ndarray) -> np.ndarray:
        """The face's sign rows of X (rows in stacked coordinates), in
        coordinate order: X[i] for each nonneg coordinate i and d @ X[sl]
        for each ray block (sl, d)."""
        keyed = [(int(i), X[i]) for i in self.nonneg]
        keyed += [(sl.start, d @ X[sl]) for sl, d in self.rays]
        keyed.sort(key=lambda item: item[0])
        return np.array([row for _, row in keyed]).reshape(
            (len(keyed),) + X.shape[1:])

    def contains(self, L: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Columnwise membership of L (m, N) in the face, within tol.

        Each fixed coordinate must satisfy |lam_i| <= tol on its own.
        """
        ok = np.ones(L.shape[1], dtype=bool)
        if self.nonneg.size:
            ok &= np.all(L[self.nonneg] >= -tol, axis=0)
        if self.fixed.size:
            ok &= np.all(np.abs(L[self.fixed]) <= tol, axis=0)
        for sl, d in self.rays:
            mu = (d @ L[sl]) / float(d @ d)
            ok &= mu >= -tol
            ok &= np.linalg.norm(L[sl] - np.outer(d, mu), axis=0) <= tol
        for sl in self.socs:
            V = L[sl]
            ok &= -V[0] >= np.linalg.norm(V[1:], axis=0) - tol
        return ok


def normal_face(reductions: Sequence[Reduction]) -> NormalFace:
    """The normal-cone face of the block product, from per-block reductions."""
    nonneg, fixed, rays, socs = [], [], [], []
    start = 0
    for red in reductions:
        m = red.cone.m
        sl = slice(start, start + m)
        if red.case == "affine":
            active = set(red.active)
            for j in range(m):
                (nonneg if j in active else fixed).append(start + j)
        elif red.case == "soc_vertex":
            socs.append(sl)
        elif red.case == "soc_boundary":
            rays.append((sl, red.ray))
        else:  # inactive
            fixed.extend(range(start, start + m))
        start += m
    return NormalFace(np.array(nonneg, dtype=int), np.array(fixed, dtype=int),
                      tuple(rays), tuple(socs))
