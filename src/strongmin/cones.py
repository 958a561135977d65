"""Geometry of constraint cones: nonpositive orthant and second-order cone.

Supplies Euclidean projection, the polyhedral outer relaxation of soc,
and the normal-cone face of a product of blocks that holds the
multipliers.  ``normal_face`` classifies each block at its value once;
the ray it keeps at a soc boundary point is the gradient of the local
reduction whose curvature the second-order machinery reads.
Conventions: the orthant block is the NONPOSITIVE orthant {y : y <= 0};
the second-order cone soc(m) is {y : y_1 >= ||(y_2..y_m)||} with the first
coordinate on the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "Cone",
    "orthant",
    "soc",
    "NormalFace",
    "project",
    "column_sum",
    "column_norm",
    "distance",
    "soc_relaxation",
    "normal_face",
    "MEMBERSHIP_TOL",
    "UNIT_ROW_RANGE",
]

MEMBERSHIP_TOL = 1e-9
# A row of norm s keeps its scale in a regularized system (I + M^T M in
# ADMM, J J^T + 1e-12 I in Gauss-Newton) when eps <= s^2 <= 1/eps, where the
# identity neither vanishes beside s^2 nor swamps it; outside, it is scaled
# to unit norm
UNIT_ROW_RANGE = (math.sqrt(np.finfo(float).eps), 1.0 / math.sqrt(np.finfo(float).eps))


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


def project(k: Cone, Y, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean projection onto the cone of a vector (m,) or of the columns
    of an (m, N) array (total on finite inputs), into ``out`` when given.

    A soc column (t, ybar) outside the cone and its polar maps to
    alpha (1, ybar / r) with r = ||ybar|| and alpha = (t + r) / 2; columns
    in the cone (the vertex included) are copied, and the other polar
    columns become +0.0.  r sums its squares by ``column_sum``, so a column
    of a batch and the same vector alone project bit for bit alike.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[0] != k.m:
        raise ValueError(f"expected {k.m} rows, got shape {Y.shape}")
    if k.kind == "orthant":
        return np.minimum(Y, 0.0, out=out)
    t = Y[0]
    r = np.sqrt(column_sum(Y[1:] * Y[1:]))
    inside = t >= r
    polar = t <= -r
    alpha = (t + r) / 2.0
    if out is None:
        out = np.empty_like(Y)
    out[0] = np.where(inside, t, np.where(polar, 0.0, alpha))
    out[1:] = np.where(inside, Y[1:], np.where(
        polar, 0.0, alpha / np.where(r > 0, r, 1.0) * Y[1:]))
    return out


def column_sum(A: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """A[0] + A[1] + ... from +0.0 in row order, into ``out`` when given
    (then A may be any sequence of rows): the bits numpy's add.reduce
    gives a wide batch, also for a column alone (which numpy would sum
    pairwise from 8 rows on)."""
    if out is None:
        out = np.zeros(A.shape[1:])
    else:
        out.fill(0.0)
    for row in A:
        out += row
    return out


def column_norm(A: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each column, sqrt(column_sum(A * A)).

    Where that sum of squares overflows, np.hypot.reduce, which scales and
    does not overflow, recomputes the norm of those columns alone, so every
    column whose plain norm is finite keeps its bits."""
    with np.errstate(over="ignore"):  # the overflowed columns are recomputed
        norm = np.sqrt(column_sum(A * A))
    big = np.isinf(norm)
    if big.any():
        norm[big] = np.hypot.reduce(A[:, big], axis=0)
    return norm


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


def normal_face(blocks: Iterable[Tuple[Cone, np.ndarray]],
                tol: float) -> NormalFace:
    """The normal-cone face of the block product at the block values.

    blocks holds one (cone, y) pair per block, y in the cone.  An orthant
    row with |y_i| <= tol is active (nonneg), any other row is fixed.  A
    soc block with |y_1| and r = ||ybar|| both at most tol is a vertex
    (socs), one with y_1 > r + tol is interior (fixed), and any other is a
    boundary point whose ray d = (-1, ybar/r) is the gradient of the
    reduction h(y) = ||ybar|| - y_1, the only piece with curvature.
    """
    nonneg, fixed, rays, socs = [], [], [], []
    start = 0
    for k, y in blocks:
        y = np.asarray(y, dtype=float)
        sl = slice(start, start + k.m)
        coords = np.arange(sl.start, sl.stop)
        start += k.m
        if k.kind == "orthant":
            active = np.abs(y) <= tol
            nonneg.extend(coords[active])
            fixed.extend(coords[~active])
            continue
        r = float(np.linalg.norm(y[1:]))
        if r <= tol and abs(y[0]) <= tol:
            socs.append(sl)
        elif y[0] > r + tol:
            fixed.extend(coords)
        else:
            d = np.empty_like(y)
            d[0] = -1.0
            d[1:] = y[1:] / r
            rays.append((sl, d))
    return NormalFace(np.array(nonneg, dtype=int), np.array(fixed, dtype=int),
                      tuple(rays), tuple(socs))
