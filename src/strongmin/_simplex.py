"""Dense two-phase primal simplex for the tiny LPs used across the package.

Standard form: minimize c.x subject to A x = b, x >= 0, solved with
Bland's rule (anti-cycling).  A convenience wrapper accepts inequality
rows, equality rows, and free variables (split into differences).  All
problems here have a handful of variables, so one dense tableau is pivoted
in place, with no factorization or sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LpResult", "solve_lp"]

_EPS = 1e-10
_MAX_ITER = 20000  # pivots per phase


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: Optional[np.ndarray] = None        # optimal point (original variables)
    value: Optional[float] = None         # optimal objective (max sense of wrapper)
    ray: Optional[np.ndarray] = None      # recession direction when unbounded


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau on T[row, col] in place: one rank-one update."""
    piv = T[row] / T[row, col]
    T -= np.outer(T[:, col], piv)
    T[row] = piv


def _price(T: np.ndarray, c: np.ndarray, basis) -> None:
    """Write the reduced costs of c for the current basis into the last row."""
    m = len(basis)
    T[m] = np.append(c, 0.0) - c[basis] @ T[:m]


def _iterate(T: np.ndarray, basis, ncols: int):
    """Bland-rule pivots among the first ncols columns until optimal or
    unbounded.  Returns the status and, when unbounded, the entering column."""
    m = len(basis)
    for _ in range(_MAX_ITER):
        eligible = T[m, :ncols] < -1e-9
        eligible[[j for j in basis if j < ncols]] = False
        candidates = np.flatnonzero(eligible)  # Bland: smallest eligible index
        if not candidates.size:
            return "optimal", None
        entering = int(candidates[0])
        d, xb = T[:m, entering], T[:m, -1]
        pos = d > _EPS
        if not np.any(pos):
            return "unbounded", entering
        ratios = np.where(pos, np.maximum(xb, 0.0) / np.where(pos, d, 1.0), np.inf)
        best = np.min(ratios)
        leave = -1
        for row in range(m):  # Bland on ties: smallest basis index
            if pos[row] and ratios[row] <= best + _EPS:
                if leave < 0 or basis[row] < basis[leave]:
                    leave = row
        basis[leave] = entering
        _pivot(T, leave, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def _basic_point(T: np.ndarray, basis, width: int) -> np.ndarray:
    x = np.zeros(width)
    x[basis] = T[:len(basis), -1]
    return x


def _simplex_core(c, A, b):
    """min c.x, Ax=b, x>=0 with b>=0. Returns (status, x, ray).

    The tableau T holds B^-1 [A | I | b] in its first m rows and the reduced
    costs in its last row; phase 1 starts from the artificial basis B = I.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    _price(T, cost1, basis)
    status, _ = _iterate(T, basis, n + m)
    if status != "optimal" or float(cost1 @ _basic_point(T, basis, n + m)) > 1e-7:
        return "infeasible", None, None
    # drive artificials out of the basis where a real pivot exists
    for row, bi in enumerate(basis):
        if bi >= n:
            piv = np.flatnonzero(np.abs(T[row, :n]) > 1e-8)
            if piv.size:
                basis[row] = int(piv[0])
                _pivot(T, row, basis[row])
    _price(T, np.concatenate([c, np.zeros(m)]), basis)
    status, entering = _iterate(T, basis, n)
    x = _basic_point(T, basis, n + m)[:n]
    if status == "unbounded":
        ray = np.zeros(n + m)
        ray[entering] = 1.0
        ray[basis] = -T[:m, entering]
        return "unbounded", x, ray[:n]
    return status, x, None


def solve_lp(objective, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpResult:
    """Maximize objective.x subject to A_ub x <= b_ub and A_eq x = b_eq.

    Variables are free; a sign bound is a row of A_ub.  Returns status
    optimal / unbounded (with a recession ray) / infeasible.
    """
    f = np.asarray(objective, dtype=float)
    nvar = f.shape[0]
    A_ub = np.zeros((0, nvar)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    A_eq = np.zeros((0, nvar)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))

    # free variables: x = u - v with u, v >= 0
    n_slack = A_ub.shape[0]
    A = np.vstack([
        np.hstack([A_ub, -A_ub, np.eye(n_slack)]),
        np.hstack([A_eq, -A_eq, np.zeros((A_eq.shape[0], n_slack))]),
    ])
    b = np.concatenate([b_ub, b_eq])
    cost = np.concatenate([-f, f, np.zeros(n_slack)])
    to_x = lambda z: z[:nvar] - z[nvar:2 * nvar]
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    status, z, ray = _simplex_core(cost, A, b)
    if status == "infeasible":
        return LpResult("infeasible")
    if status == "unbounded":
        return LpResult("unbounded", x=to_x(z), ray=to_x(ray))
    x = to_x(z)
    return LpResult("optimal", x=x, value=float(f @ x))
