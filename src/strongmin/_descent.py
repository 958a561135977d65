"""Batched projected penalty descent and Gauss-Newton restoration shared by
the sampling oracles.

One loop, `_descend`, minimizes base(y) + rho * dist^2(q(y); K) over the
sample columns with a per-column adaptive step.  Its two penalties are
`push_to_feasible` (base ||y - x||^2: distance estimation and feasible
sampling) and `minimize_tilted` (base g(y) - v.y inside a ball: the tilt
probe).  `_residual` forms R = q - Pi_K(q) for the stacked blocks; the
descent, the Gauss-Newton restoration and `feasibility_residuals` (also
the cq probe's denominator) all read it.

`_restore` is a damped minimum-norm Gauss-Newton (Ben-Israel 1966) on the
violated part of R alone; both descents end with it, and the growth
oracle runs it first, from the ball samples themselves.  Each column
solves (J J^T + D + 1e-12 I) mu = r and steps by -J^T mu, where
- an orthant row enters, as its Jacobian row and residual, only in the
  columns where its residual is nonzero;
- a soc block whose residual R_b is nonzero enters as the one row
  n_b^T J_b with n_b = R_b / ||R_b|| and right-hand side ||R_b||: a Newton
  step on dist(q_b; K_b);
- a row that does not enter is 0 in J, 1 in D and 0 in r, so its mu is 0;
- a row whose norm lies outside `cones.UNIT_ROW_RANGE` enters scaled to
  unit norm with its right-hand side, so JJ^T does not overflow.
A satisfied row therefore holds nothing in place: parallel active
gradients or a soc vertex leave a solvable system where the full one was
singular.  The m x m systems (m <= the number of rows) are built as one
(m, m, N) array and solved by `_cholesky_solve`: a Cholesky factor, then
forward and back substitution, elementwise over the columns with only
+ - * / and sqrt in a fixed order, so no LAPACK kernel, which would be
picked per CPU, touches the restored points.  A column whose pivot is
not > 0 is refactored with 1e-8 in place of the 1e-12 regularization.
A column takes no step once its residual is <= 1e-13, and keeps a
candidate only where it lowers the residual.  A rejected
candidate halves that column's next step, and an accepted one restores
the full step: a step that fixes one row may violate a nearly active one
by more, and the same step again would be rejected again.

Every reduction over rows -- the residual and step norms, D.D and V.Z,
a soc block's norm and contraction, JJ^T and J^T mu, the ball clip -- is
`cones.column_sum`, a sum in row order from +0.0; everything else,
the Gauss-Newton solve included, is elementwise.  So a column's result does
not depend on the other columns of its batch, whatever the batch's width:
`_restore` steps only the columns still above 1e-13, callers pass only the
columns that need work, and the tilt probe solves the midpoints its
bisection may reach in one batch and takes each visited tilt's minimizer
to be the one a call of its own gives.

A residual or Gauss-Newton row norm whose sum of squares overflows is
recomputed by `cones.column_norm` for that column alone.  The penalty
dist^2 has no such repair: both descents leave a start whose squared
residual is not a float to the restoration, and a candidate that steps
that far enters dist^2 with its residual entries capped at
`_PENALTY_CAP`, so its penalty stays a float and it is rejected.
"""

from __future__ import annotations

import functools

import numpy as np

from . import cones
from .cones import column_norm, column_sum
from .problem import (Problem, batch_constraint_grads, batch_constraint_values,
                      batch_objective_values)

__all__ = ["push_to_feasible", "feasibility_residuals", "minimize_tilted"]


def _residual(p: Problem, Q: np.ndarray) -> np.ndarray:
    """q - Pi_K(q) for the stacked block values Q (m, N), block by block."""
    R = np.empty_like(Q)
    for b, sl in zip(p.blocks, p.block_slices):
        R[sl] = Q[sl] - cones.project(b.cone, Q[sl])
    return R


def feasibility_residuals(p: Problem, Y: np.ndarray) -> np.ndarray:
    """Columnwise distance of q(y) to the cone product."""
    return column_norm(_residual(p, batch_constraint_values(p, Y)))


def _penalty(R: np.ndarray, out: np.ndarray) -> None:
    """The penalty rows from the cone residual R (m, N): out[:-1], which
    holds G = J^T R, becomes the gradient 2 G of dist^2(q(y); cones), and
    out[-1] becomes dist^2 = ||R||^2, columnwise, with each |R| capped at
    `_PENALTY_CAP`."""
    out[:-1] *= 2.0
    R = np.minimum(np.abs(R), _PENALTY_CAP)
    out[-1] = column_sum(R * R)


def _filled(fill, Y: np.ndarray):
    """The descent state at the columns of Y (y, then the rows fill writes
    at y) and fill's cone residual R."""
    n = Y.shape[0]
    state = np.empty((3 * n + 2, Y.shape[1]))
    state[:n] = Y
    return state, fill(state[n:], state[:n])


# The step factors of a rejected and of an accepted candidate.
_STEP_FACTORS = np.array([0.5, 1.2])
# push_to_feasible: descent iterations, initial penalty and the iterations
# between penalty doublings; minimize_tilted: the same three
_PUSH_ITERS, _PUSH_RHO0, _PUSH_RHO_DOUBLING = 200, 10.0, 16
_TILT_ITERS, _TILT_RHO0, _TILT_RHO_DOUBLING = 300, 100.0, 20
_RESTORE_ITERS = 20  # Gauss-Newton restoration steps after either descent
_RESTORE_TOL = 1e-13  # residual at which a column takes no further GN step
_KEEP_TOL = 1e-9  # largest residual of a pushed sample that counts as feasible
_FMAX = np.finfo(float).max
_SQRT_FMAX = np.sqrt(_FMAX)  # the largest residual whose square is a float
# A residual entry above this enters dist^2 at this size: dist^2 and rho *
# dist^2 stay floats for up to 2^40 rows and rho up to 2^40, and a
# candidate that far out is rejected.  Entries below it keep their bits
_PENALTY_CAP = _SQRT_FMAX / 2.0 ** 40


def _improves(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """new < old, with ±inf in new read as ±_FMAX and NaN as no improvement:
    the booleans of ``np.nan_to_num(new, nan=np.inf) < old`` for every
    input (a NaN stays NaN through the clamp and compares False), at a
    quarter to a half of its cost."""
    return np.minimum(np.maximum(new, -_FMAX), _FMAX) < old


def _select(kept: np.ndarray, new: np.ndarray, mask: np.ndarray) -> None:
    """kept = new, in place, in the columns where the int64 ``mask`` is -1
    (all bits set; 0 elsewhere): a branch-free select of the float bits.
    A masked np.copyto or np.where branches per element and costs five to
    seven times as much on the descent's mixed accept masks."""
    k = kept.view(np.int64)
    diff = np.bitwise_xor(k, new.view(np.int64))
    diff &= mask
    k ^= diff


def _descend(fill, state, steps, rho, iters, rho_doubling, clip=None):
    """Columnwise adaptive-step descent on base(y) + rho * d2(y) from the
    state `_filled` gives; returns the final y.

    fill(out, Z) writes base, base_grad (n rows), d2_grad (n rows) and d2
    at the columns of Z into the rows of out, in that order.  Each column
    steps along its normalized gradient; an improving candidate is
    accepted and grows the step by 1.2, otherwise the step halves.  rho
    doubles every `rho_doubling` iterations, and `clip`, if given, maps
    each candidate back into the admissible set.  y and fill's rows are
    row blocks of one state array: one select per step.
    """
    n = (state.shape[0] - 2) // 3
    cand = np.empty(state.shape)
    y, base, base_grad = state[:n], state[n], state[n + 1:2 * n + 1]
    d2_grad, d2 = state[2 * n + 1:3 * n + 1], state[3 * n + 1]
    for it in range(iters):
        if it and it % rho_doubling == 0:
            rho *= 2.0
        grad = base_grad + rho * d2_grad
        gn = np.sqrt(column_sum(grad * grad))
        gn = np.where(gn > 1e-14, gn, 1.0)
        Z = y - steps * grad / gn
        cand[:n] = Z if clip is None else clip(Z)
        fill(cand[n:], cand[:n])
        better = _improves(cand[n] + rho * cand[3 * n + 1], base + rho * d2)
        _select(state, cand, -better.astype(np.int64))
        steps *= _STEP_FACTORS.take(better.view(np.int8))
    return y


def push_to_feasible(p: Problem, X: np.ndarray):
    """Pull every column of X toward the nearest feasible point.

    Returns (Y, residuals).  The distance ||Y - X|| is an upper estimate of
    the true distance to the feasible set; final feasibility residuals are
    driven to ~1e-12 by a Gauss-Newton restoration whenever possible.  A
    column's initial step is 0.05 * max(1, max_i |x_i|).  A column whose
    residual at X exceeds sqrt(max float) has no float penalty: the descent
    leaves it at X, and only the restoration moves it.
    """
    Y = X.copy()
    cols = np.flatnonzero(~(feasibility_residuals(p, X) > _SQRT_FMAX))
    X = X.take(cols, axis=1)
    n = X.shape[0]
    residual = functools.partial(_residual, p)

    def fill(out, Z):
        D = Z - X
        out[0] = column_sum(D * D)
        np.multiply(2.0, D, out=out[1:n + 1])
        R = p.row_stack.pullback(Z, residual, out[n + 1:2 * n + 1])[0]
        _penalty(R, out[n + 1:])
        return R

    steps = 0.05 * np.maximum(1.0, np.max(np.abs(X), axis=0))
    Y[:, cols] = _descend(fill, _filled(fill, X)[0], steps, _PUSH_RHO0, _PUSH_ITERS,
                          _PUSH_RHO_DOUBLING)
    return _restore(p, Y, _RESTORE_ITERS)


def _violated_rows(p: Problem, q: np.ndarray, jacs: np.ndarray):
    """The Gauss-Newton rows (m, n, N), right-hand sides (m, N) and idle
    flags (m, N) of the violated part of the cone residual at q."""
    R = _residual(p, q)
    J = np.zeros_like(jacs)
    rhs = np.zeros_like(R)
    idle = np.ones_like(R)
    for b, sl in zip(p.blocks, p.block_slices):
        if b.cone.kind == "orthant":
            on = R[sl] != 0.0
            J[sl] = np.where(on[:, None], jacs[sl], 0.0)
            rhs[sl] = R[sl]
            idle[sl] = ~on
        else:
            norm = column_norm(R[sl])
            on = norm != 0.0
            nb = R[sl] / np.where(on, norm, 1.0)
            J[sl.start] = np.where(on, column_sum(nb[:, None] * jacs[sl]), 0.0)
            rhs[sl.start] = norm
            idle[sl.start] = ~on
    # a row far from unit norm is scaled to it with its right-hand side, as
    # sosc scales the ADMM rows: the minimum-norm step is the same, and JJ^T
    # neither overflows nor loses the row to the 1e-12 regularization
    lo, hi = cones.UNIT_ROW_RANGE
    for row, r in zip(J, rhs):
        norm = column_norm(row)
        far = (norm > 0.0) & ((norm < lo) | (norm > hi))
        if far.any():
            scale = np.where(far, norm, 1.0)
            row /= scale
            r /= scale
    return J, rhs, idle


def _cholesky_solve(A: np.ndarray, b: np.ndarray):
    """x with A x = b for each column of A (m, m, N) and b (m, N), A
    symmetric and read from its lower triangle alone: the Cholesky factor
    L of A = L L^T, then forward and back substitution, elementwise over
    the columns with + - * / and sqrt in a fixed order, so a column's x
    does not depend on its batch or on the machine.  Returns (x,
    factored); a column whose pivot is not > 0 is not factored and its x
    is NaN.  Non-finite inputs give non-finite x, which the Gauss-Newton
    step reads as no step, as it read LAPACK's.
    """
    m = b.shape[0]
    L = np.empty_like(A)
    factored = np.ones(b.shape[1], dtype=bool)
    x = np.empty_like(b)
    with np.errstate(all="ignore"):
        for j in range(m):
            for i in range(j, m):
                s = A[i, j]
                for k in range(j):
                    s = s - L[i, k] * L[j, k]
                if i == j:
                    pivot = s > 0.0
                    factored &= pivot
                    L[j, j] = np.sqrt(np.where(pivot, s, np.nan))
                else:
                    L[i, j] = s / L[j, j]
        for i in range(m):
            s = b[i]
            for k in range(i):
                s = s - L[i, k] * x[k]
            x[i] = s / L[i, i]
        for i in reversed(range(m)):
            s = x[i]
            for k in range(i + 1, m):
                s = s - L[k, i] * x[k]
            x[i] = s / L[i, i]
    return x, factored


def _gauss_newton_step(p: Problem, Z: np.ndarray) -> np.ndarray:
    """The minimum-norm Gauss-Newton step J^T mu at the columns of Z, mu
    solving (J J^T + D + 1e-12 I) mu = r (see the module docstring), with
    non-finite entries read as by np.nan_to_num."""
    diag = np.arange(p.m)
    J, rhs, idle = _violated_rows(p, *batch_constraint_grads(p, Z))
    A = np.empty((p.m, p.m, Z.shape[1]))  # J J^T, its lower triangle
    for i in range(p.m):
        for j in range(i + 1):
            A[i, j] = column_sum(J[i] * J[j])
    A[diag, diag] += idle
    ridged = A[diag, diag]  # the diagonal of J J^T + D, a copy
    A[diag, diag] += 1e-12
    mu, factored = _cholesky_solve(A, rhs)
    if not factored.all():
        # regularize more only the columns whose pivot is not > 0
        bad = np.flatnonzero(~factored)
        A = A[:, :, bad]
        A[diag, diag] = ridged[:, bad] + 1e-8
        mu[:, bad] = _cholesky_solve(A, rhs[:, bad])[0]
    return np.nan_to_num(column_sum(J * mu[:, None, :]))


def _restore(p: Problem, Y: np.ndarray, iters: int):
    """Damped minimum-norm Gauss-Newton on the violated part of the cone
    residual of q(y) (see the module docstring), in place on Y.

    A column takes no step once its residual is <= 1e-13, keeps a
    candidate only where it lowers the residual, and halves its step after
    each rejected one.  Returns (Y, residuals), the residuals bit for bit
    those `feasibility_residuals` gives at Y.
    """
    res = feasibility_residuals(p, Y)
    scale = np.ones(Y.shape[1])
    for _ in range(iters):
        cols = np.flatnonzero(res > _RESTORE_TOL)
        if not cols.size:
            break
        Z = Y.take(cols, axis=1)
        cand = Z - scale[cols] * _gauss_newton_step(p, Z)
        res_c = feasibility_residuals(p, cand)
        better = _improves(res_c, res[cols])
        Y[:, cols[better]] = cand[:, better]
        res[cols[better]] = res_c[better]
        scale[cols] = np.where(better, 1.0, 0.5 * scale[cols])
    return Y, res


def minimize_tilted(p: Problem, V: np.ndarray, starts: np.ndarray,
                    center: np.ndarray, ball_radius: float):
    """Columnwise minimization of g(y) - v.y over the feasible set ∩ ball.

    V (n, N) holds one tilt per column, starts (n, N) the initial points.
    Returns (Y, objective values, feasibility residuals).  A start whose
    residual exceeds sqrt(max float) skips the descent for the restoration.
    """
    n = V.shape[0]
    residual = functools.partial(_residual, p)

    def tilted(Vt):
        def fill(out, Z):
            # the objective's value and gradient and the rows' pullback
            # come from one program
            R = p.row_stack.objective_pullback(Z, residual, out)
            out[0] -= column_sum(Vt * Z)
            out[1:n + 1] -= Vt
            _penalty(R, out[n + 1:])
            return R
        return fill

    def clip(Z):
        diff = Z - center[:, None]
        nrm = np.sqrt(column_sum(diff * diff))
        factor = np.where(nrm > ball_radius,
                          ball_radius / np.where(nrm > 0, nrm, 1.0), 1.0)
        return center[:, None] + diff * factor

    # a start whose residual exceeds sqrt(max float) is left to the
    # restoration, as in push_to_feasible; its residual is read off the
    # descent's first fill
    Y = clip(starts)
    state, R = _filled(tilted(V), Y)
    cols = np.flatnonzero(~(column_norm(R) > _SQRT_FMAX))
    steps = np.full(cols.size, 0.05 * max(ball_radius, 1e-6))
    Y[:, cols] = _descend(tilted(V[:, cols]), state.take(cols, axis=1), steps,
                          _TILT_RHO0, _TILT_ITERS, _TILT_RHO_DOUBLING, clip)
    if p.blocks:
        Y = clip(_restore(p, Y, _RESTORE_ITERS)[0])
    gfinal = batch_objective_values(p, Y) - column_sum(V * Y)
    return Y, gfinal, feasibility_residuals(p, Y)
