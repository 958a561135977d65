"""Deterministic low-discrepancy sampling helpers.

Halton sequences drive every sampling stage; a seed only offsets the
starting index, so results are reproducible and independent of worker
count by construction.  Each coordinate reads its lowest digits from a
table of partial radical inverses sized by the point count, and a digit
loop adds the rest: the points are bit for bit those of a plain loop over
all digits.
"""

from __future__ import annotations

import numpy as np


def _primes(count: int) -> list:
    """The first count primes, by trial division."""
    out: list = []
    cand = 2
    while len(out) < count:
        if all(cand % p for p in out if p * p <= cand):
            out.append(cand)
        cand += 1
    return out


def _digit_table(base: int, digits: int):
    """(table, denom): the radical-inverse partial sums of the lowest
    ``digits`` digits of every lo < base**digits, and base**digits.  Each
    sum is formed as the digit loop forms it: digit k of lo adds
    (digit k) / base**(k+1) onto the sum of the lower digits, with
    base**(k+1) by repeated multiplication."""
    table = np.zeros(1)
    denom = 1.0
    for _ in range(digits):
        denom *= base
        # entry d * base**k + lo is the sum at lo plus d / denom
        table = (table[None, :] + (np.arange(base) / denom)[:, None]).ravel()
    return table, denom


def halton(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Halton points in [0,1)^dim, shape (dim, count); coordinate d uses the
    (d+1)-th prime as its base.

    The radical inverse of index i (Halton 1960) sums its base-b digits
    d_k / b**(k+1), lowest first.  The lowest K digits come from a table of
    base**K <= max(count, base) entries indexed by i % base**K, and a digit
    loop adds the rest; both add in the same order, so every point has the
    bits of the plain digit loop.  The table is sized by count, never by
    the start index."""
    start = 20 + seed * 17
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((dim, count))
    for d, base in enumerate(_primes(dim)):
        digits, width = 1, base
        while width * base <= count:
            digits, width = digits + 1, width * base
        table, denom = _digit_table(base, digits)
        x = table[idx % width]
        i = idx // width
        while np.any(i > 0):
            denom *= base
            x += (i % base) / denom
            i //= base
        out[d] = x
    return out


def gaussians(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic standard normals via Halton + Box-Muller, shape (dim, count)."""
    pairs = (dim + 1) // 2
    u = halton(2 * pairs, count, seed=seed)
    u1 = np.clip(u[:pairs], 1e-12, 1.0)
    u2 = u[pairs:2 * pairs]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)], axis=0)
    return z[:dim]


def sphere(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points on the unit sphere, shape (dim, count)."""
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[None, :]
    z = gaussians(dim, count, seed=seed)
    norms = np.linalg.norm(z, axis=0)
    norms = np.where(norms > 1e-12, norms, 1.0)
    return z / norms


def signed_axes(dim: int) -> np.ndarray:
    """The signed unit axes [e1, -e1, e2, -e2, ...], shape (dim, 2 dim),
    with +0.0 off the axes."""
    out = np.zeros((dim, 2 * dim))
    i = np.arange(dim)
    out[i, 2 * i] = 1.0
    out[i, 2 * i + 1] = -1.0
    return out


def ball(center, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the closed ball, shape (dim, count)."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    dirs = sphere(dim, count, seed=seed)
    u = halton(1, count, seed=seed + 101)[0]
    radii = radius * u ** (1.0 / dim)
    return center[:, None] + dirs * radii[None, :]
