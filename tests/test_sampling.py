import tracemalloc

import numpy as np
import pytest

from strongmin._sampling import _primes, halton, sphere

FIRST_15_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def halton_fixed_primes(dim, count, seed=0):
    """Reference: the Halton generator with its bases from a fixed table."""
    start = 20 + (seed % 1_000_003) * 17
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((dim, count))
    for d in range(dim):
        base = FIRST_15_PRIMES[d]
        x = np.zeros(count)
        denom = 1.0
        i = idx.copy()
        while np.any(i > 0):
            denom *= base
            x += (i % base) / denom
            i //= base
        out[d] = x
    return out


def digit_loop_halton(dim, count, seed=0):
    """Reference: the Halton generator as a plain loop over all digits."""
    start = 20 + seed * 17
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((dim, count))
    for d, base in enumerate(_primes(dim)):
        x = np.zeros(count)
        denom = 1.0
        i = idx.copy()
        while np.any(i > 0):
            denom *= base
            x += (i % base) / denom
            i //= base
        out[d] = x
    return out


def radical_inverse(i, base):
    x, scale = 0.0, 1.0 / base
    while i:
        x += (i % base) * scale
        i //= base
        scale /= base
    return x


@pytest.mark.parametrize("seed", (0, 1, 7, 123456))
def test_halton_bytes_unchanged_up_to_15_dims(seed):
    for dim in range(1, 16):
        assert (halton(dim, 257, seed=seed).tobytes()
                == halton_fixed_primes(dim, 257, seed=seed).tobytes())


def test_seeds_do_not_alias():
    # a seed only shifts the start index, by 17 per unit, with no wraparound
    assert not np.array_equal(halton(3, 1000, seed=1_000_003), halton(3, 1000, seed=0))
    H = halton(3, 4, seed=2 ** 32 - 1)
    start = 20 + (2 ** 32 - 1) * 17
    assert np.allclose(H[:, 0], [radical_inverse(start, b) for b in (2, 3, 5)],
                       rtol=0, atol=1e-15)


def test_twenty_dimensions():
    H = halton(20, 500, seed=3)
    assert H.shape == (20, 500)
    assert np.all(np.isfinite(H)) and np.all((H >= 0.0) & (H < 1.0))
    # coordinates 16-20 use the bases 53, 59, 61, 67, 71; seed 3 starts at
    # index 20 + 3 * 17 = 71
    assert np.allclose(H[15:, 0], [radical_inverse(71, b)
                                   for b in (53, 59, 61, 67, 71)], rtol=0, atol=1e-15)
    S = sphere(20, 500, seed=3)
    assert S.shape == (20, 500)
    assert np.all(np.isfinite(S))
    assert np.allclose(np.linalg.norm(S, axis=0), 1.0)


# the digit tables hold base**K <= max(count, base) entries: counts at and
# around a power of 2, 3 and 7 change K for the coordinates of those bases
TABLE_EDGES = tuple(b ** k + e for b, k in ((2, 14), (3, 9), (7, 5)) for e in (-1, 0, 1))


@pytest.mark.parametrize("seed", (0, 1, 7, 101, 123456, 2 ** 32 - 1))
def test_halton_bytes_equal_the_digit_loop(seed):
    # coordinate d is computed alone in both, so the reference's first dim
    # rows at dim 20 are its rows at dim; dim 20 covers every base
    for count in (0, 1, 2, 7, 257, 20000, 20001) + TABLE_EDGES:
        ref = digit_loop_halton(20, count, seed=seed)
        for dim in range(1, 21) if count <= 257 else (1, 2, 3, 4, 20):
            assert halton(dim, count, seed=seed).tobytes() == ref[:dim].tobytes(), (dim, count)


def test_digit_tables_are_sized_by_the_count():
    # the largest seed starts near index 7.3e10: a table sized by the
    # index would take gigabytes
    tracemalloc.start()
    try:
        halton(3, 4, seed=2 ** 32 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
