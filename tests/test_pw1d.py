import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (reference_delta_profile, reference_qgc_per_radius,
                      reference_second_subderivative_per_tau,
                      tangent_direction_test)
from strongmin import pw1d

ALPHA = [1.0 / math.factorial(n + 1) for n in range(20)]
EVEN_PW = "pw1d\nbreakpoints: 1\npiece 0: 0 1 0\npiece 1: 1 0 0\neven: true\n"
# upper level to the right: value at the breakpoint is the lower limit
JUMP_PW = "pw1d\nbreakpoints: 0\npiece 0: 0 0 0\npiece 1: 1 0 0\n"


@pytest.fixture(scope="module")
def f31():
    return pw1d.example31()


@pytest.fixture(scope="module")
def f33():
    return pw1d.example33()


@pytest.fixture(scope="module")
def sq():
    return pw1d.loads("pw1d\nbreakpoints:\npiece 0: 0 0 1\n")


class TestProxSubdifferential:
    def test_staircase_breakpoint_interval(self, f31):
        for n in range(1, 8):
            iv = f31.prox_subdiff(ALPHA[n])
            assert iv is not None
            assert abs(iv[0] - ALPHA[n + 1]) <= 1e-15
            assert abs(iv[1] - ALPHA[n]) <= 1e-15

    def test_staircase_origin_is_zero(self, f31):
        assert f31.prox_subdiff(0.0) == (0.0, 0.0)

    def test_smooth_piece(self, sq):
        iv = sq.prox_subdiff(0.7)
        assert iv == (1.4, 1.4)

    def test_odd_symmetry(self, f31):
        iv = f31.prox_subdiff(-ALPHA[3])
        assert abs(iv[0] + ALPHA[3]) <= 1e-15
        assert abs(iv[1] + ALPHA[4]) <= 1e-15

    def test_concave_kink_empty(self, f33):
        assert f33.prox_subdiff(3.0 / 8.0) is None

    def test_convex_kink_full(self, f33):
        assert f33.prox_subdiff(0.5) == (0.0, 2.0)

    def test_dyadic_origin_interval(self, f33):
        assert f33.prox_subdiff(0.0) == (-1.0, 1.0)

    def test_monotone_on_convex_instance(self, f31):
        rng = np.random.default_rng(0)
        pts = np.sort(rng.uniform(-0.9, 0.9, size=60))
        for x, y in zip(pts[:-1], pts[1:]):
            if x == y:
                continue
            a = f31.prox_subdiff(x)
            b = f31.prox_subdiff(y)
            assert a is not None and b is not None
            assert a[1] <= b[0] + 1e-12


class TestTangentDirections:
    def test_flat_direction_accepted(self, f31):
        assert tangent_direction_test(f31, 0.0, 0.0, 1.0, 0.0)

    def test_steep_direction_rejected(self, f31):
        assert not tangent_direction_test(f31, 0.0, 0.0, 1.0, 2.0)

    def test_cone_boundary_accepted(self, f31):
        assert tangent_direction_test(f31, 0.0, 0.0, 1.0, 1.0)
        assert tangent_direction_test(f31, 0.0, 0.0, -1.0, -1.0)

    def test_wrong_sign_rejected(self, f31):
        assert not tangent_direction_test(f31, 0.0, 0.0, 1.0, -1.0)

    def test_dyadic_flat_direction(self, f33):
        assert tangent_direction_test(f33, 0.0, 0.0, 1.0, 0.0)

    def test_smooth_graph_slope(self, sq):
        assert tangent_direction_test(sq, 0.0, 0.0, 1.0, 2.0)
        assert not tangent_direction_test(sq, 0.0, 0.0, 1.0, 1.0)

    def test_scale_consistency(self, sq, f31):
        for f, pairs in ((sq, [(1.0, 2.0), (1.0, 1.0)]),
                         (f31, [(1.0, 0.0), (1.0, 2.0), (1.0, 0.5)])):
            for w, z in pairs:
                base = tangent_direction_test(f, 0.0, 0.0, w, z)
                for a in (0.5, 2.0):
                    assert tangent_direction_test(f, 0.0, 0.0,
                                                  a * w, a * z) == base

    def test_bad_base_subgradient_raises(self, sq):
        with pytest.raises(ValueError):
            tangent_direction_test(sq, 0.0, 1.0, 1.0, 0.0)


class TestConditions:
    def test_staircase_refutation_profile(self, f31):
        rep = pw1d.check_conditions(f31, 0.0)
        assert not rep.pd_lower_bound
        assert not rep.pd_strict
        assert rep.second_kind
        assert 0.9 <= rep.second_kind_kappa <= 1.1

    def test_dyadic_profile(self, f33):
        rep = pw1d.check_conditions(f33, 0.0)
        assert not rep.pd_lower_bound
        assert not rep.pd_strict
        assert (1.0, 0.0) in rep.accepted

    def test_smooth_square(self, sq):
        rep = pw1d.check_conditions(sq, 0.0)
        assert rep.pd_lower_bound and rep.pd_strict and rep.second_kind
        assert abs(rep.min_ratio - 2.0) <= 1e-9
        assert abs(rep.second_kind_kappa - 2.0) <= 1e-9


class TestQgc:
    def test_staircase_fails_with_slow_decay(self, f31):
        est = pw1d.estimate_qgc_1d(f31, 0.0)
        assert est.verdict == "Fails"
        for v, n in zip(est.per_radius, range(3, 9)):
            target = 1.0 / (n + 2)
            assert abs(v - target) <= 0.25 * target

    def test_dyadic_holds_with_modulus_two(self, f33):
        est = pw1d.estimate_qgc_1d(f33, 0.0)
        assert est.verdict == "Holds"
        assert est.kappa_hat >= 1.999

    def test_square_exact(self, sq):
        est = pw1d.estimate_qgc_1d(sq, 0.0)
        assert est.verdict == "Holds"
        assert est.kappa_hat == 2.0

    def test_off_center_base_point(self, sq):
        est = pw1d.estimate_qgc_1d(sq, 2.0, radii=(0.5, 0.125))
        # f(x) - f(2) = x^2 - 4 has no growth at a nonstationary point
        assert est.verdict == "Fails"


class TestSecondSubderivative:
    def test_square(self, sq):
        r = pw1d.second_subderivative(sq, 0.0, 0.0, 1.0)
        assert abs(r.value - 2.0) <= 1e-4
        assert r.trend == "stable"

    def test_dyadic_schedule_minimum(self, f33):
        r = pw1d.second_subderivative(f33, 0.0, 0.0, 1.0)
        assert 1.99 <= r.value <= 4.01

    def test_staircase_decays_to_zero(self, f31):
        r = pw1d.second_subderivative(f31, 0.0, 0.0, 1.0)
        assert r.trend == "decreasing"
        assert -1e-9 <= r.value <= 0.15


class TestHomogeneityLemma:
    def test_quadratic_pairing_identity(self):
        # h(w) = c w^2 has dh = {2 c w} and z.w = 2 h(w) exactly
        for c in (0.5, 1.0, 3.0):
            h = pw1d.loads(f"pw1d\nbreakpoints:\npiece 0: 0 0 {c}\n")
            rng = np.random.default_rng(1)
            for w in rng.uniform(-2, 2, size=20):
                iv = h.prox_subdiff(float(w))
                z = iv[0]
                assert iv[0] == iv[1]
                assert abs(z * w - 2.0 * h.value(float(w))) <= 1e-12


class TestConsistencyConvexPiecewiseQuadratic:
    # growth and the strict slope condition must agree on convex
    # piecewise-quadratic instances, with the reported ratio within a
    # factor of two of the empirical modulus
    CASES = [
        "pw1d\nbreakpoints:\npiece 0: 0 0 1\n",                      # x^2
        "pw1d\nbreakpoints: 0\npiece 0: 0 -1 1\npiece 1: 0 1 1\n",   # |x| + x^2
        "pw1d\nbreakpoints: 0\npiece 0: 0 0 0.5\npiece 1: 0 0 2\n",  # split quad
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_agreement(self, text):
        f = pw1d.loads(text)
        rep = pw1d.check_conditions(f, 0.0)
        est = pw1d.estimate_qgc_1d(f, 0.0, radii=(0.5, 0.125, 0.03125))
        assert est.verdict == "Holds"
        assert rep.pd_strict  # no accepted pair with z.w <= 0 on these
        if rep.accepted and np.isfinite(rep.min_ratio):
            ratio = rep.min_ratio
            assert ratio <= est.kappa_hat * 2.0 + 1e-9
            assert est.kappa_hat <= ratio * 2.0 + 1e-9


class TestFormat:
    def test_header_required(self):
        with pytest.raises(pw1d.Pw1dFormatError):
            pw1d.loads("breakpoints:\npiece 0: 0 0 1\n")

    def test_piece_count_must_match(self):
        with pytest.raises(pw1d.Pw1dFormatError):
            pw1d.loads("pw1d\nbreakpoints: 1\npiece 0: 0 0 1\n")

    def test_even_expansion(self):
        f = pw1d.loads(EVEN_PW)
        assert f.value(0.5) == 0.5
        assert f.value(-0.5) == 0.5
        assert f.value(2.0) == 1.0
        assert f.prox_subdiff(0.0) == (-1.0, 1.0)

    def test_generator_params(self):
        f = pw1d.loads("pw1d\ngenerator: binary-staircase 3 2\n")
        assert f.value(1.0 / 3.0) == 1.0 / 3.0
        assert f.prox_subdiff(0.0) == (-1.0, 1.0)

    def test_lsc_rule_at_jump(self):
        f = pw1d.loads(JUMP_PW)
        assert f.value(0.0) == 0.0

    def test_pieces_must_be_nonempty_and_contiguous(self):
        inf = math.inf
        for pieces in ([],
                       [pw1d.Piece(-inf, 0.0, 0, 0, 1), pw1d.Piece(1.0, inf, 0, 0, 1)],
                       [pw1d.Piece(-inf, 0.0, 0, 0, 1), pw1d.Piece(0.0, 0.0, 0, 0, 1),
                        pw1d.Piece(0.0, inf, 0, 0, 1)]):
            with pytest.raises(ValueError):
                pw1d.Piecewise1D(pieces)


def _scan(f, x):
    """(value, prox_subdiff) of f at x by a linear scan over its pieces."""
    acc = f.accumulation
    if acc is not None and x == acc[0]:
        return f.offset, acc[1]
    for p in f.pieces:
        if p.lo < x < p.hi:
            return f.offset + p.val(x), (p.slope(x), p.slope(x))
    left = next((p for p in f.pieces if p.hi == x), None)
    right = next((p for p in f.pieces if p.lo == x), None)
    v = min(p.val(x) for p in (left, right) if p is not None)
    tiny = 1e-14 * max(1.0, abs(v))
    lo = left.slope(x) if left is not None and left.val(x) <= v + tiny else -math.inf
    hi = right.slope(x) if right is not None and right.val(x) <= v + tiny else math.inf
    return f.offset + v, (None if lo > hi else (lo, hi))


class TestLookup:
    @pytest.mark.parametrize("make", [
        pw1d.example31, pw1d.example33,
        lambda: pw1d.binary_staircase(3.0, 2.0),
        lambda: pw1d.binary_staircase(1.5, 1.2),
        lambda: pw1d.loads(EVEN_PW), lambda: pw1d.loads(JUMP_PW),
    ], ids=["example31", "example33", "staircase(3,2)", "staircase(1.5,1.2)",
            "even", "jump"])
    def test_agrees_with_linear_scan(self, make):
        f = make()
        rng = np.random.default_rng(0)
        xs = [0.0]
        for b in f.breakpoints:
            xs += [b, np.nextafter(b, -math.inf), np.nextafter(b, math.inf)]
        xs += list(rng.uniform(-2.0, 2.0, size=100))
        xs += list(rng.choice([-1.0, 1.0], size=100)
                   * 10.0 ** rng.uniform(-12.0, 0.0, size=100))
        for x in map(float, xs):
            value, iv = _scan(f, x)
            assert f.value(x) == value, x
            assert f.prox_subdiff(x) == iv, x

    def test_diff_near_a_deep_point_is_exact(self, f31):
        # f31 stores f minus its minimum; two nearby values of f itself
        # would cancel that offset away
        def exact(x):
            p = next(p for p in f31.pieces if p.lo < x < p.hi)
            X = Fraction(x)
            return Fraction(p.a) + Fraction(p.b) * X + Fraction(p.c) * X * X

        xbar = 0.001
        for k in range(4, 13):
            x = xbar + 10.0 ** -k
            want = exact(x) - exact(xbar)
            assert abs(Fraction(f31.diff(x, xbar)) - want) <= abs(want) / 10**6, k


GRAPH_FUNCTIONS = {
    "example31": pw1d.example31,
    "example33": pw1d.example33,
    "staircase(3,2)": lambda: pw1d.binary_staircase(3.0, 2.0),
    "staircase(1.5,1.2)": lambda: pw1d.binary_staircase(1.5, 1.2),
    "even": lambda: pw1d.loads(EVEN_PW),
    "jump": lambda: pw1d.loads(JUMP_PW),
    # stored value 0 at the accumulation point, where both pieces give 1
    "accumulation": lambda: pw1d.Piecewise1D(
        [pw1d.Piece(-math.inf, -1.0, 0.0, -2.0, 0.0),
         pw1d.Piece(-1.0, 0.0, 1.0, -1.0, 0.5),
         pw1d.Piece(0.0, 1.0, 1.0, 2.0, -0.25),
         pw1d.Piece(1.0, math.inf, 2.5, 0.0, 0.25)],
        accumulation=(0.0, (-1.0, 2.0))),
}


def _assert_repeats_the_reference(f, xbar, vbar=0.0, radii=None):
    """Distance profiles, growth and quotient minima at xbar have the bytes
    of the per-window and per-point loops."""
    zs = np.array(sorted(set(pw1d._Z_GRID.tolist()) | {0.5, 2.0}))
    for w in (1.0, -1.0):
        got = pw1d._delta_profile(f, xbar, vbar, w, zs)
        want = reference_delta_profile(f, xbar, vbar, w, zs)
        assert got.tobytes() == want.tobytes(), (xbar, w)
        got = pw1d._quotient_minima(f, xbar, vbar, w)
        want = reference_second_subderivative_per_tau(f, xbar, vbar, w)
        assert got.tobytes() == np.array(want).tobytes(), (xbar, w)
    radii = f.radii if radii is None else radii
    est = pw1d.estimate_qgc_1d(f, xbar, radii=radii)
    per_radius, counts = reference_qgc_per_radius(f, xbar, radii)
    assert np.array(est.per_radius).tobytes() == np.array(per_radius).tobytes(), xbar
    assert est.sample_counts == est.kept_counts == tuple(counts), xbar


class TestArrayPasses:
    @pytest.mark.parametrize("name", list(GRAPH_FUNCTIONS))
    def test_repeats_the_reference(self, name):
        f = GRAPH_FUNCTIONS[name]()
        bps = f.breakpoints
        # 0.25 - 0.25 and 0.1 - 0.1 reach 0 from the growth and quotient grids
        points = [0.0, 0.1, 0.25, 0.3, -0.7, bps[len(bps) // 3], bps[-1] + 0.25]
        for xbar in points:
            _assert_repeats_the_reference(f, xbar)
        iv = f.prox_subdiff(0.3)
        _assert_repeats_the_reference(f, 0.3, vbar=iv[0], radii=(0.5, 1e-3))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeats_the_reference_with_jumps(self, data):
        # quarter-integer coefficients: neighbouring pieces often disagree at
        # their breakpoint, which makes some subdifferentials empty
        quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
        bps = sorted(data.draw(st.sets(quarters, min_size=1, max_size=6)))
        edges = [-math.inf] + bps + [math.inf]
        pieces = [pw1d.Piece(lo, hi, data.draw(quarters), data.draw(quarters),
                             data.draw(quarters))
                  for lo, hi in zip(edges, edges[1:])]
        f = pw1d.Piecewise1D(pieces)
        xbar = data.draw(st.sampled_from(bps) | quarters
                         | st.floats(-3.0, 3.0, allow_subnormal=False))
        _assert_repeats_the_reference(f, xbar)

    def test_profile_past_a_finite_end(self):
        # windows that end before the pieces start or start after they end
        # hold fewer segments, or none
        f = pw1d.Piecewise1D([pw1d.Piece(-1.0, 0.0, 0.0, -1.0, 0.5),
                              pw1d.Piece(0.0, 1.0, 0.25, 1.0, 0.0)])
        for xbar in (-1.5, 1.05, 2.0, 30.0):
            for w in (1.0, -1.0):
                got = pw1d._delta_profile(f, xbar, 0.0, w, pw1d._Z_GRID)
                want = reference_delta_profile(f, xbar, 0.0, w, pw1d._Z_GRID)
                assert got.tobytes() == want.tobytes(), (xbar, w)
        with pytest.raises(ValueError, match="outside the represented domain"):
            pw1d.estimate_qgc_1d(f, 0.5)

    def test_sample_counts_are_the_distinct_points(self):
        # the geometric grid on both sides plus the breakpoints in range,
        # not 2 * _QGC_GRID
        assert pw1d.estimate_qgc_1d(pw1d.example33(), 0.0).sample_counts == (1116,) * 3
        est = pw1d.estimate_qgc_1d(pw1d.loads("pw1d\nbreakpoints:\npiece 0: 0 0 1\n"), 0.0)
        assert est.sample_counts == est.kept_counts == (2 * pw1d._QGC_GRID,) * 3

    def test_graph_of_a_copy_is_its_own(self):
        f33, f22 = pw1d.example33(), pw1d.binary_staircase(2.0, 2.0)
        for key in ("lo", "hi", "a", "b", "c", "breakpoints",
                    "vert_x", "vert_v0", "vert_v1"):
            assert (getattr(f33._graph, key).tobytes()
                    == getattr(f22._graph, key).tobytes()), key
        other = pw1d.binary_staircase(3.0, 2.0)
        g = replace(f22, pieces=other.pieces)
        assert g._graph is not f22._graph
        assert g._graph.lo.tobytes() == other._graph.lo.tobytes()
