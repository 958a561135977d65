import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (reference_delta_profile, reference_graph_groups,
                      reference_graph_segments, reference_qgc_per_radius,
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

    def test_accept_profile_decides_every_column_alone(self):
        def accept_column(deltas):
            # one column at a time, NaN minima failing the decay branch
            if deltas[-1] <= pw1d._TANGENT_TOL:
                return True
            return bool(float(np.min(deltas)) <= 0.15
                        and np.all(deltas[1:] <= deltas[:-1] * 1.3)
                        and deltas[0] >= 2.0 * deltas[-1])

        rng = np.random.default_rng(3)
        profile = np.exp(rng.uniform(-9.0, 2.0, (6, 400)))
        profile[:, ::3].sort(axis=0)
        profile[::-1, 1::3].sort(axis=0)
        profile[rng.random(profile.shape) < 0.02] = np.nan
        profile[-1, ::7] = 1e-4
        got = pw1d._accept_profile(profile)
        want = [accept_column(profile[:, j]) for j in range(profile.shape[1])]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

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


def _assert_graph_repeats(f):
    """The graph's vertical segments and groups have the bytes of the
    per-breakpoint loop."""
    for key, want in reference_graph_groups(f).items():
        assert getattr(f._graph, key).tobytes() == want.tobytes(), key


def _assert_repeats_the_reference(f, xbar, vbar=0.0, radii=None):
    """Distance profiles, growth and quotient minima at xbar have the bytes
    of the per-window and per-point loops."""
    _assert_graph_repeats(f)
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


def _assert_profile_repeats(f, xbar, vbar=0.0, zs=None):
    """Distance profiles at xbar have the bytes of the per-window loop."""
    _assert_graph_repeats(f)
    if zs is None:
        zs = np.array(sorted(set(pw1d._Z_GRID.tolist()) | {0.5, 2.0}))
    for w in (1.0, -1.0):
        got = pw1d._delta_profile(f, xbar, vbar, w, zs)
        want = reference_delta_profile(f, xbar, vbar, w, zs)
        assert got.tobytes() == want.tobytes(), (xbar, vbar, w)


# scales whose windows hold whole pieces and many vertical segments
WIDE_SCALES = (2.0, 1.0, 0.5, 0.25, 0.1, 0.01)


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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeats_the_reference_with_flat_pieces(self, data):
        # c = 0 on about half the pieces, and slopes from a few quarters with
        # -0.0 among them, so that separable rows share their (v0, v1) groups
        quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
        slopes = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | quarters
        bps = sorted(data.draw(st.sets(quarters, min_size=1, max_size=8)))
        edges = [-math.inf] + bps + [math.inf]
        pieces = [pw1d.Piece(lo, hi, data.draw(quarters), data.draw(slopes),
                             data.draw(quarters) if data.draw(st.booleans()) else 0.0)
                  for lo, hi in zip(edges, edges[1:])]
        f = pw1d.Piecewise1D(pieces, scales=WIDE_SCALES)
        xbar = data.draw(st.sampled_from(bps) | quarters
                         | st.floats(-3.0, 3.0, allow_subnormal=False))
        _assert_profile_repeats(f, xbar, data.draw(st.sampled_from([0.0, -0.5, 1.0])))

    def test_signed_zero_slopes_share_a_group(self):
        f = pw1d.Piecewise1D([pw1d.Piece(-math.inf, -0.5, 0.5, -1.0, 0.0),
                              pw1d.Piece(-0.5, -0.25, 0.0, -0.0, 0.0),
                              pw1d.Piece(-0.25, 0.0, 0.0, 0.0, -0.0),
                              pw1d.Piece(0.0, 0.25, 0.0, -0.0, -0.0),
                              pw1d.Piece(0.25, math.inf, -0.25, 1.0, 0.0)],
                             scales=WIDE_SCALES)
        g = f._graph
        # the flat pieces and the zero intervals at -0.25 and 0 (signed zeros
        # of both kinds) are one group
        zero = {int(k) for k in g.piece_group[1:4]} | {int(k) for k in g.vert_group[1:3]}
        assert len(zero) == 1 and g.group_v1[g.vert_group[0]] == 0.0
        for xbar in (-0.5, -0.3, -0.25, -0.1, 0.0, 0.1, 0.25, 0.4):
            _assert_profile_repeats(f, xbar)

    def test_capped_verticals_beside_uncapped_ones(self):
        # jumps up at -1 and 2 (intervals (0, _VCAP)), a jump down at 1
        # ((-_VCAP, 0)) and a convex kink at 0 ((0, 2))
        f = pw1d.Piecewise1D([pw1d.Piece(-math.inf, -1.0, 0.0, 0.0, 0.0),
                              pw1d.Piece(-1.0, 0.0, 1.0, 0.0, 0.0),
                              pw1d.Piece(0.0, 1.0, 1.0, 2.0, 0.0),
                              pw1d.Piece(1.0, 2.0, 0.0, 0.0, 0.0),
                              pw1d.Piece(2.0, math.inf, 1.0, 0.0, 0.0)],
                             scales=WIDE_SCALES)
        g = f._graph
        assert g.group_v0[g.vert_group].tolist() == [0.0, 0.0, -pw1d._VCAP, 0.0]
        assert g.group_v1[g.vert_group].tolist() == [pw1d._VCAP, 2.0, 0.0, pw1d._VCAP]
        assert g.vert_group[0] == g.vert_group[3]
        assert len(set(g.vert_group.tolist())) == 3
        for xbar in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            for vbar in (0.0, 1.0, -3.0):
                _assert_profile_repeats(f, xbar, vbar)

    def test_accumulation_and_breakpoint_share_a_group(self):
        # the accumulation interval at 0 is the interval of the convex kink
        # at 2, and the breakpoint at 3 between two equal pieces has the
        # interval (1, 1) of the affine pieces of slope 1
        f = pw1d.Piecewise1D([pw1d.Piece(-math.inf, 0.0, 0.0, -1.0, 0.0),
                              pw1d.Piece(0.0, 1.0, 0.0, 1.0, 0.0),
                              pw1d.Piece(1.0, 2.0, 2.0, -1.0, 0.0),
                              pw1d.Piece(2.0, 3.0, -2.0, 1.0, 0.0),
                              pw1d.Piece(3.0, math.inf, -2.0, 1.0, 0.0)],
                             accumulation=(0.0, (-1.0, 1.0)), scales=WIDE_SCALES)
        g = f._graph
        assert g.vert_x.tolist() == [0.0, 2.0, 3.0]
        assert g.vert_group[0] == g.vert_group[1]
        assert g.vert_group[2] == g.piece_group[1] == g.piece_group[3]
        assert len(g.group_v0) == 3
        for xbar in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5):
            _assert_profile_repeats(f, xbar)
        _assert_repeats_the_reference(f, 0.0)

    def test_distinct_slopes_give_one_row_per_group(self):
        # a convex piecewise affine function with slopes -3, ..., 3
        bps = [-1.25, -0.75, -0.25, 0.25, 0.75, 1.25]
        edges = [-math.inf] + bps + [math.inf]
        a = [0.0]
        for i, x in enumerate(bps):
            a.append(a[-1] + ((i - 3) - (i - 2)) * x)
        f = pw1d.Piecewise1D([pw1d.Piece(lo, hi, a[i], float(i - 3), 0.0)
                              for i, (lo, hi) in enumerate(zip(edges, edges[1:]))],
                             scales=WIDE_SCALES)
        g = f._graph
        assert len(g.group_v0) == g.size == 13
        for xbar in (-1.25, -0.5, 0.0, 0.25, 0.6, 1.25, 2.0):
            for vbar in (0.0, 0.5):
                _assert_profile_repeats(f, xbar, vbar)

    def test_forty_pieces_share_two_slopes(self):
        # a continuous sawtooth of slopes -1 and 1 on pieces of width 1/32:
        # every valley is the vertical (-1, 1), every peak has no subgradient
        bps = [(k - 19) / 32.0 for k in range(39)]
        edges = [-math.inf] + bps + [math.inf]
        pieces, a = [], 0.0
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            b = -1.0 if i % 2 == 0 else 1.0
            if i:
                a += -2.0 * b * lo  # continuous at lo, where the slope flips
            pieces.append(pw1d.Piece(lo, hi, a, b, 0.0))
        f = pw1d.Piecewise1D(pieces, scales=WIDE_SCALES)
        g = f._graph
        assert len(pieces) == 40 and len(g.vert_x) == 20
        assert sorted(zip(g.group_v0.tolist(), g.group_v1.tolist())) == [
            (-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)]
        for xbar in (bps[0], bps[10], bps[11], 0.0, 0.01, bps[-1], 1.0):
            _assert_profile_repeats(f, xbar)

    def test_quadratic_and_affine_pieces_in_one_window(self):
        f = pw1d.Piecewise1D([pw1d.Piece(-math.inf, -0.5, 0.0, -1.0, 0.0),
                              pw1d.Piece(-0.5, 0.0, 0.0, 0.0, 1.0),
                              pw1d.Piece(0.0, 0.25, 0.0, 0.0, 0.0),
                              pw1d.Piece(0.25, 0.5, 0.0625, -0.5, 1.0),
                              pw1d.Piece(0.5, math.inf, 0.25, 0.5, 0.0)],
                             scales=WIDE_SCALES)
        assert (f._graph.piece_group < 0).tolist() == [False, True, False, True, False]
        for xbar in (-0.5, -0.25, 0.0, 0.125, 0.25, 0.4, 0.5):
            for vbar in (0.0, 0.25):
                _assert_profile_repeats(f, xbar, vbar)

    def test_window_of_a_vertical_segment_only(self):
        # at t = 1/16 and w = -1 the window is [1, 2.5]: the last piece ends
        # at its left end, where the accumulation point stands
        f = pw1d.Piecewise1D([pw1d.Piece(-1.0, 0.0, 0.0, -1.0, 0.0),
                              pw1d.Piece(0.0, 1.0, 0.0, 1.0, 0.0)],
                             accumulation=(1.0, (-1.0, 2.0)), scales=(0.0625,))
        assert reference_graph_segments(f, 1.0, 2.5) == [((1.0, -1.0), (1.0, 2.0))]
        for vbar in (0.0, 1.0, 5.0):
            _assert_profile_repeats(f, 1.8125, vbar)

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

    def test_windows_past_a_finite_end_leave_their_scales_empty(self):
        # pieces end at 1 and 2 on either side: past the end the small
        # windows hold no segment, so their scales stay at inf, while the
        # wide ones reach back onto the pieces
        f = pw1d.Piecewise1D([pw1d.Piece(-1.0, 0.0, 0.0, -1.0, 0.5),
                              pw1d.Piece(0.0, 1.0, 0.0, 1.0, 0.0),
                              pw1d.Piece(1.0, 2.0, 1.0, 0.0, 0.25)],
                             scales=WIDE_SCALES)
        for xbar in (-1.25, 2.25, 2.5, 4.0):
            for w in (1.0, -1.0):
                got = pw1d._delta_profile(f, xbar, 0.0, w, pw1d._Z_GRID)
                assert np.isinf(got[-1]).all() and np.isfinite(got[0]).all()
        for xbar in (-1.25, 2.25, 2.5, 4.0):
            for vbar in (0.0, 0.5):
                _assert_profile_repeats(f, xbar, vbar)

    def test_windows_of_vertical_segments_only(self):
        # an accumulation point a quarter past the last piece: the three
        # small windows around it hold its vertical segment alone, the wide
        # ones the pieces too
        f = pw1d.Piecewise1D([pw1d.Piece(-1.0, 0.0, 0.0, -1.0, 0.0),
                              pw1d.Piece(0.0, 0.25, 0.0, 1.0, 1.0)],
                             accumulation=(0.5, (-1.0, 2.0)),
                             scales=(0.1, 0.05, 0.02, 0.01, 0.001))
        assert reference_graph_segments(f, 0.25, 0.75) == [((0.5, -1.0), (0.5, 2.0))]
        for vbar in (0.0, 1.0, 2.0, 5.0):
            _assert_profile_repeats(f, 0.5, vbar)

    def test_long_quadratic_file_runs_in_chunks(self):
        # x^2 cut into 401 pieces by 400 breakpoints in (-0.1, 0.1): the
        # windows of a profile hold 2859 segments against a graph of 801,
        # so both the quadratic rows and the key rows run in several chunks
        bps = [-0.1 + 0.2 * k / 401 for k in range(1, 401)]
        f = pw1d.loads("pw1d\nbreakpoints: " + " ".join(map(repr, bps)) + "\n"
                       + "".join(f"piece {i}: 0 0 1\n" for i in range(401)))
        g = f._graph
        assert g.size == 801 and not (g.piece_group >= 0).any()
        rows = sum(len(reference_graph_segments(f, t - 12.0 * t, t + 12.0 * t))
                   for t in f.scales)
        assert rows == 2859
        # off centre, vbar = f'(xbar), and a quarter-slope vbar beside it
        for xbar, vbar in ((0.0, 0.0), (0.05, 0.1), (-0.0995, -0.199), (0.02, 0.25)):
            _assert_profile_repeats(f, xbar, vbar)

    def test_nan_and_infinite_slope_columns(self):
        zs = np.array([-4.0, np.nan, -0.5, 0.0, np.inf, 1.0, -np.inf, 3.0])
        fs = [GRAPH_FUNCTIONS[name]() for name in ("example31", "accumulation")]
        fs.append(pw1d.loads("pw1d\nbreakpoints:\npiece 0: 0 0 1\n"))
        for f in fs:
            for xbar in (0.0, 0.3):
                with np.errstate(invalid="ignore", over="ignore"):
                    _assert_profile_repeats(f, xbar, 0.0, zs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeats_the_reference_with_curved_pieces(self, data):
        # c != 0 on about three pieces in four, so quadratic rows and
        # separable rows share the windows
        quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
        curved = st.integers(-8, 8).filter(bool).map(lambda k: k / 4.0)
        bps = sorted(data.draw(st.sets(quarters, min_size=1, max_size=10)))
        edges = [-math.inf] + bps + [math.inf]
        pieces = [pw1d.Piece(lo, hi, data.draw(quarters), data.draw(quarters),
                             data.draw(st.sampled_from([0.0]) | curved | curved | curved))
                  for lo, hi in zip(edges, edges[1:])]
        f = pw1d.Piecewise1D(pieces, scales=data.draw(st.sampled_from(
            [WIDE_SCALES, pw1d._SCALES, (0.5, 0.25)])))
        xbar = data.draw(st.sampled_from(bps) | quarters
                         | st.floats(-3.0, 3.0, allow_subnormal=False))
        _assert_profile_repeats(f, xbar, data.draw(st.sampled_from([0.0, -0.5, 1.0])))

    def test_sample_counts_are_the_distinct_points(self):
        # the geometric grid on both sides plus the breakpoints in range,
        # not 2 * _QGC_GRID
        assert pw1d.estimate_qgc_1d(pw1d.example33(), 0.0).sample_counts == (1116,) * 3
        est = pw1d.estimate_qgc_1d(pw1d.loads("pw1d\nbreakpoints:\npiece 0: 0 0 1\n"), 0.0)
        assert est.sample_counts == est.kept_counts == (2 * pw1d._QGC_GRID,) * 3

    def test_graph_of_a_copy_is_its_own(self):
        f33, f22 = pw1d.example33(), pw1d.binary_staircase(2.0, 2.0)
        for key in ("lo", "hi", "a", "b", "c", "breakpoints",
                    "vert_x", "piece_group", "vert_group", "group_v0", "group_v1"):
            assert (getattr(f33._graph, key).tobytes()
                    == getattr(f22._graph, key).tobytes()), key
        other = pw1d.binary_staircase(3.0, 2.0)
        g = replace(f22, pieces=other.pieces)
        assert g._graph is not f22._graph
        assert g._graph.lo.tobytes() == other._graph.lo.tobytes()
