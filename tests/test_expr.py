import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expression_trees
from strongmin import expr


def fd_gradient(e, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (expr.eval_value(e, xp) - expr.eval_value(e, xm)) / (2 * h)
    return g


def fd_hessian(e, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        H[:, i] = (fd_gradient(e, xp, h) - fd_gradient(e, xm, h)) / (2 * h)
    return 0.5 * (H + H.T)


class TestParse:
    def test_polynomial_row(self):
        e = expr.parse("x1 - x2^4 + x3^2", ["x1", "x2", "x3"])
        b = expr.eval_bundle(e, [1.0, 2.0, 3.0])
        assert b.value == 1.0 - 16.0 + 9.0
        assert np.allclose(b.gradient, [1.0, -32.0, 6.0])

    def test_truncated_input_reports_offset(self):
        with pytest.raises(expr.ParseError) as err:
            expr.parse("x1 + ", ["x1"])
        assert err.value.offset == 5

    def test_grammar_base_cases(self):
        pw = expr.parse("x1^2", ["x1"])
        assert isinstance(pw, expr.Power) and pw.exponent == 2
        assert isinstance(pw.base, expr.Var) and pw.base.index == 0
        prod = expr.parse("2*x1", ["x1"])
        assert isinstance(prod, expr.Binary) and prod.op == "mul"

    def test_precedence_power_over_unary_minus(self):
        e = expr.parse("-x1^2", ["x1"])
        assert expr.eval_value(e, [3.0]) == -9.0

    def test_left_associativity(self):
        e = expr.parse("8 - 2 - 1", [])
        assert expr.eval_value(e, np.zeros(0)) == 5.0
        e = expr.parse("8 / 2 / 2", [])
        assert expr.eval_value(e, np.zeros(0)) == 2.0

    def test_unknown_identifier(self):
        with pytest.raises(expr.ParseError):
            expr.parse("x1 + y", ["x1"])

    def test_only_ascii_digits_make_numbers(self):
        # str.isdigit accepts these, but float and int refuse "²" and read
        # "٣" as 3
        for text in ("x1 + ²", "x1^²", "x1*٣", "٣.5"):
            with pytest.raises(expr.ParseError, match="unexpected character"):
                expr.parse(text, ["x1"])

    def test_non_integer_exponent(self):
        with pytest.raises(expr.ParseError):
            expr.parse("x1^2.5", ["x1"])
        with pytest.raises(expr.ParseError):
            expr.parse("x1^-1", ["x1"])

    def test_exponent_bound(self):
        # a huge literal would take that many multiplications to evaluate
        for text in ("x^101", "x^99999999999", "(x + 1)^1000"):
            with pytest.raises(expr.ParseError, match="exponent above 100"):
                expr.parse(text, ["x"])
        assert expr.parse("x^100", ["x"]).exponent == expr.MAX_EXPONENT

    def test_functions(self):
        e = expr.parse("sin(x1) + cos(x1) + exp(x1) + log(x1) + sqrt(x1)", ["x1"])
        v = expr.eval_value(e, [2.0])
        ref = math.sin(2) + math.cos(2) + math.exp(2) + math.log(2) + math.sqrt(2)
        assert abs(v - ref) < 1e-14


class TestEvalBundle:
    def test_quadratic_at_origin(self):
        e = expr.parse("0.5*x1^2 + x2^2", ["x1", "x2", "x3"])
        b = expr.eval_bundle(e, [0.0, 0.0, 0.0])
        assert b.value == 0.0
        assert np.all(b.gradient == 0.0)
        assert np.allclose(np.diag(b.hessian), [1.0, 2.0, 0.0])
        assert np.allclose(b.hessian, fd_hessian(e, [0, 0, 0]), atol=1e-4)

    def test_constant(self):
        b = expr.eval_bundle(expr.Const(7.0), np.zeros(3))
        assert b.value == 7.0
        assert np.all(b.gradient == 0) and np.all(b.hessian == 0)

    def test_scaled_square(self):
        e = expr.parse("2*x2^2", ["x1", "x2", "x3"])
        b = expr.eval_bundle(e, [0.0, 1.0, 0.0])
        assert b.value == 2.0
        assert np.allclose(b.gradient, [0.0, 4.0, 0.0])
        assert np.allclose(b.hessian, np.diag([0.0, 4.0, 0.0]))
        assert np.allclose(b.gradient, fd_gradient(e, [0, 1, 0]), atol=1e-8)

    def test_domain_errors(self):
        e = expr.parse("sqrt(x1)", ["x1"])
        with pytest.raises(expr.EvalDomainError):
            expr.eval_bundle(e, [-1.0])
        e = expr.parse("log(x1)", ["x1"])
        with pytest.raises(expr.EvalDomainError):
            expr.eval_bundle(e, [0.0])
        e = expr.parse("1/x1", ["x1"])
        with pytest.raises(expr.EvalDomainError):
            expr.eval_bundle(e, [0.0])

    def test_overflow_to_nonfinite(self):
        e = expr.parse("exp(exp(x1))", ["x1"])
        with pytest.raises(expr.NonFiniteError):
            expr.eval_bundle(e, [100.0])

    def test_integer_power_is_repeated_multiplication(self):
        # bit for bit at a point and batched, so no host-dependent vector pow
        e3 = expr.parse("x1^3", ["x1"])
        e4 = expr.parse("x1^4", ["x1"])
        xs = np.random.default_rng(6).uniform(-2, 2, size=200)
        for x in xs:
            b = expr.eval_bundle(e3, [x])
            assert b.value == x * x * x
            assert b.gradient[0] == 3 * (x * x)
            assert b.hessian[0, 0] == 6 * x
            assert expr.eval_value(e4, [x]) == x * x * x * x
        assert np.array_equal(expr.eval_values(e3, xs[None, :]), xs * xs * xs)
        vals, grads = expr.eval_grads(e4, xs[None, :])
        assert np.array_equal(vals, xs * xs * xs * xs)
        assert np.array_equal(grads[0], 4 * (xs * xs * xs))

    def test_nan_from_overflow_is_not_a_domain_error(self):
        # inf - inf is NaN before sqrt sees it; the domain test is u <= 0,
        # which NaN fails, so the overflow is what gets reported
        e = expr.parse("sqrt(exp(exp(x1)) - exp(exp(x1)))", ["x1"])
        with pytest.raises(expr.NonFiniteError):
            expr.eval_bundle(e, [100.0])

    @pytest.mark.parametrize("text, raises", [
        ("sqrt(x1)", [True, True, False]),
        ("log(x1)", [True, True, False]),
        ("1/x1", [False, True, False]),
    ])
    def test_batched_nan_exactly_where_pointwise_raises(self, text, raises):
        e = expr.parse(text, ["x1"])
        X = np.array([[-1.0, 0.0, 1.0]])
        pointwise = []
        for j in range(X.shape[1]):
            try:
                expr.eval_bundle(e, X[:, j])
                pointwise.append(False)
            except expr.EvalDomainError:
                pointwise.append(True)
        assert pointwise == raises
        vals, grads = expr.eval_grads(e, X)
        assert list(np.isnan(expr.eval_values(e, X))) == raises
        assert list(np.isnan(vals)) == raises
        assert list(np.isnan(grads[0])) == raises


def random_polynomial(rng, nvars, depth=0):
    """Random polynomial tree over nvars variables."""
    if depth > 3 or (depth > 0 and rng.random() < 0.3):
        if rng.random() < 0.5:
            return expr.Const(float(rng.uniform(-2, 2)))
        return expr.Var(int(rng.integers(nvars)))
    op = rng.choice(["add", "sub", "mul", "pow", "neg"])
    if op == "pow":
        return expr.Power(random_polynomial(rng, nvars, depth + 1),
                          int(rng.integers(0, 4)))
    if op == "neg":
        return expr.Unary("neg", random_polynomial(rng, nvars, depth + 1))
    return expr.Binary(op, random_polynomial(rng, nvars, depth + 1),
                       random_polynomial(rng, nvars, depth + 1))


def random_smooth(rng, nvars, depth=0):
    """Random tree over every op; sqrt, log and the divisor of '/' get an
    argument of the form t^2 + 1, so evaluation never leaves a domain."""
    if depth > 3 or (depth > 0 and rng.random() < 0.3):
        if rng.random() < 0.5:
            return expr.Const(float(rng.uniform(-2, 2)))
        return expr.Var(int(rng.integers(nvars)))

    def sub():
        return random_smooth(rng, nvars, depth + 1)

    def positive():
        return expr.Binary("add", expr.Power(sub(), 2), expr.Const(1.0))

    op = rng.choice(["add", "sub", "mul", "div", "pow", "neg",
                     "sqrt", "log", "exp", "sin", "cos"])
    if op == "pow":
        return expr.Power(sub(), int(rng.integers(0, 4)))
    if op in ("sqrt", "log"):
        return expr.Unary(op, positive())
    if op in ("neg", "exp", "sin", "cos"):
        return expr.Unary(op, sub())
    if op == "div":
        return expr.Binary("div", sub(), positive())
    return expr.Binary(op, sub(), sub())


class TestProperties:
    def test_gradient_hessian_match_finite_differences(self):
        for generator in (random_polynomial, random_smooth):
            self._check_against_finite_differences(generator)

    def _check_against_finite_differences(self, generator):
        rng = np.random.default_rng(0)
        checked = tries = 0
        while checked < 100:
            tries += 1
            assert tries <= 1000, "too many trees skipped"
            nvars = int(rng.integers(1, 4))
            e = generator(rng, nvars)
            x = rng.uniform(-1.5, 1.5, size=nvars)
            try:
                b = expr.eval_bundle(e, x)
            except expr.NonFiniteError:
                if generator is random_polynomial:  # cannot overflow here
                    raise
                continue  # nested exp can overflow
            scale = max(1.0, abs(b.value), float(np.max(np.abs(b.gradient))))
            if scale > 1e3:  # keep finite differences meaningful
                continue
            g_fd = fd_gradient(e, x)
            H_fd = fd_hessian(e, x)
            g_scale = max(1.0, float(np.max(np.abs(g_fd))))
            h_scale = max(1.0, float(np.max(np.abs(H_fd))))
            assert np.max(np.abs(b.gradient - g_fd)) <= 1e-6 * g_scale
            assert np.max(np.abs(b.hessian - H_fd)) <= 1e-4 * h_scale
            checked += 1

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = random_polynomial(rng, 3)
            x = rng.uniform(-1, 1, size=3)
            b1 = expr.eval_bundle(e, x)
            b2 = expr.eval_bundle(e, x)
            assert b1.value == b2.value
            assert np.array_equal(b1.gradient, b2.gradient)
            assert np.array_equal(b1.hessian, b2.hessian)

    def test_hessian_symmetric_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e = random_polynomial(rng, 3)
            b = expr.eval_bundle(e, rng.uniform(-1, 1, size=3))
            assert np.array_equal(b.hessian, b.hessian.T)

    def test_hessian_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            e1 = random_polynomial(rng, 3)
            e2 = random_polynomial(rng, 3)
            x = rng.uniform(-1, 1, size=3)
            hs = expr.eval_bundle(expr.Binary("add", e1, e2), x).hessian
            h1 = expr.eval_bundle(e1, x).hessian
            h2 = expr.eval_bundle(e2, x).hessian
            assert np.allclose(hs, h1 + h2, rtol=1e-12, atol=1e-12)

    def test_batched_eval_matches_scalar(self):
        for generator in (random_polynomial, random_smooth):
            self._check_batched_matches_scalar(generator)

    def _check_batched_matches_scalar(self, generator):
        rng = np.random.default_rng(4)
        checked = tries = 0
        while checked < 20:
            tries += 1
            assert tries <= 200, "too many trees skipped"
            e = generator(rng, 3)
            X = rng.uniform(-1, 1, size=(3, 17))
            try:
                bundles = [expr.eval_bundle(e, X[:, j]) for j in range(X.shape[1])]
            except expr.NonFiniteError:
                if generator is random_polynomial:  # cannot overflow here
                    raise
                continue  # nested exp can overflow
            checked += 1
            vals, grads = expr.eval_grads(e, X)
            vals2 = expr.eval_values(e, X)
            for j, b in enumerate(bundles):
                assert abs(vals[j] - b.value) < 1e-12 * max(1, abs(b.value))
                assert abs(vals2[j] - b.value) < 1e-12 * max(1, abs(b.value))
                assert np.allclose(grads[:, j], b.gradient, rtol=1e-12, atol=1e-12)

    def test_round_trip_text(self):
        rng = np.random.default_rng(5)
        names = ["x1", "x2", "x3"]
        for _ in range(20):
            e = random_polynomial(rng, 3)
            e2 = expr.parse(expr.to_text(e, names), names)
            x = rng.uniform(-1, 1, size=3)
            assert abs(expr.eval_value(e, x) - expr.eval_value(e2, x)) < 1e-12


# ----------------------------------------------------------------------
# compiled polynomial rows
# ----------------------------------------------------------------------

def majorant(e):
    """The tree with |c| for each constant, '+' for '-' and no unary minus:
    at |x| it bounds every intermediate value and gradient entry of ``e``
    at x, the walker's and the compiled form's alike, in absolute value."""
    if isinstance(e, expr.Const):
        return expr.Const(abs(e.value))
    if isinstance(e, expr.Var):
        return e
    if isinstance(e, expr.Unary):
        return majorant(e.arg)
    if isinstance(e, expr.Power):
        return expr.Power(majorant(e.base), e.exponent)
    return expr.Binary("mul" if e.op == "mul" else "add",
                       majorant(e.left), majorant(e.right))


NAMES3 = ["x1", "x2", "x3"]


class TestCompiledRows:
    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(3, 3), seed=st.integers(0, 2**32 - 1))
    def test_compiled_rows_match_the_walker(self, tree, seed):
        assert expr.compile_polynomial(tree, 3) is not None
        X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 16))
        stack = expr.RowStack([tree], 3)
        v, g = stack.grads(X)
        wv, wg = expr.eval_grads(tree, X)
        mv, mg = expr.eval_grads(majorant(tree), np.abs(X))
        # 1e-12 relative to the majorant, which bounds the rounding of both
        assert np.all(np.abs(v[0] - wv) <= 1e-12 * (1.0 + mv))
        assert np.all(np.abs(g[0] - wg) <= 1e-12 * (1.0 + mg))
        assert stack.values(X).tobytes() == v.tobytes()
        # the text form parses back to a tree that evaluates identically
        back = expr.parse(expr.to_text(tree, NAMES3), NAMES3)
        bv, bg = expr.eval_grads(back, X)
        assert np.array_equal(bv, wv) and np.array_equal(bg, wg)

    @settings(max_examples=100, deadline=None)
    @given(trees=st.lists(expression_trees(3, 3), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_pullback_is_the_jacobian_contraction(self, trees, seed):
        # the same bits as contracting the Jacobian over its rows, up to
        # the sign of a zero sum; one row keeps the walker
        rows = trees + [expr.parse("sqrt(x1^2 + 1) * x3", NAMES3)]
        X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 16))
        stack = expr.RowStack(rows, 3)
        V, J = stack.grads(X)
        R, G = stack.pullback(X, lambda Q: Q - np.minimum(Q, 0.5))
        assert R.tobytes() == (V - np.minimum(V, 0.5)).tobytes()
        assert np.array_equal(G, (J * R[:, None, :]).sum(axis=0))

    @pytest.mark.parametrize("text", [
        "sqrt(x1^2 + 1) + x2", "x1 / (x2^2 + 1)", "exp(x1) * x2",
        "(x1 + x2)^64"])
    def test_other_rows_fall_back_to_the_walker(self, text):
        e = expr.parse(text, ["x1", "x2"])
        assert expr.compile_polynomial(e, 2) is None
        X = np.random.default_rng(8).uniform(-1, 1, size=(2, 50))
        stack = expr.RowStack([expr.parse("x1*x2 - 3", ["x1", "x2"]), e], 2)
        assert stack.compiled[0] is not None and stack.compiled[1] is None
        v, g = stack.grads(X)
        wv, wg = expr.eval_grads(e, X)
        assert v[1].tobytes() == wv.tobytes() and g[1].tobytes() == wg.tobytes()
        assert stack.values(X)[1].tobytes() == expr.eval_values(e, X).tobytes()

    def test_monomial_bound(self):
        # (x1 + x2)^k has k + 1 monomials
        at_bound = expr.parse(f"(x1 + x2)^{expr.MAX_MONOMIALS - 1}", ["x1", "x2"])
        assert len(expr.compile_polynomial(at_bound, 2)) == expr.MAX_MONOMIALS
        nested = expr.parse("((x1^10)^10)^2", ["x1"])
        assert expr.compile_polynomial(nested, 1) is None  # x1^200

    def test_powers_are_repeated_multiplication(self):
        xs = np.random.default_rng(6).uniform(-2, 2, size=200)
        v, g = expr.RowStack([expr.parse("x1^4", ["x1"])], 1).grads(xs[None, :])
        assert np.array_equal(v[0], xs * xs * xs * xs)
        assert np.array_equal(g[0, 0], 4 * (xs * xs * xs))

    def test_negative_zero_round_trips(self):
        # "-0.0" used to render bare, and "(--0.0)" does not parse
        for e in (expr.Unary("neg", expr.Const(-0.0)), expr.Const(-0.0)):
            back = expr.parse(expr.to_text(e, []), [])
            v, w = expr.eval_value(e, np.zeros(0)), expr.eval_value(back, np.zeros(0))
            assert v == w and np.signbit(v) == np.signbit(w)
