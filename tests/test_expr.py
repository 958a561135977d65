import math

import numpy as np
import pytest

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
