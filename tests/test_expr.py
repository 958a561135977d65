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

    def test_nesting_depth(self):
        # the parser recurses per level of parentheses; under pytest's own
        # frames 200 levels still parse, and a depth past the recursion
        # limit is a ParseError, not a RecursionError
        assert expr.parse("(" * 200 + "x1" + ")" * 200, ["x1"]) == expr.Var(0)
        assert expr.parse("-sin(" * 100 + "x1" + ")" * 100, ["x1"]) is not None
        with pytest.raises(expr.ParseError, match="nested too deeply"):
            expr.parse("(" * 2000 + "x1" + ")" * 2000, ["x1"])


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
# row programs
# ----------------------------------------------------------------------

NAMES3 = ["x1", "x2", "x3"]


def pullback(stack, X, fn, out=None):
    """(R, G) from ``stack.pullback`` or, given ``out`` (2n + 1 rows), R
    from ``stack.objective_pullback``, under np.errstate as the descent
    runs them."""
    V = np.empty((len(stack.rows), X.shape[1]))
    with np.errstate(all="ignore"):
        if out is not None:
            return stack.objective_pullback(X, V, fn, out)
        G = np.empty((stack.n, X.shape[1]))
        return stack.pullback(X, V, fn, G), G


class TestCompiledRows:
    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(3, 3), seed=st.integers(0, 2**32 - 1))
    def test_compiled_rows_match_the_walker(self, tree, seed):
        X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 16))
        stack = expr.RowStack([tree], 3)
        v, g = stack.grads(X)
        wv, wg = expr.eval_grads(tree, X)
        assert np.array_equal(v[0], wv) and np.array_equal(g[0], wg)
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
        # the sign of a zero sum; one row is not a polynomial
        rows = trees + [expr.parse("sqrt(x1^2 + 1) * x3", NAMES3)]
        X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 16))
        stack = expr.RowStack(rows, 3)
        V, J = stack.grads(X)
        R, G = pullback(stack, X, lambda Q: Q - np.minimum(Q, 0.5))
        assert R.tobytes() == (V - np.minimum(V, 0.5)).tobytes()
        assert np.array_equal(G, (J * R[:, None, :]).sum(axis=0))

    def test_powers_are_repeated_multiplication(self):
        xs = np.random.default_rng(6).uniform(-2, 2, size=200)
        v, g = expr.RowStack([expr.parse("x1^4", ["x1"])], 1).grads(xs[None, :])
        assert np.array_equal(v[0], xs * xs * xs * xs)
        assert np.array_equal(g[0, 0], 4 * (xs * xs * xs))

    def test_long_sum(self):
        # a left-deep sum of 3000 terms, 3000 levels deep: the walker, the
        # program builder and the renderer keep their own stacks
        text = " + ".join(["x1^2", "2*x1*x2", "-x2"] * 1000)
        e = expr.parse(text, ["x1", "x2"])
        X = np.random.default_rng(3).uniform(-1.5, 1.5, size=(2, 16))
        v, g = expr.eval_grads(e, X)
        V, J = expr.RowStack([e], 2).grads(X)
        assert V[0].tobytes() == v.tobytes() and J[0].tobytes() == g.tobytes()
        assert expr.to_text(e, ["x1", "x2"]).count(" + ") == 2999
        b = expr.eval_bundle(e, [0.5, -1.0])
        assert np.array_equal(b.hessian, [[2000.0, 2000.0], [2000.0, 0.0]])

    def test_long_constant_prefix_compiles(self):
        # every constant subtree of 1 + 1 + ... is folded by the walker, whose
        # results the builder keeps: the prefix costs one walk, not one per node
        e = expr.parse(" + ".join(["1"] * 3000) + " + x1^2", ["x1"])
        V, J = expr.RowStack([e], 1).grads(np.array([[2.0]]))
        assert V[0, 0] == 3004.0 and J[0, 0, 0] == 4.0

    def test_shared_subtree(self):
        # one subtree object used twice, within a row and across rows, gives
        # the bytes of its unshared copy
        def tree(s, t):
            return expr.Binary("add", expr.Binary("mul", s, t), expr.Power(s, 2))

        text = "sin(x1) * x2 - x3 / (1 + x1^2)"
        s = expr.parse(text, NAMES3)
        shared = [tree(s, s), tree(s, expr.Var(2))]
        copies = [tree(expr.parse(text, NAMES3), expr.parse(text, NAMES3)),
                  tree(expr.parse(text, NAMES3), expr.Var(2))]
        X = np.random.default_rng(4).uniform(-1.5, 1.5, size=(3, 16))
        for a, b in zip(shared, copies):
            assert expr.to_text(a, NAMES3) == expr.to_text(b, NAMES3)
            assert expr.eval_values(a, X).tobytes() == expr.eval_values(b, X).tobytes()
            for x, y in zip(expr.eval_grads(a, X), expr.eval_grads(b, X)):
                assert x.tobytes() == y.tobytes()
            ba, bb = expr.eval_bundle(a, X[:, 0]), expr.eval_bundle(b, X[:, 0])
            assert ba.value == bb.value and ba.gradient.tobytes() == bb.gradient.tobytes()
            assert ba.hessian.tobytes() == bb.hessian.tobytes()
        sa, sb = expr.RowStack(shared, 3), expr.RowStack(copies, 3)
        assert sa.values(X).tobytes() == sb.values(X).tobytes()
        for x, y in zip(sa.grads(X), sb.grads(X)):
            assert x.tobytes() == y.tobytes()

    def test_negative_zero_round_trips(self):
        # "-0.0" used to render bare, and "(--0.0)" does not parse
        for e in (expr.Unary("neg", expr.Const(-0.0)), expr.Const(-0.0)):
            back = expr.parse(expr.to_text(e, []), [])
            v, w = expr.eval_value(e, np.zeros(0)), expr.eval_value(back, np.zeros(0))
            assert v == w and np.signbit(v) == np.signbit(w)


def special_rows(rng, nvars):
    """Rows whose coefficients are inf, -0.0 and 1.0: each one scales a
    power, a random polynomial and a bare constant term."""
    rows = []
    for c in (math.inf, -0.0, 1.0):
        x = expr.Var(int(rng.integers(nvars)))
        scaled = expr.Binary("mul", expr.Const(c), random_polynomial(rng, nvars))
        rows.append(expr.Binary("add", expr.Binary("mul", expr.Const(c), expr.Power(x, 2)),
                                scaled))
        rows.append(expr.Binary("add", expr.Const(c), expr.Binary("mul", expr.Const(c), x)))
    return rows


# R = fn(V) is kept finite: the contraction forms 0 * R[r] where a program
# skips a structurally zero entry, and 0 * inf would be NaN
def _shifted(Q):
    F = np.where(np.isfinite(Q), Q, 0.75)
    return F - np.minimum(F, 0.5)


# a power whose expanded form has 65 terms, and HUGE_ROW's row
POWER_64 = expr.parse("(x1 + x2)^64", NAMES3)
HUGE_DIVISION = expr.parse("x1 / 3.3886258853730173e-245", NAMES3)

TREES = st.one_of(expression_trees(3, 3), expression_trees(3, 3, smooth=True))


def _bits(a):
    """The bytes of a, every NaN made np.nan: IEEE 754 leaves a NaN's sign
    to the loop (numpy's array-scalar loops keep the other operand's NaN
    of two), and the walker's constants are arrays, a program's scalars."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _children(e):
    if isinstance(e, expr.Unary):
        return (e.arg,)
    if isinstance(e, expr.Binary):
        return (e.left, e.right)
    if isinstance(e, expr.Power):
        return (e.base,)
    return ()


def _overflow_columns(e, X):
    """The columns where an intermediate of the walker's e overflows: some
    operation takes finite operands (values and gradients) and gives a
    non-finite value or gradient, inside the domains of sqrt, log and '/'."""
    def finite(vg):
        return np.isfinite(vg[0]) & np.isfinite(vg[1]).all(axis=0)

    out = np.zeros(X.shape[1], dtype=bool)
    stack = [e]
    while stack:
        node = stack.pop()
        kids = _children(node)
        stack.extend(kids)
        if not kids:
            continue
        operands = [expr.eval_grads(k, X) for k in kids]
        outside = np.zeros(X.shape[1], dtype=bool)
        if isinstance(node, expr.Unary) and node.op in ("sqrt", "log"):
            outside = operands[0][0] <= 0
        elif isinstance(node, expr.Binary) and node.op == "div":
            outside = operands[1][0] == 0
        out |= (np.logical_and.reduce([finite(vg) for vg in operands])
                & ~finite(expr.eval_grads(node, X)) & ~outside)
    return out


def _assert_walker_gradients(J, g, e, X):
    """J equals the walker's gradients g of e as floats (the sign of a zero
    aside), except where the walker has NaN in a column where an
    intermediate overflows: there a skipped 0 * inf keeps the NaN out."""
    if np.array_equal(J, g, equal_nan=True):
        return
    cols = _overflow_columns(e, X)
    assert np.array_equal(J[:, ~cols], g[:, ~cols], equal_nan=True)
    walker = ~np.isnan(g[:, cols])
    assert np.array_equal(J[:, cols][walker], g[:, cols][walker])


class TestRowPrograms:
    """The generated programs repeat the walker, the one reference: its
    values bit for bit (each NaN aside), its gradients as floats
    (np.array_equal: the sign of a zero aside) wherever no intermediate
    overflows, and the pullbacks contract those gradients in row order."""

    @pytest.mark.parametrize("width", [1, 7, 160])
    @pytest.mark.parametrize("seed", range(12))
    @settings(max_examples=10, deadline=None)
    @given(trees=st.lists(TREES, min_size=1, max_size=3), objective=TREES)
    def test_programs_repeat_the_reference(self, seed, width, trees, objective):
        # smooth trees leave the domains of sqrt, log and '/'; special rows
        # scale by inf, -0.0 and 1.0
        rng = np.random.default_rng(seed)
        rows = trees + special_rows(rng, 3) + [POWER_64, HUGE_DIVISION]
        X = rng.uniform(-1.5, 1.5, size=(3, width))
        stack = expr.RowStack(rows, 3, objective)
        V, J = stack.grads(X)
        assert stack.values(X).tobytes() == V.tobytes()
        for r, row in enumerate(rows):
            wv, wg = expr.eval_grads(row, X)
            assert _bits(V[r]) == _bits(wv) == _bits(expr.eval_values(row, X))
            _assert_walker_gradients(J[r], wg, row, X)
        R, G = pullback(stack, X, _shifted)
        assert R.tobytes() == _shifted(V).tobytes()
        with np.errstate(all="ignore"):
            assert np.array_equal(G, (J * R[:, None, :]).sum(axis=0), equal_nan=True)
        out = np.full((7, width), np.nan)
        assert pullback(stack, X, _shifted, out).tobytes() == R.tobytes()
        v, g = expr.eval_grads(objective, X)
        assert _bits(out[0]) == _bits(v)
        _assert_walker_gradients(out[1:4], g, objective, X)
        assert out[4:].tobytes() == G.tobytes()

    def test_overflowing_power_keeps_nan_out(self):
        # d/du u^3 = 3 u^2 overflows at u = 2.5e220: the walker multiplies
        # it into every entry of du = (1, 0, 0), the program skips the two
        # structural zeros
        row = expr.parse("(x1 + 1/4.018668037046235e-221)^3", NAMES3)
        X = np.random.default_rng(0).uniform(-1.5, 1.5, size=(3, 4))
        V, J = expr.RowStack([row], 3).grads(X)
        v, g = expr.eval_grads(row, X)
        assert V[0].tobytes() == v.tobytes() and np.all(v == math.inf)
        assert np.all(g[0] == math.inf) and np.all(np.isnan(g[1:]))
        assert np.all(J[0, 0] == math.inf) and np.all(J[0, 1:] == 0.0)
        assert _overflow_columns(row, X).all()
        _assert_walker_gradients(J[0], g, row, X)
        smooth = expr.parse("(x1 + 1/4)^3", NAMES3)
        assert not _overflow_columns(smooth, X).any()

    def test_deep_rows_compile(self):
        # a product of 300 factors: its gradient nests deeper than the 200
        # parentheses Python's parser takes in one expression
        row = expr.parse(" * ".join(["x1", "x2"] * 150), ["x1", "x2"])
        X = np.random.default_rng(9).uniform(-1, 1, size=(2, 5))
        V, J = expr.RowStack([row], 2).grads(X)
        v, g = expr.eval_grads(row, X)
        assert V[0].tobytes() == v.tobytes() and np.array_equal(J[0], g)

    def test_programs_are_built_on_first_use(self):
        stack = expr.RowStack([expr.parse("x1^2 - x2", ["x1", "x2"])], 2)
        assert not {"_values", "_grads", "pullback"} & set(vars(stack))
        stack.values(np.zeros((2, 3)))
        assert {"_values", "_grads", "pullback"} & set(vars(stack)) == {"_values"}

    def test_no_rows(self):
        stack = expr.RowStack([], 2, expr.parse("x1 * x2", ["x1", "x2"]))
        X = np.ones((2, 4))
        assert stack.values(X).shape == (0, 4)
        R, G = pullback(stack, X, lambda Q: Q)
        assert R.shape == (0, 4) and np.array_equal(G, np.zeros((2, 4)))
        out = np.full((5, 4), np.nan)
        pullback(stack, X, lambda Q: Q, out)
        assert np.array_equal(out, [[1.0] * 4] * 3 + [[0.0] * 4] * 2)
