from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothpoly.algebra import (
    ALPHA,
    BETA,
    BoundMismatch,
    DivisionByZero,
    ExponentOverflow,
    MAX_EXPONENT,
    Monomial,
    MultiPoly,
    NotExpandable,
    RationalFunction,
    TruncatedSeries,
    poly_gcd,
    poly_to_str,
    poly_try_div,
    rf_from_json,
    rf_to_json,
    series_from_rf,
)

ONE = RationalFunction.one()
X1, X2 = RationalFunction.var("x1"), RationalFunction.var("x2")
px1, px2 = MultiPoly.var("x1"), MultiPoly.var("x2")
pa, pb = MultiPoly.var("a"), MultiPoly.var("b")


def mono(**exps):
    return Monomial(exps)


class TestPolyArith:
    def test_difference_of_squares(self):
        assert (px1 + pa) * (px1 - pa) == px1**2 - pa**2

    def test_additive_identity(self):
        p = px1 * px2 + pb
        assert p + MultiPoly() == p

    def test_binomial_expansion(self):
        lhs = (MultiPoly.const(1) + pb * px1) * (MultiPoly.const(1) + pb * px2)
        rhs = MultiPoly.const(1) + pb * px1 + pb * px2 + pb**2 * px1 * px2
        assert lhs == rhs

    def test_no_zero_coefficients_stored(self):
        p = px1 - px1
        assert p.is_zero() and p.terms == {}


class TestRationalArith:
    def test_inverse_pair(self):
        f = X1 / (ONE - ALPHA * X1)
        g = (ONE - ALPHA * X1) / X1
        assert f * g == ONE

    def test_common_denominator(self):
        s = X1 / (ONE - ALPHA * X1) + X2 / (ONE - ALPHA * X2)
        num = px1 + px2 - 2 * pa * px1 * px2
        den = (MultiPoly.const(1) - pa * px1) * (MultiPoly.const(1) - pa * px2)
        assert s == RationalFunction(num, den)

    def test_cancellation(self):
        h = ONE / (ONE + ALPHA * X1)
        assert h * (ONE + ALPHA * X1) == ONE

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / RationalFunction.zero()

    def test_zero_normalizes_to_zero_over_one(self):
        z = RationalFunction(MultiPoly(), (ONE - ALPHA * X1).num)
        assert z.den == MultiPoly.const(1)


class TestSubstitute:
    def test_sign_flip(self):
        f = X1 / (ONE - ALPHA * X1)
        assert f.substitute({"x1": -X1}) == (-X1) / (ONE + ALPHA * X1)

    def test_identity_composition(self):
        shift = X1 / (ONE + (ALPHA - BETA) * X1)
        assert X1.substitute({"x1": shift}) == shift

    def test_parameter_specialization(self):
        f = X1 / (ONE - BETA * X1)
        assert f.substitute({"b": RationalFunction.zero()}) == X1

    def test_denominator_vanishing_raises(self):
        f = ONE / ALPHA
        with pytest.raises(DivisionByZero):
            f.substitute({"a": RationalFunction.zero()})


def _longdiv_coeffs(num, den, order):
    """Independent oracle: univariate long division of polynomials in x1
    whose coefficients live in Q[a, b]."""
    ncoef = [num.coeff_in("x1", k) for k in range(order + 1)]
    dcoef = [den.coeff_in("x1", k) for k in range(order + 1)]
    assert dcoef[0].is_constant() and dcoef[0].constant_value() != 0
    out = []
    for k in range(order + 1):
        acc = ncoef[k]
        for j in range(1, k + 1):
            acc = acc - dcoef[j] * out[k - j]
        out.append(acc.scale(1 / dcoef[0].constant_value()))
    return out


def _truncate(p, sv, D):
    """The terms of p of degree at most D in the variables sv."""
    return MultiPoly([(m, c) for m, c in p.items() if sum(dict(m.exps).get(v, 0) for v in sv) <= D])


def _constant_in(p, sv):
    """The part of p free of the variables sv."""
    for v in sv:
        p = p.coeff_in(v, 0)
    return p


def _geometric_series(f, sv, D):
    """Reference expansion: 1/den as the geometric sum (1/c0)(1 + v + v^2 + ...)
    for v = 1 - den/c0, which has no constant term, times the numerator;
    every product is a full polynomial product, then truncated."""
    c0 = _constant_in(f.den, sv).constant_value()
    v = _truncate(MultiPoly.const(1) - f.den.scale(1 / c0), sv, D)
    inv = power = MultiPoly.const(1)
    for _ in range(D):
        power = _truncate(power * v, sv, D)
        inv = inv + power
    return TruncatedSeries.from_poly(_truncate(f.num.scale(1 / c0) * inv, sv, D), sv, D)


class TestSeries:
    def test_geometric_kernel(self):
        f = ONE / (ONE - X1 * RationalFunction.var("y1"))
        s = series_from_rf(f, {"x1", "y1"}, 2)
        assert s == TruncatedSeries(
            2, {mono(): MultiPoly.const(1), mono(x1=1, y1=1): MultiPoly.const(1)}
        )

    def test_geometric_in_one_var(self):
        f = X1 / (ONE - ALPHA * X1)
        s = series_from_rf(f, {"x1"}, 3)
        assert s == TruncatedSeries(
            3, {mono(x1=1): MultiPoly.const(1), mono(x1=2): pa, mono(x1=3): pa**2}
        )

    def test_long_division_oracle(self):
        f = (ONE + BETA * X1) / (ONE - ALPHA * X1)
        expected = _longdiv_coeffs(f.num, f.den, 2)
        s = series_from_rf(f, {"x1"}, 2)
        assert s == TruncatedSeries(
            2, {mono(x1=k): c for k, c in enumerate(expected) if not c.is_zero()}
        )
        assert expected[1] == pa + pb
        assert expected[2] == pa * (pa + pb)

    def test_series_mul_truncates(self):
        y1 = MultiPoly.var("y1")
        s1 = TruncatedSeries.from_poly(MultiPoly.const(1) + px1 * y1, {"x1", "x2", "y1"}, 2)
        s2 = TruncatedSeries.from_poly(MultiPoly.const(1) + px2 * y1, {"x1", "x2", "y1"}, 2)
        assert s1 * s2 == TruncatedSeries(
            2,
            {
                mono(): MultiPoly.const(1),
                mono(x1=1, y1=1): MultiPoly.const(1),
                mono(x2=1, y1=1): MultiPoly.const(1),
            },
        )

    def test_series_additive_identity(self):
        s = series_from_rf(ONE / (ONE - X1), {"x1"}, 3)
        assert s + TruncatedSeries(3) == s

    def test_difference_of_squares_truncation(self):
        one = MultiPoly.const(1)
        s1 = TruncatedSeries.from_poly(one + px1, {"x1"}, 2)
        s2 = TruncatedSeries.from_poly(one - px1, {"x1"}, 2)
        assert s1 * s2 == TruncatedSeries.from_poly(one - px1**2, {"x1"}, 2)

    def test_bound_mismatch(self):
        one = MultiPoly.const(1)
        with pytest.raises(BoundMismatch):
            TruncatedSeries(2, {Monomial(): one}) + TruncatedSeries(3, {Monomial(): one})

    def test_not_expandable(self):
        with pytest.raises(NotExpandable):
            series_from_rf(ONE / X1, {"x1"}, 2)

    def test_not_expandable_non_scalar_constant_term(self):
        with pytest.raises(NotExpandable):
            series_from_rf(ONE / (ALPHA + X1), {"x1"}, 2)

    def test_series_degree_is_exact(self):
        # the exponents sum to 0xFFFF: read modulo 0xFFFF the term has degree 0
        big = MultiPoly({Monomial({"x1": MAX_EXPONENT, "x2": MAX_EXPONENT, "y1": 1}): 1})
        sv = {"x1", "x2", "y1"}
        one = MultiPoly.const(1)
        assert TruncatedSeries.from_poly(one + big, sv, 3) == TruncatedSeries(3, {Monomial(): one})
        f = RationalFunction(one + big, one - px1, _norm=False)
        assert series_from_rf(f, sv, 3) == series_from_rf(ONE / (ONE - X1), sv, 3)

    def test_product_exponent_overflow(self):
        s = TruncatedSeries.from_poly(MultiPoly.var("a", 20000) * px1, {"x1"}, 2)
        with pytest.raises(ExponentOverflow):
            s * s
        big = MultiPoly.var("a", 20000)
        with pytest.raises(ExponentOverflow):
            series_from_rf(RationalFunction(big, MultiPoly.const(1) - big * px1, _norm=False), {"x1"}, 2)


# -- randomized property tests ------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.integers(min_value=0, max_value=3)
variables = st.sampled_from(["x1", "x2", "a"])


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        # sorted: set iteration order depends on PYTHONHASHSEED
        m = Monomial(
            {v: draw(exponents) for v in sorted(draw(st.sets(variables, max_size=2)))}
        )
        terms[m] = terms.get(m, Fraction(0)) + draw(coeffs)
    return MultiPoly(terms)


@st.composite
def rationals(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return RationalFunction(num, den)


@settings(max_examples=60, deadline=None)
@given(rationals())
def test_canonical_idempotence(f):
    assert RationalFunction(f.num, f.den) == f


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == RationalFunction.zero()
    if not f.is_zero():
        assert f * (ONE / f) == ONE


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_gcd_divides_common_factor(p, q):
    if p.is_zero() and q.is_zero():
        return
    h = px1 + pa  # known common factor
    g = poly_gcd(p * h, q * h)
    assert poly_try_div(g, h) is not None
    assert poly_try_div(p * h, g) is not None
    assert poly_try_div(q * h, g) is not None


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals())
def test_series_multiplicative(f, g):
    sv = {"x1", "x2"}
    for h in (f, g):
        d0 = _constant_in(h.den, sv)
        if d0.is_zero() or not d0.is_constant():
            return
    assert series_from_rf(f * g, sv, 3) == series_from_rf(f, sv, 3) * series_from_rf(g, sv, 3)


@settings(max_examples=50, deadline=None)
@given(rationals(), rationals(), st.tuples(coeffs, coeffs, coeffs))
def test_evaluation_homomorphism(f, g, pt):
    point = {"x1": pt[0], "x2": pt[1], "a": pt[2]}
    try:
        fv, gv = f.evaluate(point), g.evaluate(point)
    except DivisionByZero:
        return
    assert (f + g).evaluate(point) == fv + gv
    assert (f * g).evaluate(point) == fv * gv
    assert (f - g).evaluate(point) == fv - gv


@settings(max_examples=40, deadline=None)
@given(rationals())
def test_json_round_trip(f):
    assert rf_from_json(rf_to_json(f)) == f


def test_plain_term_order():
    p = px1 * px2 + pb * px1 + pb * px2
    assert poly_to_str(p) == "x1*x2 + b*x1 + b*x2"


# -- series expansion against the geometric-sum reference --------------------

series_coeffs = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
# exponents up to 3 in each of x1, x2: terms up to degree 6, above every D used
xab_exps = st.fixed_dictionaries({
    "x1": st.integers(0, 3), "x2": st.integers(0, 3), "a": st.integers(0, 2), "b": st.integers(0, 1),
})


def xab_polys(series_part=False):
    """Polynomials over x1, x2 with coefficients in a, b; with series_part
    every term has positive degree in x1, x2."""
    def mono(e):
        return Monomial({**e, "x1": 1} if series_part and not e["x1"] + e["x2"] else e)

    return st.lists(st.tuples(xab_exps.map(mono), series_coeffs), max_size=4).map(MultiPoly)


@settings(max_examples=120, deadline=None)
@given(xab_polys(), xab_polys(series_part=True), series_coeffs, st.integers(0, 4))
@example(  # a Fraction constant term and a numerator term above D
    MultiPoly.const(1) + MultiPoly.var("x1", 5) * pb,
    MultiPoly([(Monomial({"x1": 1, "a": 1}), Fraction(1, 2))]),
    Fraction(-2, 3),
    3,
)
def test_series_division_matches_geometric_sum(num, tail, c0, D):
    sv = {"x1", "x2"}
    f = RationalFunction(num, tail + MultiPoly.const(c0), _norm=False)
    assert series_from_rf(f, sv, D) == _geometric_series(f, sv, D)
    reduced = RationalFunction(num, tail + MultiPoly.const(c0))
    assert series_from_rf(reduced, sv, D) == series_from_rf(f, sv, D)


@settings(max_examples=60, deadline=None)
@given(xab_polys(), xab_polys(), st.integers(0, 4))
def test_series_product_matches_truncated_polynomial_product(p, q, D):
    sv = {"x1", "x2"}
    s = TruncatedSeries.from_poly(p, sv, D) * TruncatedSeries.from_poly(q, sv, D)
    assert s == TruncatedSeries.from_poly(_truncate(p * q, sv, D), sv, D)
