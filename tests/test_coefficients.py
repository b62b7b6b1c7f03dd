"""Canonical coefficients: every coefficient is an int when it is integral
and a Fraction only when it is not, after every operation, and integer
inputs stay integer through the ring operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.algebra import (
    Monomial,
    MultiPoly,
    RationalFunction,
    _coeff,
    _make_primitive,
    _quo,
    poly_divexact,
    poly_gcd,
    rf_from_json,
    rf_to_json,
)

x1, x2, a = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("a")
ONE = MultiPoly.const(1)
ATOMS = [x1, a, x1 + a, ONE - a * x1, x2 - x1, x1 * x2 + ONE]

ints = st.integers(-6, 6)
rationals = st.one_of(ints, st.fractions(-3, 3, max_denominator=4))
nonzero = lambda s: s.filter(lambda c: c != 0)  # noqa: E731


def canonical(p: MultiPoly, integral: bool = False) -> bool:
    """p's coefficients are ints or non-integral Fractions (only ints when
    integral), and p's Fraction flag says whether a Fraction is present."""
    kinds = [type(c) for c in p.terms.values()]
    ok = all(
        t is int or (t is Fraction and c.denominator != 1)
        for t, c in zip(kinds, p.terms.values())
    )
    if integral:
        ok = ok and all(t is int for t in kinds)
    return ok and p._frac == (Fraction in kinds)


@st.composite
def polys(draw, coeffs=rationals, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        names = sorted(draw(st.sets(st.sampled_from(["x1", "x2", "a"]), max_size=2)))
        m = Monomial({v: draw(st.integers(1, 2)) for v in names})
        terms[m] = terms.get(m, 0) + draw(coeffs)
    return MultiPoly(terms)


@st.composite
def fractions_of(draw, coeffs=rationals):
    """num / (c * squarefree product of atoms), reduced by the constructor."""
    den = MultiPoly.const(draw(nonzero(coeffs)))
    for i in sorted(draw(st.sets(st.integers(0, len(ATOMS) - 1), max_size=2))):
        den = den * ATOMS[i]
    return RationalFunction(draw(polys(coeffs)), den)


@st.composite
def cases(draw):
    """(integral?, p, q, c): polynomials and a scalar, all with integer
    coefficients or all with rational ones."""
    coeffs = draw(st.sampled_from([ints, rationals]))
    return coeffs is ints, draw(polys(coeffs)), draw(polys(coeffs)), draw(coeffs)


@given(rationals, nonzero(rationals))
def test_quotient_is_exact_and_never_a_float(c, d):
    q = _quo(c, d)
    assert type(q) is int or (type(q) is Fraction and q.denominator != 1)
    assert q == Fraction(c) / Fraction(d)


def test_coercion():
    assert type(_coeff(Fraction(6, 3))) is int
    assert type(_coeff(True)) is int
    assert _coeff(Fraction(1, 2)) == Fraction(1, 2)
    m = Monomial({"x1": 1})
    p = MultiPoly([(m, Fraction(1, 2)), (m, Fraction(1, 2))])
    assert dict(p.items()) == {m: 1} and canonical(p, integral=True)
    half = MultiPoly.const(Fraction(1, 2))
    assert canonical(half * MultiPoly.const(2), integral=True)
    assert canonical(half + half, integral=True)
    assert type(MultiPoly.const(5).constant_value()) is Fraction


@pytest.mark.parametrize(
    "make",
    [
        lambda: MultiPoly({Monomial({"x1": 1}): 0.5}),
        lambda: MultiPoly.const(1.0),
        lambda: x1.scale(0.5),
        lambda: x1.quo(2.0),
        lambda: x1 * 0.5,
    ],
)
def test_float_coefficients_are_rejected(make):
    with pytest.raises(TypeError):
        make()


@settings(max_examples=80, deadline=None)
@given(cases())
def test_ring_operations(case):
    integral, p, q, c = case
    for r in (p + q, p - q, -p, p * q, p**2, q**3, p.scale(c), p.mul_monomial(Monomial({"x2": 1}))):
        assert canonical(r, integral), r
    for r in (
        p.rename_vars({"x1": "x2", "x2": "x1"}),
        p.rename_vars({"x1": "x2"}),
    ):
        assert canonical(r, integral), r
    # a rational scaling factor gives canonical, not integral, results
    assert canonical(p.scale(Fraction(2, 3)))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_division_and_gcd(case):
    integral, p, d, _ = case
    if d.is_zero():
        return
    q = poly_divexact(p * d, d)
    assert q == p and canonical(q, integral), q
    assert canonical(d.quo(3)) and canonical(d.quo(Fraction(2, 3)))
    assert canonical(_make_primitive(d), integral=True)
    h = x1 + a
    assert canonical(poly_gcd(p * h, d * h), integral=True)


@settings(max_examples=60, deadline=None)
@given(fractions_of(), fractions_of(), st.integers(-2, 3))
def test_rational_function_operations(f, g, k):
    results = [f + g, f - g, f * g, -f, rf_from_json(rf_to_json(f))]
    if not g.is_zero():
        results += [f / g, g**k]
    for r in results:
        assert canonical(r.num) and canonical(r.den, integral=True), r
