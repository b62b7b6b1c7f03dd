"""Property tests for rational-function arithmetic on reduced operands.

The operators cancel across operands instead of reducing the product:
crosswise gcds for products and quotients, the gcd of the two denominators
for sums, none for powers.  Each result is compared with the plain
reference that builds the unreduced quotient and reduces it through the
public constructor.  Since reduced form is unique and ``==`` is
structural, equality also checks that the result is reduced.

Operands are rational multiples of products of a few fixed atoms, so
shared factors, cancellation to 0 and constant denominators all occur,
and the reference gcds stay small.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import algebra
from grothpoly.algebra import MultiPoly, RationalFunction

x1, x2, a = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("a")
ONE = MultiPoly.const(1)
BINOMIALS = [x1 + a, ONE - a * x1, x2 - x1, x1 * x2 + ONE]

ratios = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def atom_products(draw):
    """x1**i * a**j times a squarefree product of binomial atoms.  Squared
    binomials are left out: they make the reference gcd take seconds."""
    p = x1 ** draw(st.integers(0, 2)) * a ** draw(st.integers(0, 2))
    for i in sorted(draw(st.sets(st.integers(0, len(BINOMIALS) - 1), max_size=3))):
        p = p * BINOMIALS[i]
    return p


@st.composite
def operands(draw):
    """c*P / Q for atom products P, Q."""
    return RationalFunction(draw(atom_products()).scale(draw(ratios)), draw(atom_products()))


def _no_gcd(*args):
    raise AssertionError("poly_gcd called")


@settings(max_examples=150, deadline=None)
@given(operands(), operands())
def test_add_sub_mul(f, g):
    n1, d1, n2, d2 = f.num, f.den, g.num, g.den
    assert f + g == RationalFunction(n1 * d2 + n2 * d1, d1 * d2)
    assert f - g == RationalFunction(n1 * d2 - n2 * d1, d1 * d2)
    assert f * g == RationalFunction(n1 * n2, d1 * d2)


@settings(max_examples=150, deadline=None)
@given(operands(), operands())
def test_div(f, g):
    if g.is_zero():
        with pytest.raises(algebra.DivisionByZero):
            f / g
        return
    assert f / g == RationalFunction(f.num * g.den, f.den * g.num)


@settings(max_examples=100, deadline=None)
@given(operands(), st.integers(-2, 3))
def test_pow_takes_no_gcd(f, k):
    if k < 0 and f.is_zero():
        return
    if k >= 0:
        ref = RationalFunction(f.num**k, f.den**k)
    else:
        ref = RationalFunction(f.den ** (-k), f.num ** (-k))
    with mock.patch.object(algebra, "poly_gcd", _no_gcd):
        got = f**k
    assert got == ref


@settings(max_examples=100, deadline=None)
@given(operands(), operands())
def test_cancellation(f, g):
    # exact cancellation to 0, and sums whose numerator shares a factor
    # with the gcd of the denominators
    assert (f - f).is_zero() and (f - f).den == ONE
    assert f + (-f) == RationalFunction.zero()
    assert f + (g - f) == g
    if not g.is_zero():
        assert (f * g) / g == f


def test_sum_keeps_both_cofactors():
    # denominators x1*(x1 + a) and x1*(1 - a*x1) share x1; the sum's
    # denominator needs the cofactors of both
    f = RationalFunction(ONE, x1 * (x1 + a))
    g = RationalFunction(ONE, x1 * (ONE - a * x1))
    s = f + g
    assert s.den.degree_in("x1") == 3
    point = {"x1": Fraction(2), "a": Fraction(1, 3)}
    assert s.evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_sum_cancels_against_the_shared_factor():
    # x1/((x1 + a)(x2 - x1)) + a/((x1 + a)(x2 - x1)) = 1/(x2 - x1)
    d = (x1 + a) * (x2 - x1)
    s = RationalFunction(x1, d) + RationalFunction(a, d)
    assert s.num == -ONE and s.den == x1 - x2


def test_gcd_on_repeated_binomial_factors_stays_small():
    """The public constructor on a cross sum whose denominators carry squared
    binomials: poly_gcd once ran its PRS in x1, where those squares sit, and
    spent about four million term products (tens of seconds)."""
    n1, d1 = MultiPoly.const(Fraction(-2, 3)), (x1 - x2) ** 2 * (x1 * x2 + ONE)
    n2 = (a**2 * x1**2 * x2 + a**2 * x1).scale(-2)
    d2 = (x1 + a) ** 2 * (ONE - a * x1) ** 2
    num, den = n1 * d2 + n2 * d1, d1 * d2
    products = 0
    mul = MultiPoly.__mul__

    def counting_mul(p, q):
        nonlocal products
        if isinstance(q, MultiPoly):
            products += len(p.terms) * len(q.terms)
        return mul(p, q)

    with mock.patch.object(MultiPoly, "__mul__", counting_mul):
        r = RationalFunction(num, den)
    assert products < 5000
    # the two fractions were reduced and their denominators coprime
    assert r.den == den and r.num == num
