"""Property tests for the two algebra kernels under every chain sum:
monomial products and quotients, and exact polynomial division.

Each is compared with a plain reference kept here: monomials as exponent
dicts ordered by a dense exponent vector, and long division that rescans
for the leading term after every step and moves a leading term the divisor
cannot divide into the remainder.  A single divisor is a Groebner basis of
the ideal it generates, so that remainder is zero exactly when the divisor
divides the dividend.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.algebra import (
    InexactDivision,
    Monomial,
    MultiPoly,
    poly_divexact,
    poly_try_div,
    var_key,
)

# x10 sorts after x2 although its name sorts before
NAMES = ["x1", "x2", "x10", "y1", "z1", "w2", "a", "b"]

exponent_dicts = st.dictionaries(
    st.sampled_from(NAMES), st.integers(min_value=0, max_value=3), max_size=5
)
coeffs = st.integers(min_value=-4, max_value=4).filter(bool).map(Fraction)


# -- reference ------------------------------------------------------------------


def ref_order(monos):
    """Sort key over exponent dicts: degree, then the dense exponent vector
    in variable priority order (the first variable whose exponents differ
    decides, the larger exponent being the bigger monomial)."""
    names = sorted({v for m in monos for v in m}, key=var_key)

    def key(m):
        return (sum(m.values()), [m.get(v, 0) for v in names])

    return key


def ref_mul(a: dict, b: dict) -> dict:
    out = {v: e for v, e in a.items() if e}
    for v, e in b.items():
        if e:
            out[v] = out.get(v, 0) + e
    return out


def ref_divide(a: dict, b: dict):
    out = {v: e for v, e in a.items() if e}
    for v, e in b.items():
        r = out.get(v, 0) - e
        if r < 0:
            return None
        out[v] = r
    return {v: e for v, e in out.items() if e}


def _frozen(m: dict):
    return tuple(sorted((v, e) for v, e in m.items() if e))


def ref_divmod(p: MultiPoly, d: MultiPoly):
    """Plain long division of p by d: (quotient, remainder) as MultiPolys."""
    rem = {_frozen(dict(m.exps)): c for m, c in p.terms.items()}
    div = {_frozen(dict(m.exps)): c for m, c in d.terms.items()}
    dkey = ref_order([dict(k) for k in div])
    dm = max(div, key=lambda k: dkey(dict(k)))
    dc = div[dm]
    quo, out = {}, {}
    while rem:
        key = ref_order([dict(k) for k in rem])
        lm = max(rem, key=lambda k: key(dict(k)))
        lc = rem.pop(lm)
        m = ref_divide(dict(lm), dict(dm))
        if m is None:
            out[lm] = lc
            continue
        c = Fraction(lc) / dc
        quo[_frozen(m)] = quo.get(_frozen(m), Fraction(0)) + c
        for tm, tc in div.items():
            if tm == dm:
                continue
            k = _frozen(ref_mul(dict(tm), m))
            s = rem.get(k, Fraction(0)) - tc * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return _as_poly(quo), _as_poly(out)


def _as_poly(terms: dict) -> MultiPoly:
    return MultiPoly({Monomial(dict(k)): c for k, c in terms.items()})


# -- strategies -------------------------------------------------------------------


@st.composite
def polys(draw, max_terms=5):
    terms = draw(st.lists(st.tuples(exponent_dicts, coeffs), max_size=max_terms))
    return MultiPoly([(Monomial(m), c) for m, c in terms])


def _atom(text: str) -> MultiPoly:
    one = MultiPoly.const(1)
    if text.startswith("1 - a*"):
        return one - MultiPoly.var("a") * MultiPoly.var(text[len("1 - a*"):])
    left, right = text.split(" + ")
    return MultiPoly.var(left) + MultiPoly.var(right)


ATOMS = ["1 - a*x1", "1 - a*x2", "1 - a*x10", "x1 + z1", "x2 + z1"]

divisors = st.one_of(
    st.sampled_from(ATOMS).map(_atom),
    polys().filter(lambda p: not p.is_constant()),
)


# -- monomials --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(exponent_dicts, exponent_dicts)
def test_monomial_product_matches_dict_reference(a, b):
    got = Monomial(a) * Monomial(b)
    assert got == Monomial(ref_mul(a, b))
    assert got.exps == Monomial(ref_mul(a, b)).exps
    assert hash(got) == hash(Monomial(ref_mul(a, b)))


@settings(max_examples=200, deadline=None)
@given(exponent_dicts, exponent_dicts)
def test_monomial_divide_matches_dict_reference(a, b):
    expected = ref_divide(a, b)
    got = Monomial(a).divide(Monomial(b))
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.exps == Monomial(expected).exps
    # a product always divides back
    assert (Monomial(a) * Monomial(b)).divide(Monomial(b)) == Monomial(a)


@settings(max_examples=200, deadline=None)
@given(st.lists(exponent_dicts, min_size=1, max_size=8))
def test_monomial_key_order_matches_dense_reference(ms):
    key = ref_order(ms)
    by_ref = sorted(ms, key=key)
    by_key = sorted(ms, key=lambda m: Monomial(m).key())
    assert [Monomial(m) for m in by_key] == [Monomial(m) for m in by_ref]


@settings(max_examples=100, deadline=None)
@given(exponent_dicts)
def test_constructor_sorts_and_drops_zero_exponents(a):
    expected = tuple(sorted(((v, e) for v, e in a.items() if e), key=lambda p: var_key(p[0])))
    assert Monomial(a).exps == expected
    assert Monomial(list(a.items())[::-1]) == Monomial(a)


def test_constructor_still_validates():
    with pytest.raises(ValueError):
        Monomial({"x1": -1})
    with pytest.raises(ValueError):
        Monomial({"q1": 1})


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=8))
def test_sorted_terms_descend_in_reference_order(p):
    monos = [dict(m.exps) for m in p.terms]
    key = ref_order(monos)
    expected = sorted(monos, key=key, reverse=True)
    assert [dict(m.exps) for m, _ in p.sorted_terms()] == expected


# -- division -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(), divisors)
def test_divexact_recovers_the_cofactor(p, d):
    assert poly_divexact(p * d, d) == p
    quo, rem = ref_divmod(p * d, d)
    assert rem.is_zero() and quo == p


@settings(max_examples=150, deadline=None)
@given(polys(), divisors, polys(max_terms=2))
def test_try_div_fails_exactly_when_reference_leaves_a_remainder(p, d, e):
    # p*d + e is divisible by d for some e (e = 0, multiples of d) but not most
    f = p * d + e
    quo, rem = ref_divmod(f, d)
    got = poly_try_div(f, d)
    if rem.is_zero():
        assert got == quo
    else:
        assert got is None
        with pytest.raises(InexactDivision):
            poly_divexact(f, d)


@settings(max_examples=100, deadline=None)
@given(polys(), st.sampled_from(ATOMS).map(_atom))
def test_try_div_by_an_atom_matches_reference(p, atom):
    quo, rem = ref_divmod(p, atom)
    got = poly_try_div(p, atom)
    assert (got is None) == (not rem.is_zero())
    if got is not None:
        assert got == quo and got * atom == p


def test_division_by_a_constant_scales():
    p = MultiPoly.var("x1") + MultiPoly.const(3)
    assert poly_divexact(p, MultiPoly.const(Fraction(1, 2))) == p.scale(2)
