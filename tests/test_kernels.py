"""Property tests for the algebra kernels under every chain sum: monomial
order, products and quotients, polynomial arithmetic and maps, and exact
polynomial division.

Each is compared with a plain reference kept here: monomials as exponent
dicts ordered by a dense exponent vector, polynomials as dicts from frozen
exponent dicts to Fractions, and long division that rescans for the
leading term after every step and moves a leading term the divisor cannot
divide into the remainder.  A single divisor is a Groebner basis of the
ideal it generates, so that remainder is zero exactly when the divisor
divides the dividend.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothpoly.algebra import (
    InexactDivision,
    Monomial,
    MultiPoly,
    monomial_content,
    poly_divexact,
    poly_from_json,
    poly_to_json,
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
    rem = {_frozen(dict(m.exps)): c for m, c in p.items()}
    div = {_frozen(dict(m.exps)): c for m, c in d.items()}
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


def ref_terms(p: MultiPoly) -> dict:
    """p as a dict from frozen exponent dicts to Fractions."""
    return {_frozen(dict(m.exps)): Fraction(c) for m, c in p.items()}


def _collect(pairs) -> dict:
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    return _collect(itertools.chain(a.items(), b.items()))


def ref_poly_mul(a: dict, b: dict) -> dict:
    return _collect(
        (_frozen(ref_mul(dict(ka), dict(kb))), ca * cb)
        for ka, ca in a.items() for kb, cb in b.items()
    )


def ref_pow(a: dict, k: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(k):
        out = ref_poly_mul(out, a)
    return out


def ref_degree_in(a: dict, name: str) -> int:
    return max((dict(k).get(name, 0) for k in a), default=-1)


def ref_coeff_in(a: dict, name: str, e: int) -> dict:
    return {
        _frozen({v: x for v, x in k if v != name}): c
        for k, c in a.items() if dict(k).get(name, 0) == e
    }


def ref_rename(a: dict, mapping: dict) -> dict:
    def moved(k):
        out: dict = {}
        for v, e in k:
            w = mapping.get(v, v)
            out[w] = out.get(w, 0) + e
        return _frozen(out)

    return _collect((moved(k), c) for k, c in a.items())


def ref_substitute(a: dict, bindings: dict) -> dict:
    """Expand a with each bound name replaced by a reference polynomial."""
    total: dict = {}
    for k, c in a.items():
        term = {_frozen({v: e for v, e in k if v not in bindings}): c}
        for v, e in k:
            if v in bindings:
                term = ref_poly_mul(term, ref_pow(bindings[v], e))
        total = ref_add(total, term)
    return total


# -- strategies -------------------------------------------------------------------


@st.composite
def polys(draw, max_terms=5):
    terms = draw(st.lists(st.tuples(exponent_dicts, coeffs), max_size=max_terms))
    return MultiPoly([(Monomial(m), c) for m, c in terms])


# a valid name that no test builds a monomial in: its slot is never assigned
UNSEEN = "y77"
names = st.sampled_from(NAMES)
renamings = st.dictionaries(names, names, max_size=3)


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


def _term(m: dict) -> MultiPoly:
    return MultiPoly([(Monomial(m), 1)])


@settings(max_examples=200, deadline=None)
@given(exponent_dicts, exponent_dicts)
def test_monomial_product_matches_dict_reference(a, b):
    # monomials multiply only inside polynomials, by adding packed keys
    expected = Monomial(ref_mul(a, b))
    for got in (_term(a).mul_monomial(Monomial(b)), _term(a) * _term(b)):
        assert dict(got.items()) == {expected: 1}
        (m, _), = got.items()
        assert m.exps == expected.exps and hash(m) == hash(expected)


@settings(max_examples=200, deadline=None)
@given(exponent_dicts, exponent_dicts)
def test_monomial_divide_matches_dict_reference(a, b):
    # a monomial quotient is exact division of one-term polynomials
    expected = ref_divide(a, b)
    got = poly_try_div(_term(a), _term(b))
    if expected is None:
        assert got is None
    else:
        assert got is not None and dict(got.items()) == {Monomial(expected): 1}
    # a product always divides back
    assert poly_divexact(_term(a).mul_monomial(Monomial(b)), _term(b)) == _term(a)


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
def test_sorted_terms_and_leading_term_agree_with_monomial_key(p):
    monos = [m for m, _ in p.items()]
    terms = poly_to_json(p)
    assert [Monomial(t["exps"]) for t in terms] == sorted(monos, key=Monomial.key, reverse=True)
    if p:
        lead, c = max(p.items(), key=lambda t: t[0].key())
        assert (Monomial(terms[0]["exps"]), terms[0]["coeff"]) == (lead, str(c))


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=8))
def test_sorted_terms_descend_in_reference_order(p):
    monos = [dict(m.exps) for m, _ in p.items()]
    key = ref_order(monos)
    expected = sorted(monos, key=key, reverse=True)
    assert [t["exps"] for t in poly_to_json(p)] == expected


# -- polynomial arithmetic and maps ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.integers(min_value=0, max_value=3))
def test_ring_operations_match_reference(p, q, k):
    a, b = ref_terms(p), ref_terms(q)
    assert ref_terms(p + q) == ref_add(a, b)
    assert ref_terms(p - q) == ref_add(a, {m: -c for m, c in b.items()})
    assert ref_terms(p * q) == ref_poly_mul(a, b)
    assert ref_terms(p**k) == ref_pow(a, k)


@settings(max_examples=150, deadline=None)
@given(polys(), st.sampled_from(NAMES + [UNSEEN]), st.integers(min_value=0, max_value=3))
def test_coeff_in_and_degree_in_match_reference(p, name, e):
    a = ref_terms(p)
    assert p.degree_in(name) == ref_degree_in(a, name)
    assert ref_terms(p.coeff_in(name, e)) == ref_coeff_in(a, name, e)


@settings(max_examples=150, deadline=None)
@given(polys(), renamings)
@example(MultiPoly.var("x1") * MultiPoly.var("x2", 2) - MultiPoly.var("x2", 3), {"x1": "x2"})
@example(MultiPoly.var("x1") + MultiPoly.var("y1", 2), {"x1": "y1", "y1": "x1"})
def test_rename_vars_matches_reference(p, mapping):
    # the first example collides x1*x2^2 with x2^3 and cancels them
    assert ref_terms(p.rename_vars(mapping)) == ref_rename(ref_terms(p), mapping)


@settings(max_examples=150, deadline=None)
@given(polys().filter(bool))
def test_monomial_content_matches_reference(p):
    monos = [dict(m.exps) for m, _ in p.items()]
    expected = {v: min(m.get(v, 0) for m in monos) for v in NAMES}
    assert monomial_content(p) == Monomial(expected)


@settings(max_examples=80, deadline=None)
@given(polys(max_terms=4), st.dictionaries(names, polys(max_terms=2), max_size=2))
def test_substitute_matches_reference(p, bindings):
    got = p.substitute(bindings)
    assert got.is_polynomial()
    expected = ref_substitute(ref_terms(p), {v: ref_terms(q) for v, q in bindings.items()})
    assert ref_terms(got.num) == expected


_fresh = (f"z{i}" for i in itertools.count(1000))


@settings(max_examples=25, deadline=None)
@given(polys(max_terms=6))
def test_polynomials_stay_valid_after_a_new_variable(p):
    before = (ref_terms(p), poly_to_json(p), p.variables())
    z = MultiPoly.var(next(_fresh))
    # the same terms, built anew, and p with its cached order
    again = _as_poly(before[0])
    for q in (p, again):
        assert (ref_terms(q), poly_to_json(q), q.variables()) == before
        assert poly_from_json(poly_to_json(q)) == p
    pz = p * z
    assert (pz * z).coeff_in(z.variables().pop(), 2) == p
    assert poly_divexact(pz, z) == p
    assert pz.variables() == (p.variables() | z.variables() if p else set())


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


@settings(max_examples=150, deadline=None)
@given(polys(), divisors)
@example(MultiPoly.var("x1") * MultiPoly.var("y1", 3), MultiPoly.var("x1", 2) + MultiPoly.const(1))
@example(MultiPoly.var("x2", 3) + MultiPoly.var("x1"), MultiPoly.var("x1") * MultiPoly.var("x2"))
def test_try_div_of_unrelated_polynomials_matches_reference(p, d):
    # mostly inexact: some exponent of the dividend is below the divisor's,
    # and the key subtraction borrows from the next slot
    quo, rem = ref_divmod(p, d)
    got = poly_try_div(p, d)
    assert (got is None) == (not rem.is_zero())
    if got is not None:
        assert got == quo


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
