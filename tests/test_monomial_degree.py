"""The stored total degree of a Monomial equals the sum of its exponents on
every path that builds one: the public constructor, products, quotients,
and the polynomial and series maps that assemble exponent tuples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.algebra import Monomial, MultiPoly, split_monomial

NAMES = ["x1", "x2", "x3", "y1", "z1", "a", "b"]
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 4)).map(Monomial)
polys = st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=5).map(MultiPoly)


def exact(m: Monomial) -> bool:
    return m.degree() == sum(e for _, e in m.exps)


@settings(max_examples=200, deadline=None)
@given(m1=monomials, m2=monomials, p=polys, name=st.sampled_from(NAMES), k=st.integers(0, 4))
def test_stored_degree_is_the_exponent_sum(m1, m2, p, name, k):
    assert exact(m1) and exact(m1 * m2)
    q = (m1 * m2).divide(m2)
    assert q == m1 and exact(q)
    assert m1.divide(m2) is None or exact(m1.divide(m2))
    assert all(map(exact, p.coeff_in(name, k).terms))
    assert all(map(exact, p.scale_vars({name: 2}).terms))
    assert all(map(exact, p.rename_vars({name: "w1"}).terms))
    assert all(map(exact, split_monomial(m1, {name, "x1"})))
    assert all(map(exact, (p * p).terms))
