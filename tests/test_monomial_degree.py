"""The stored total degree of a Monomial equals the sum of its exponents on
every path that builds one: the public constructor and the polynomial maps
that assemble exponent tuples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.algebra import Monomial, MultiPoly

NAMES = ["x1", "x2", "x3", "y1", "z1", "a", "b"]
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 4)).map(Monomial)
polys = st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=5).map(MultiPoly)


def exact(m: Monomial) -> bool:
    return m.degree() == sum(e for _, e in m.exps)


@settings(max_examples=200, deadline=None)
@given(m1=monomials, p=polys, name=st.sampled_from(NAMES), k=st.integers(0, 4))
def test_stored_degree_is_the_exponent_sum(m1, p, name, k):
    assert exact(m1)
    assert all(exact(m) for m, _ in p.coeff_in(name, k).items())
    assert all(exact(m) for m, _ in p.rename_vars({name: "w1"}).items())
    assert all(exact(m) for m, _ in (p * p).items())
