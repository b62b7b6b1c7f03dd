"""G_lam against its bialternant formula (Yeliussizov, J. Algebraic Combin.
45 (2017)):

    G_lam = det[x_i^(lam_j+n-j) (1+b x_i)^(j-1) (1-a x_i)^(-lam_j)]
            / prod_{i<j} (x_i - x_j),

with lam padded by zeros to n parts, and G_lam = 0 when lam has more than n
parts.  This route shares only polynomial arithmetic with the chain sums,
not the partition step functions, so a fault in those fails here.  Row i
is scaled by (1-a x_i)^lam_1, which makes every entry a polynomial; the
determinant is taken by fraction-free (Bareiss) elimination, and the
comparison is by cross-multiplication, with no gcd.
"""

import functools
import operator

import pytest

from grothpoly.algebra import MultiPoly, poly_divexact
from grothpoly.transfer import groth_poly

_ONE = MultiPoly.const(1)
_A, _B = MultiPoly.var("a"), MultiPoly.var("b")


def _partitions(size, largest=None):
    """Every partition of size with parts at most largest."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, first):
            yield (first,) + rest


def _det(m):
    """Determinant of a square matrix of polynomials by Bareiss elimination;
    every division is exact.  No pivot search: the k-th pivot is a leading
    principal minor, a nonzero bialternant in distinct variables."""
    m = [row[:] for row in m]
    n, prev = len(m), _ONE
    for k in range(n - 1):
        assert not m[k][k].is_zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = poly_divexact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[-1][-1] if n else _ONE


def _bialternant(lam, n):
    """(det, scale): G_lam in n variables is det / scale."""
    lam = lam + (0,) * (n - len(lam))
    xs = [MultiPoly.var(f"x{i}") for i in range(1, n + 1)]
    top = lam[0] if lam else 0
    matrix = [
        [x ** (lam[j] + n - 1 - j) * (_ONE + _B * x) ** j * (_ONE - _A * x) ** (top - lam[j]) for j in range(n)]
        for x in xs
    ]
    vandermonde = [xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)]
    scale = [(_ONE - _A * x) ** top for x in xs]
    return _det(matrix), functools.reduce(operator.mul, vandermonde + scale, _ONE)


CASES = [(lam, n) for n in range(4) for size in range(7) for lam in _partitions(size)]
CASES += [(lam, 4) for size in range(5) for lam in _partitions(size)]


@pytest.mark.parametrize("lam,n", CASES, ids=lambda v: str(v).replace(" ", ""))
def test_groth_poly_equals_bialternant(lam, n):
    G = groth_poly(lam, n)
    if len(lam) > n:
        assert G.is_zero()
        return
    det, scale = _bialternant(lam, n)
    assert G.num * scale == det * G.den
