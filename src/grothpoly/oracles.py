"""Independent reference implementation of the three single-variable skew
weights and their branching recursions.

This module deliberately never imports the lattice machinery (models,
transfer, factored); it depends only on partition statistics and polynomial
arithmetic, so equality between branch_poly and the transfer-matrix
constructors is a real two-route check.
"""

from __future__ import annotations

from .algebra import MultiPoly, RationalFunction, as_rf, poly_try_div
from .partitions import (
    check_partition,
    contains,
    horizontal_strip_subs,
    is_horizontal_strip,
    is_vertical_strip,
    outer_row_stat,
    skew_stats,
    size,
    subpartitions,
    vertical_strip_subs,
)

_ONE = MultiPoly.const(1)
_A, _B = MultiPoly.var("a"), MultiPoly.var("b")


def _skew_parts(kind: str, lam, mu, x: MultiPoly) -> tuple:
    """(num, e): the skew weight of lam/mu at x is num / (1 - a*x)**e, with
    num = 0 outside its support and e = boxes + rows for G, 0 otherwise."""
    boxes = size(lam) - size(mu)
    if kind == "G":
        if not is_horizontal_strip(lam, mu):
            return MultiPoly(), 0
        rows = outer_row_stat(lam, mu)
        return x**boxes * (_ONE + _B * x) ** rows, boxes + rows
    if kind == "g":
        if not contains(lam, mu):
            return MultiPoly(), 0
        r, c, k = skew_stats(lam, mu)
        return _B ** (r - k) * (_A + _B) ** (boxes - r - c + k) * x**k * (x + _A) ** (c - k), 0
    if kind == "j":
        if not is_vertical_strip(lam, mu):
            return MultiPoly(), 0
        _, c, _ = skew_stats(lam, mu)
        return x**c * (_ONE + x) ** (boxes - c), 0
    raise ValueError(f"unknown skew weight kind {kind!r}")


def skew_weight(kind: str, lam, mu, x) -> RationalFunction:
    """Single-variable skew weight at a polynomial x, by the closed formulas.

    G: (x/(1-ax))^|lam/mu| ((1+bx)/(1-ax))^r(mu/lam-bar) on horizontal strips;
    g: b^(r-k) (a+b)^(|lam/mu|-r-c+k) x^k (a+x)^(c-k) whenever mu <= lam,
       with (r, c, k) = (rows, columns, components) of the skew shape;
    j: x^c (1+x)^(|lam/mu|-c) on vertical strips.
    Zero outside the stated support.  A factor of 1 - a*x dividing x or
    1 + b*x would divide 1 or a + b, so num and den are coprime.
    """
    x = as_rf(x).as_poly()
    num, e = _skew_parts(kind, check_partition(lam), check_partition(mu), x)
    return RationalFunction._coprime(num, (_ONE - _A * x) ** e)


_STEPS = {"G": horizontal_strip_subs, "g": subpartitions, "j": vertical_strip_subs}


def branch_poly(kind: str, lam, n: int) -> RationalFunction:
    """n-variable polynomial by the branching recursion
    F_lam(x_1..x_n) = sum_mu F_mu(x_1..x_{n-1}) * skew(lam, mu)(x_n),
    summed as numerators over prod (1 - a*x_k)**E.  For g and j, E = 0; for
    G, E = lam_1 bounds boxes + rows: row i of a horizontal strip mu/nu adds
    mu_i - nu_i boxes and one row only if nu_i > mu_{i+1}, at most
    mu_i - mu_{i+1} in all, so boxes + rows <= mu_1 <= lam_1."""
    if kind not in _STEPS:
        raise ValueError(f"unknown branching kind {kind!r}")
    if n < 0:
        raise ValueError(f"negative number of variables: {n}")
    lam = check_partition(lam)
    steps = _STEPS[kind]
    E = lam[0] if kind == "G" and lam else 0
    # levels[j]: the shapes whose value at n - j variables is needed
    levels = [{lam}]
    for _ in range(n):
        levels.append({prev for mu in levels[-1] for prev in steps(mu)})
    values = {(): _ONE}
    dens = []
    for k in range(1, n + 1):
        x = MultiPoly.var(f"x{k}")
        dens.append(_ONE - _A * x)
        lifts = [_ONE]
        while len(lifts) <= E:
            lifts.append(lifts[-1] * dens[-1])
        below_values, values = values, {}
        for mu in levels[n - k]:
            total = MultiPoly()
            for prev in steps(mu):
                below = below_values.get(prev)
                if below is not None:
                    num, e = _skew_parts(kind, mu, prev, x)
                    if num:
                        total = total + below * (num if e == E else num * lifts[E - e])
            if total:
                values[mu] = total
    num = values.get(lam)
    if num is None:
        return RationalFunction.zero()
    # each 1 - a*x_k is irreducible and coprime to the others: after trial
    # division none divides num, so num over the rest is reduced
    den = _ONE
    for d in dens:
        e = E
        while e and (rest := poly_try_div(num, d)) is not None:
            num, e = rest, e - 1
        den = den * d**e
    return RationalFunction._coprime(num, den)
