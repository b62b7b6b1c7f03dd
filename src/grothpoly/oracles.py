"""Independent reference implementation of the three single-variable skew
weights and their branching recursions.

This module deliberately never imports the lattice machinery (models,
transfer); it depends only on partition statistics and exact arithmetic, so
equality between branch_poly and the transfer-matrix constructors is a real
two-route check.
"""

from __future__ import annotations

from . import factored
from .algebra import ALPHA, BETA, RationalFunction, as_rf
from .factored import FactorRegistry
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

ONE = RationalFunction.one()
ZERO = RationalFunction.zero()

SKEW_KINDS = ("G", "g", "j")


def skew_weight(kind: str, lam, mu, x) -> RationalFunction:
    """Single-variable skew weight from the closed branching formulas.

    G: (x/(1-ax))^|lam/mu| ((1+bx)/(1-ax))^r(mu/lam-bar) on horizontal strips;
    g: b^(r-k) (a+b)^(|lam/mu|-r-c+k) x^k (a+x)^(c-k) whenever mu <= lam,
       with (r, c, k) = (rows, columns, components) of the skew shape;
    j: x^c (1+x)^(|lam/mu|-c) on vertical strips.
    Zero outside the stated support.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    x = as_rf(x)
    if kind == "G":
        if not is_horizontal_strip(lam, mu):
            return ZERO
        boxes = size(lam) - size(mu)
        rows = outer_row_stat(lam, mu)
        return (x / (ONE - ALPHA * x)) ** boxes * (
            (ONE + BETA * x) / (ONE - ALPHA * x)
        ) ** rows
    if kind == "g":
        if not contains(lam, mu):
            return ZERO
        r, c, k = skew_stats(lam, mu)
        boxes = size(lam) - size(mu)
        return (
            BETA ** (r - k)
            * (ALPHA + BETA) ** (boxes - r - c + k)
            * x**k
            * (x + ALPHA) ** (c - k)
        )
    if kind == "j":
        if not is_vertical_strip(lam, mu):
            return ZERO
        _, c, _ = skew_stats(lam, mu)
        boxes = size(lam) - size(mu)
        return x**c * (ONE + x) ** (boxes - c)
    raise ValueError(f"unknown skew weight kind {kind!r}")


_STEPS = {"G": horizontal_strip_subs, "g": subpartitions, "j": vertical_strip_subs}


def branch_poly(kind: str, lam, n: int) -> RationalFunction:
    """n-variable polynomial by the branching recursion
    F_lam(x_1..x_n) = sum_mu F_mu(x_1..x_{n-1}) * skew(lam, mu)(x_n)."""
    if kind not in _STEPS:
        raise ValueError(f"unknown branching kind {kind!r}")
    if n < 0:
        raise ValueError(f"negative number of variables: {n}")
    lam = check_partition(lam)
    variables = [f"x{i}" for i in range(1, n + 1)]
    steps = _STEPS[kind]
    # the only denominators are powers of (1 - a*x_k) from the G weights
    seeds = [
        skew_weight(kind, (1,), (), RationalFunction.var(v)).den for v in variables
    ]
    reg = FactorRegistry([d for d in seeds if not d.is_constant()])
    memo: dict = {}

    def value(mu, k):
        if k == 0:
            return factored.ONE if mu == () else factored.ZERO
        key = (mu, k)
        got = memo.get(key)
        if got is not None:
            return got
        xk = RationalFunction.var(variables[k - 1])
        total = factored.ZERO
        for prev in steps(mu):
            below = value(prev, k - 1)
            if below.is_zero():
                continue
            w = skew_weight(kind, mu, prev, xk)
            if not w.is_zero():
                total = total + below * reg.from_rf(w)
        memo[key] = total
        return total

    try:
        return value(lam, len(variables)).to_rf()
    finally:
        del value  # value refers to itself: break the cycle now, not at a GC pass
