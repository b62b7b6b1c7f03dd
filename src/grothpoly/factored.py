"""Factored fractions over one process-wide table of interned atoms.

The lattice weights and R-matrix entries are rationals times powers of a
few linear forms (x, 1 - a*x, 1 + b*x, x + a, a + b, x - y, 1 - x*y, ...)
at every spectral argument the checks use.  Each form is interned once per
process as an *atom*: primitive, with positive leading coefficient and no
monomial content, numbered by first use.  An FFrac is a polynomial over a
product of atom powers: products, quotients and powers are exponent
arithmetic, and a sum lifts both numerators to the larger powers, no gcd.

An atom of degree 1 in some variable whose coefficient and remainder are
coprime (say, one is constant) is irreducible, so trial division by such
atoms reduces completely.
Other factors (only through the library API, say a non-linear
inhomogeneity) are split by trial division over the known atoms and the
rest is interned unproven; to_rf reduces a fraction over one by the gcd.
Public API surfaces return RationalFunction / MultiPoly values.
"""

from __future__ import annotations

from .algebra import (
    DivisionByZero,
    MultiPoly,
    RationalFunction,
    _POLY_ONE,
    _quo_monomial,
    _unit,
    as_rf,
    monomial_content,
    poly_gcd,
    poly_try_div,
    var_key,
)

# the atom table: id -> polynomial, and whether it is proven irreducible
_ATOMS: list[MultiPoly] = []
_PROVEN: list[bool] = []
_IDS: dict = {}  # polynomial -> id
_POWERS: dict = {}  # (id, k) -> atom ** k
_RENAMED: dict = {}  # (id, renaming) -> factor() of the renamed atom


def _degree_one(q: MultiPoly) -> bool:
    """q has degree 1 in some variable with a constant coefficient or
    remainder or, failing that, with coprime ones; without monomial content
    such a q is irreducible."""
    parts = [
        (q.coeff_in(v, 1), q.coeff_in(v, 0))
        for v in sorted(q.variables(), key=var_key) if q.degree_in(v) == 1
    ]
    return any(c.is_constant() or r.is_constant() for c, r in parts) or any(
        poly_gcd(c, r).is_constant() for c, r in parts
    )


def _atom_id(q: MultiPoly, proven: bool) -> int:
    i = _IDS.get(q)
    if i is None:
        i = _IDS[q] = len(_ATOMS)
        _ATOMS.append(q)
        _PROVEN.append(proven)
    return i


def atom_power(i: int, k: int) -> MultiPoly:
    got = _POWERS.get((i, k))
    if got is None:
        got = _POWERS[(i, k)] = _ATOMS[i] ** k
    return got


def _tally(net: dict, powers, scale: int = 1) -> dict:
    for i, k in powers:
        net[i] = net.get(i, 0) + scale * k
    return net


def factor(p: MultiPoly) -> tuple:
    """p = const * prod(atom ** k) as (const, ((id, k), ...)) sorted by id,
    interning the atoms not seen before; const is an int or a Fraction."""
    if p.is_zero():
        raise DivisionByZero("division by zero")
    mono = monomial_content(p)
    powers = {_atom_id(MultiPoly.var(v), True): e for v, e in mono.exps}
    q = _quo_monomial(p, mono)
    const = _unit(q)
    q = q.quo(const)
    proven = True
    if not q.is_constant() and q not in _IDS and not _degree_one(q):
        # the fallback: split off the known atoms by trial division, and
        # intern the rest as one atom, proven only if it passes the test
        for i, atom in enumerate(_ATOMS):
            while (rest := poly_try_div(q, atom)) is not None:
                q = rest
                powers[i] = powers.get(i, 0) + 1
        proven = _degree_one(q)
    if not q.is_constant():
        i = _atom_id(q, proven)
        powers[i] = powers.get(i, 0) + 1
    return const, tuple(sorted(powers.items()))


def _settle(num: MultiPoly, net: dict) -> "FFrac":
    """num over the atoms of positive net power, times those of negative."""
    powers = []
    for i in sorted(net):
        k = net[i]
        if k > 0:
            powers.append((i, k))
        elif k < 0:
            num = num * atom_power(i, -k)
    return FFrac(num, tuple(powers))


def _lift(num: MultiPoly, powers: tuple, target: dict) -> MultiPoly:
    """num times the atom powers that raise powers to target, in id order."""
    have = dict(powers)
    for i in sorted(target):
        if target[i] > have.get(i, 0):
            num = num * atom_power(i, target[i] - have.get(i, 0))
    return num


class FFrac:
    """num / prod(atom[i] ** k for (i, k) in powers); powers are sorted by
    atom id, every k > 0.  Immutable: to_rf is computed once per instance
    and kept, so a value shared across calls reduces only once."""

    __slots__ = ("num", "powers", "_rf")

    def __init__(self, num: MultiPoly, powers: tuple = ()):
        self.num = num
        self.powers = powers if num.terms else ()
        self._rf = None

    def is_zero(self) -> bool:
        return not self.num.terms

    def terms_held(self) -> int:
        """Polynomial terms this value keeps alive: the numerator's, and
        once to_rf is cached, the reduced denominator's and any numerator
        the reduction made anew."""
        n = len(self.num.terms)
        rf = self._rf
        if rf is not None:
            n += len(rf.den.terms) + (0 if rf.num is self.num else len(rf.num.terms))
        return n

    def __mul__(self, other: "FFrac") -> "FFrac":
        if not self.num.terms or not other.num.terms:
            return ZERO
        return _settle(self.num * other.num, _tally(dict(self.powers), other.powers))

    def __add__(self, other: "FFrac") -> "FFrac":
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        p, q = self.powers, other.powers
        if p == q:
            return FFrac(self.num + other.num, p)
        target = dict(p)
        for i, k in q:
            target[i] = max(k, target.get(i, 0))
        return _settle(_lift(self.num, p, target) + _lift(other.num, q, target), target)

    def __neg__(self) -> "FFrac":
        return FFrac(-self.num, self.powers)

    def __sub__(self, other: "FFrac") -> "FFrac":
        return self + (-other)

    def __truediv__(self, other: "FFrac") -> "FFrac":
        """Quotient by exponent arithmetic; the divisor's numerator is
        factored over the atom table."""
        const, over = factor(other.num)
        net = _tally(_tally(dict(self.powers), other.powers, -1), over)
        return _settle(self.num.quo(const), net)

    def __pow__(self, k: int) -> "FFrac":
        if k < 0:
            return (ONE / self) ** (-k)
        if k == 0:
            return ONE
        return FFrac(self.num**k, tuple((i, j * k) for i, j in self.powers))

    def rename_vars(self, mapping: dict) -> "FFrac":
        """Rename variables in the numerator and in every atom."""
        key = tuple(sorted(mapping.items()))
        num = self.num.rename_vars(mapping)
        net: dict = {}
        for i, k in self.powers:
            got = _RENAMED.get((i, key))
            if got is None:
                got = _RENAMED[(i, key)] = factor(_ATOMS[i].rename_vars(mapping))
            const, over = got
            if const != 1:
                num = num.quo(const**k)
            _tally(net, over, k)
        return _settle(num, net)

    def reduce(self) -> "FFrac":
        """Cancel the atoms dividing the numerator."""
        num = self.num
        powers = []
        for i, k in self.powers:
            while k and (rest := poly_try_div(num, _ATOMS[i])) is not None:
                num = rest
                k -= 1
            if k:
                powers.append((i, k))
        return FFrac(num, tuple(powers))

    def to_rf(self) -> RationalFunction:
        if self._rf is not None:
            return self._rf
        red = self.reduce()
        den = _POLY_ONE
        for i, k in red.powers:
            den = atom_power(i, k) if den is _POLY_ONE else den * atom_power(i, k)
        if all(_PROVEN[i] for i, _ in red.powers):
            # irreducible atoms, none dividing the numerator: the fraction is
            # reduced, and the atoms' product is primitive and unit-normal
            self._rf = RationalFunction._coprime(red.num, den)
        else:
            self._rf = RationalFunction(red.num, den)
        return self._rf


ONE = FFrac(MultiPoly.const(1))
ZERO = FFrac(MultiPoly())


def as_ffrac(v) -> FFrac:
    """Coerce a factored fraction, rational function, polynomial, exact
    rational or variable name."""
    if isinstance(v, FFrac):
        return v
    if isinstance(v, MultiPoly):
        return FFrac(v)
    f = as_rf(v)
    return FFrac(f.num) / FFrac(f.den)


class FactorRegistry:
    """Seeded view of the atom table: interning the seed polynomials up
    front lets from_rf split their powers by trial division."""

    def __init__(self, seeds=()):
        for p in seeds:
            factor(p)

    def one(self) -> FFrac:
        return ONE

    def zero(self) -> FFrac:
        return ZERO

    def from_rf(self, f: RationalFunction) -> FFrac:
        return as_ffrac(f)
