"""Internal accumulator for fractions whose denominators are products of a
small set of known irreducible factors.

Chain sums and identity checks add thousands of rational functions whose
denominators are powers of binomials like (1 - a*x1) or (z2 + x1).  Generic
multivariate gcd reduction on every addition is prohibitively slow; tracking
the denominator as exponents over a factor basis makes addition a matter of
aligning powers, with no gcd at all.  Conversion back to the canonical
RationalFunction form reduces factor-by-factor with cheap trial divisions,
which is complete because the registered atoms are irreducible.

This module is an implementation detail: public API surfaces everywhere
return ordinary RationalFunction / MultiPoly values.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    MultiPoly,
    RationalFunction,
    _make_primitive,
    poly_gcd,
    poly_try_div,
)


def gcd_free_atoms(polys) -> list[MultiPoly]:
    """Pairwise-coprime primitive factors covering the given polynomials."""
    basis: list[MultiPoly] = []
    queue = list(dict.fromkeys(p for p in polys if not p.is_constant()))
    while queue:
        q = _make_primitive(queue.pop())
        if q.is_constant():
            continue
        for i, atom in enumerate(basis):
            # powers of one atom are the common case: no gcd needed for them
            rest = poly_try_div(q, atom)
            if rest is not None:
                queue.append(rest)
                break
            g = poly_gcd(q, atom)
            if g.is_constant():
                continue
            # proper common factor: split the existing atom
            basis[i] = g
            cof = poly_try_div(atom, g)
            if cof is not None and not cof.is_constant():
                queue.append(cof)
            rest = poly_try_div(q, g)
            if rest is not None:
                queue.append(rest)
            break
        else:
            if not any(q == atom for atom in basis):
                basis.append(q)
    return basis


class FactorRegistry:
    """Fixed list of irreducible denominator atoms for one computation."""

    def __init__(self, seeds=(), *, atoms=None):
        """Atoms covering the seed denominators; or the given atoms as they
        are, when the caller knows them to be irreducible and coprime."""
        if atoms is None:
            atoms = gcd_free_atoms(list(seeds))
        self.atoms: list[MultiPoly] = list(atoms)
        self._powcache: dict = {}

    def factor(self, den: MultiPoly):
        """Split den into atom powers; the leftover must be constant."""
        powers = [0] * len(self.atoms)
        work = den
        for i, atom in enumerate(self.atoms):
            if work.is_constant():
                break
            while True:
                q = poly_try_div(work, atom)
                if q is None:
                    break
                powers[i] += 1
                work = q
        if not work.is_constant():
            raise ValueError(
                f"denominator does not factor over the registered atoms: {work!r}"
            )
        return powers, work.constant_value()

    def one(self) -> "FFrac":
        return FFrac(self, MultiPoly.const(1), (0,) * len(self.atoms))

    def zero(self) -> "FFrac":
        return FFrac(self, MultiPoly(), (0,) * len(self.atoms))

    def from_poly(self, p: MultiPoly) -> "FFrac":
        return FFrac(self, p, (0,) * len(self.atoms))

    def from_rf(self, f: RationalFunction) -> "FFrac":
        powers, const = self.factor(f.den)
        num = f.num if const == 1 else f.num.scale(Fraction(1, 1) / const)
        return FFrac(self, num, tuple(powers))

    def atom_power(self, i: int, k: int) -> MultiPoly:
        got = self._powcache.get((i, k))
        if got is None:
            got = self._powcache[(i, k)] = self.atoms[i] ** k
        return got


class FFrac:
    """num / prod(atoms[i] ** powers[i]) with shared registry."""

    __slots__ = ("reg", "num", "powers")

    def __init__(self, reg: FactorRegistry, num: MultiPoly, powers):
        self.reg = reg
        self.num = num
        self.powers = tuple(powers) if not num.is_zero() else (0,) * len(reg.atoms)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other: "FFrac") -> "FFrac":
        if self.num.is_zero() or other.num.is_zero():
            return self.reg.zero()
        return FFrac(
            self.reg,
            self.num * other.num,
            tuple(p + q for p, q in zip(self.powers, other.powers)),
        )

    def __add__(self, other: "FFrac") -> "FFrac":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.powers == other.powers:
            return FFrac(self.reg, self.num + other.num, self.powers)
        target = tuple(max(p, q) for p, q in zip(self.powers, other.powers))
        a = self.num
        for i, (t, p) in enumerate(zip(target, self.powers)):
            if t > p:
                a = a * self.reg.atom_power(i, t - p)
        b = other.num
        for i, (t, q) in enumerate(zip(target, other.powers)):
            if t > q:
                b = b * self.reg.atom_power(i, t - q)
        return FFrac(self.reg, a + b, target)

    def __neg__(self) -> "FFrac":
        return FFrac(self.reg, -self.num, self.powers)

    def __sub__(self, other: "FFrac") -> "FFrac":
        return self + (-other)

    def reduce(self) -> "FFrac":
        """Cancel atoms dividing the numerator (complete: atoms irreducible)."""
        if self.num.is_zero():
            return self.reg.zero()
        num = self.num
        powers = list(self.powers)
        for i, atom in enumerate(self.reg.atoms):
            while powers[i] > 0:
                q = poly_try_div(num, atom)
                if q is None:
                    break
                num = q
                powers[i] -= 1
        return FFrac(self.reg, num, tuple(powers))

    def to_rf(self) -> RationalFunction:
        red = self.reduce()
        den = MultiPoly.const(1)
        for i, p in enumerate(red.powers):
            if p:
                den = den * self.reg.atom_power(i, p)
        # atoms are irreducible and none divides the numerator, so the
        # fraction is reduced; only content/sign normalization remains
        return RationalFunction._coprime(red.num, den)
