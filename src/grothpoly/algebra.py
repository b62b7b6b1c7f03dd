"""Exact arithmetic foundation: sparse multivariate polynomials over the
rationals, reduced rational functions, and truncated power series.

All coefficients are exact rationals in one canonical form: an ``int`` when
the value is integral, a ``fractions.Fraction`` only when it is not.  Every
division of coefficients goes through ``_quo``, which stays exact, so
nothing in this module ever rounds.  Rational functions are normalized on
construction (polynomial gcd removed, denominator content 1 with positive
leading coefficient), so ``==`` is a structural comparison that decides
mathematical equality.

Variable names come from a fixed alphabet: ``x1, x2, ...``, ``y1, ...``,
``z1, ...``, ``w1, ...`` plus the deformation parameters ``a`` (alpha) and
``b`` (beta).  Monomials are ordered graded-lexicographically with variable
priority x < y < z < w < a < b.

Inside a ``MultiPoly`` a monomial is one packed int: one process-wide
variable table gives each variable a 16-bit slot at first use, 15 bits of
exponent under a guard bit.  A product of monomials is an integer sum, a
quotient a difference whose guard bits show a borrow.  ``Monomial`` is the
public value type built from and read back into that key.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import compress, count, repeat
from math import gcd as _igcd, lcm as _ilcm
from operator import getitem, or_


class DivisionByZero(ZeroDivisionError):
    pass


class NotExpandable(ValueError):
    """Denominator has no invertible constant term in the series variables."""


class BoundMismatch(ValueError):
    """Truncated series with different degree bounds were combined."""


class InexactDivision(ArithmeticError):
    pass


class ExponentOverflow(ValueError):
    """An exponent exceeds MAX_EXPONENT, the largest a slot holds."""


_FAMILY_RANK = {"x": 0, "y": 1, "z": 2, "w": 3, "a": 4, "b": 5}
_VAR_KEYS: dict = {}


def var_key(name: str) -> tuple[int, int]:
    """Priority key for a variable name; lower sorts first in lex order."""
    key = _VAR_KEYS.get(name)
    if key is None:
        fam = name[0]
        if fam not in _FAMILY_RANK:
            raise ValueError(f"unknown variable family: {name!r}")
        idx = int(name[1:]) if len(name) > 1 else 0
        key = _VAR_KEYS[name] = (_FAMILY_RANK[fam], idx)
    return key


# The variable table: a packed key holds a variable's exponent in bits
# [s, s + 15) of its slot at shift s, and keeps bit s + 15 clear.  A sum of
# two keys sets that guard bit where an exponent overflows; a difference
# sets it where the subtrahend's exponent is the larger (the borrow).
_SLOT_BITS = 16
MAX_EXPONENT = (1 << (_SLOT_BITS - 1)) - 1
_SHIFTS: dict = {}  # name -> shift of its slot
_NAMES: list = []  # slot -> name
_RANKS: list = []  # slot -> var_key of its name
_GUARD = 0  # the guard bits of every slot in use
_BYTEORDER = sys.byteorder


def _shift(name: str) -> int:
    """Shift of name's slot, assigned at first use."""
    s = _SHIFTS.get(name)
    if s is None:
        global _GUARD
        _RANKS.append(var_key(name))
        s = _SHIFTS[name] = _SLOT_BITS * len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (s + _SLOT_BITS - 1)
    return s


def _mask(names) -> int:
    """Key with every exponent bit of the named variables' slots set."""
    return sum(MAX_EXPONENT << _SHIFTS[v] for v in names if v in _SHIFTS)


def _exponents(k: int):
    """The exponents of key k, one per slot in slot order, up to the
    highest slot k uses: slots of variables named later cost nothing."""
    size = (k.bit_length() + _SLOT_BITS - 1) // _SLOT_BITS * 2
    return memoryview(k.to_bytes(size, _BYTEORDER)).cast("H")


def _decorated(t: dict):
    """Each key of t as (degree, exponents in var_key order, key), and the
    names of those exponents.  Keys are converted up to the highest slot t
    uses and only the slots some key uses are kept, so variables named
    after t's cost nothing here.  Tuples compare in graded-lex order, and
    never reach the key: no two keys have the same exponents."""
    used = _exponents(reduce(or_, t, 0))
    slots = sorted(compress(count(), used), key=_RANKS.__getitem__)
    # every key's slots in one array: slot j of the i-th key at i * len(used) + j
    flat = b"".join(map(int.to_bytes, t, repeat(used.nbytes), repeat(_BYTEORDER)))
    flat = memoryview(flat).cast("H")
    es = list(zip(*[flat[j::len(used)] for j in slots])) if slots else [()] * len(t)
    return zip(map(sum, es), es, t), [_NAMES[i] for i in slots]


def _leading_key(t: dict) -> int:
    """The key of t largest in graded-lex order (t nonempty).  Of two keys
    of different degrees the larger degree leads, with no decoration."""
    if len(t) == 2:
        k1, k2 = t
        d1, d2 = sum(_exponents(k1)), sum(_exponents(k2))
        if d1 != d2:
            return k1 if d1 > d2 else k2
    return next(iter(t)) if len(t) == 1 else max(_decorated(t)[0])[2]


def _checked(k: int) -> int:
    """k, unless some exponent in it overflowed its slot."""
    if k & _GUARD:
        raise ExponentOverflow(f"exponent above {MAX_EXPONENT}")
    return k


def _slot_min(a: int, b: int) -> int:
    """The key of gcd(a, b): the smaller exponent in every slot."""
    ge = ((a | _GUARD) - b) & _GUARD  # guard bit kept where a >= b
    take_b = ge - (ge >> (_SLOT_BITS - 1))
    return (b & take_b) | (a & ~take_b)


class Monomial:
    """Sparse exponent vector, the public face of one packed key.

    ``exps`` lists (name, exponent) pairs in var_key order, zero exponents
    never stored.  The public constructor validates; polynomial products and
    quotients add and subtract the keys themselves.
    """

    __slots__ = ("_k",)

    def __init__(self, exps=()):
        items = exps.items() if isinstance(exps, dict) else exps
        k = 0
        for v, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} of {v} above {MAX_EXPONENT}")
            if e:
                k += e << _shift(v)
        self._k = _checked(k)

    @classmethod
    def _of(cls, k: int) -> "Monomial":
        """Monomial of a valid packed key."""
        m = object.__new__(cls)
        m._k = k
        return m

    @property
    def exps(self) -> tuple:
        e = _exponents(self._k)
        slots = sorted(compress(count(), e), key=_RANKS.__getitem__)
        return tuple((_NAMES[i], e[i]) for i in slots)

    def degree(self) -> int:
        return sum(_exponents(self._k))

    def key(self):
        """Total-order key: bigger key means bigger in graded-lex order."""
        return self.degree(), tuple((-var_key(v)[0], -var_key(v)[1], e) for v, e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __repr__(self):
        if not self._k:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


def _coeff(c):
    """Canonical coefficient: an int when c is integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


def _quo(a, b):
    """Exact quotient a/b of two coefficients (ints or Fractions), in
    canonical form: ``//`` when the division is exact, a Fraction
    otherwise; never ``int / int``, which would be a float."""
    if type(a) is int:
        if type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        a = Fraction(a)
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _has_fraction(t: dict) -> bool:
    return Fraction in map(type, t.values())


def _canonical(t: dict) -> bool:
    """Turn the integral Fractions among t's values into ints, in place;
    True when a Fraction is left."""
    frac = False
    for m, c in t.items():
        if type(c) is not int:
            if c.denominator == 1:
                t[m] = c.numerator
            else:
                frac = True
    return frac


def _mul_into(t: dict, first: dict, second: dict) -> None:
    """Add the product of the terms first and second to the terms t, in
    place, dropping what cancels; keys are not checked for overflow."""
    get = t.get
    second = second.items()
    for m1, c1 in first.items():
        for m2, c2 in second:
            m = m1 + m2
            s = get(m)
            if s is None:
                t[m] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    t[m] = s
                else:
                    del t[m]


class MultiPoly:
    """Sparse multivariate polynomial.

    ``terms`` maps a packed monomial key, private to this module, to a
    nonzero coefficient in canonical form: an int when it is integral, a
    non-integral Fraction otherwise.  ``items()`` reads the terms back as
    ``(Monomial, coefficient)`` pairs.  Since ``3 == Fraction(3)`` and the
    two hash alike, equality and hashing do not depend on the form.
    ``_frac`` records whether some coefficient is a Fraction, so arithmetic
    on all-int operands checks no term.  A polynomial is immutable, so
    ``_json``, its canonical JSON text, is set on first render and kept.
    """

    __slots__ = ("terms", "_frac", "_json")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(m, Monomial):
                    raise TypeError(f"not a Monomial: {m!r}")
                c = _coeff(c)
                if c:
                    k = m._k
                    acc = t.get(k)
                    c = c if acc is None else _coeff(acc + c)
                    if c:
                        t[k] = c
                    elif acc is not None:
                        del t[k]
        self.terms = t
        self._frac = _has_fraction(t)

    @classmethod
    def _of(cls, terms: dict, frac: bool) -> "MultiPoly":
        """Trusted constructor: terms already canonical, frac whether any
        coefficient is a Fraction."""
        out = object.__new__(cls)
        out.terms = terms
        out._frac = frac
        return out

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = _coeff(c)
        return cls._of({0: c}, type(c) is not int) if c else cls()

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        return cls._of({Monomial({name: power})._k: 1}, False)

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0))

    def items(self):
        """The terms as (Monomial, coefficient) pairs, in no set order."""
        return [(Monomial._of(k), c) for k, c in self.terms.items()]

    def variables(self) -> set:
        return set(compress(_NAMES, _exponents(reduce(or_, self.terms, 0))))

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        s = _SHIFTS.get(name)
        if s is None:
            return 0
        return max((k >> s) & MAX_EXPONENT for k in self.terms)

    def coeff_in(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name**k, as a polynomial in the other variables."""
        s = _SHIFTS.get(name)
        if s is None:
            return self if k == 0 else MultiPoly()
        mask, want = MAX_EXPONENT << s, k << s
        out = {m ^ want: c for m, c in self.terms.items() if m & mask == want}
        return MultiPoly._of(out, self._frac and _has_fraction(out))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            if s is None:
                t[m] = c
            else:
                s += c
                if s:
                    t[m] = s
                else:
                    del t[m]
        frac = self._frac or other._frac
        return MultiPoly._of(t, frac and _canonical(t))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({m: -c for m, c in self.terms.items()}, self._frac)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        t: dict = {}
        _mul_into(t, self.terms, other.terms)
        _checked(reduce(or_, t, 0))
        frac = self._frac or other._frac
        return MultiPoly._of(t, frac and _canonical(t))

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        if not c:
            return MultiPoly()
        t = {m: cc * c for m, cc in self.terms.items()}
        frac = self._frac or type(c) is not int
        return MultiPoly._of(t, frac and _canonical(t))

    def quo(self, c) -> "MultiPoly":
        """Every coefficient divided exactly by the nonzero rational c."""
        c = _coeff(c)
        if c == 1:
            return self
        t = {m: _quo(cc, c) for m, cc in self.terms.items()}
        return MultiPoly._of(t, _has_fraction(t))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        if k <= 1:
            return self if k else MultiPoly.const(1)
        # square-and-multiply, with no product by one
        half = (self * self) ** (k >> 1)
        return half * self if k & 1 else half

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return False
            other = MultiPoly.const(other)
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- mappings -----------------------------------------------------------
    def _shifted(self, k: int) -> "MultiPoly":
        """Every key moved by k: a product with a monomial when k >= 0, a
        quotient by a monomial dividing every term when k < 0."""
        if not k:
            return self
        t = {m + k: c for m, c in self.terms.items()}
        if k > 0:
            _checked(reduce(or_, t, 0))
        return MultiPoly._of(t, self._frac)

    def mul_monomial(self, mono: Monomial) -> "MultiPoly":
        return self._shifted(mono._k)

    def rename_vars(self, mapping: dict) -> "MultiPoly":
        """Simultaneous renaming; variables renamed onto one name multiply."""
        moves = [(_SHIFTS[v], _shift(w)) for v, w in mapping.items() if v != w and v in _SHIFTS]
        if not moves:
            return self
        clear = ~sum(MAX_EXPONENT << s for s, _ in moves)
        out: dict = {}
        for m, c in self.terms.items():
            k = m & clear
            for s, d in moves:
                k += ((m >> s) & MAX_EXPONENT) << d
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                acc += c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        _checked(reduce(or_, out, 0))
        return MultiPoly._of(out, self._frac and _canonical(out))

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at exact rational values for every variable present."""
        total = Fraction(0)
        for m, c in self.items():
            v = c
            for name, e in m.exps:
                v *= _coeff(point[name]) ** e
            total += v
        return total

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Simultaneous substitution; values may be rational functions."""
        vals = {k: as_rf(v) for k, v in bindings.items()}
        # each term multiplies its substituted powers in variable order
        bound = sorted((v for v in vals if v in _SHIFTS), key=var_key)
        bound = [(v, _SHIFTS[v]) for v in bound]
        keep = ~_mask(vals)
        total = RationalFunction.zero()
        for m, c in self.terms.items():
            term = RationalFunction.const(c)
            for name, s in bound:
                e = (m >> s) & MAX_EXPONENT
                if e:
                    term = term * vals[name] ** e
            if m & keep:
                term = term * RationalFunction(MultiPoly._of({m & keep: 1}, False))
            total = total + term
        return total

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self)})"


_POLY_ONE = MultiPoly.const(1)
_POLY_ZERO = MultiPoly()


def _content_key(p: MultiPoly) -> int:
    """Key of the largest monomial dividing every term of p (p nonzero)."""
    keys = iter(p.terms)
    g = next(keys)
    for k in keys:
        if not g:
            break
        g = _slot_min(g, k)
    return g


def monomial_content(p: MultiPoly) -> Monomial:
    """Largest monomial dividing every term of p (p nonzero)."""
    return Monomial._of(_content_key(p))


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises InexactDivision when d does not divide p.

    Terms are taken in descending order of their packed keys, which is lex
    order on the slots: a monomial order, so the quotient and the verdict
    are those of any other.  The remainder is one dict updated in place;
    its keys are popped from a heap of negated keys holding one entry per
    key of the dict.  A term that cancels keeps a zero coefficient until
    popped, so a key is never pushed twice.  Each step costs the divisor's
    length plus a heap operation, not a pass over the remainder.
    """
    if d.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if d.is_constant():
        return p.quo(d.constant_value())
    dm = max(d.terms)
    dc = d.terms[dm]
    tail = [(m, -c) for m, c in d.terms.items() if m != dm]
    r = dict(p.terms)
    heap = [-m for m in r]
    heapify(heap)
    guard = _GUARD
    q: dict = {}
    while heap:
        rm = -heappop(heap)
        rc = r.pop(rm)
        if not rc:
            continue
        m = rm - dm
        if m & guard:
            raise InexactDivision("division is not exact")
        c = _quo(rc, dc)
        q[m] = c
        for tm, tc in tail:
            nm = tm + m
            old = r.get(nm)
            if old is None:
                r[nm] = tc * c
                heappush(heap, -nm)
            else:
                r[nm] = old + tc * c
    return MultiPoly._of(q, _has_fraction(q))


def poly_try_div(p: MultiPoly, d: MultiPoly):
    try:
        return poly_divexact(p, d)
    except InexactDivision:
        return None


def _content(p: MultiPoly):
    """MultiPoly.content in canonical form (an int when integral)."""
    vals = p.terms.values()
    if not p._frac:
        return _igcd(*vals) if vals else 1
    num = 0
    den = 1
    for c in vals:
        num = _igcd(num, c.numerator)
        den = _ilcm(den, c.denominator)
    return num if den == 1 else Fraction(num, den)


def _unit(p: MultiPoly):
    """Signed content: p / _unit(p) has coprime integer coefficients and a
    positive leading coefficient (p nonzero)."""
    c = _content(p)
    return -c if p.terms[_leading_key(p.terms)] < 0 else c


def _make_primitive(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if p.is_zero():
        return p
    return p.quo(_unit(p))


def _prem(A: MultiPoly, B: MultiPoly, v: str) -> MultiPoly:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B in variable v."""
    dB = B.degree_in(v)
    lB = B.coeff_in(v, dB)
    R = A
    e = A.degree_in(v) - dB + 1
    steps = 0
    while not R.is_zero():
        dR = R.degree_in(v)
        if dR < dB:
            break
        lR = R.coeff_in(v, dR)
        shift = B if dR == dB else B * MultiPoly.var(v, dR - dB)
        R = lB * R - lR * shift
        steps += 1
    # pad to the exact power the subresultant divisors assume
    if steps < e and not R.is_zero():
        R = R * lB ** (e - steps)
    return R


def _content_in(P: MultiPoly, v: str) -> MultiPoly:
    """Gcd of the coefficients of P as a polynomial in v."""
    cont = MultiPoly()
    for k in range(P.degree_in(v) + 1):
        c = P.coeff_in(v, k)
        if not c.is_zero():
            cont = poly_gcd(cont, c)
            if cont.is_constant():
                break  # the gcd with anything further stays 1
    return cont


def _primitive_part_in(P: MultiPoly, v: str) -> MultiPoly:
    if P.is_zero():
        return P
    cont = _content_in(P, v)
    if cont.is_constant():
        return _make_primitive(P)
    return _make_primitive(poly_divexact(P, cont))


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Gcd over Q[vars] via content extraction plus primitive PRS.

    The result is primitive with positive leading coefficient (so constants
    collapse to 1, the unit normal form over a field of coefficients).
    """
    if p.is_zero():
        return _make_primitive(q)
    if q.is_zero():
        return _make_primitive(p)
    mp, mq = _content_key(p), _content_key(q)
    p1, q1 = p._shifted(-mp), q._shifted(-mq)
    base = MultiPoly._of({_slot_min(mp, mq): 1}, False)
    if p1.is_constant() or q1.is_constant():
        return base
    shared = p1.variables() & q1.variables()
    if not shared:
        return base
    # least degree first: repeated binomials in a high-degree variable blow up the PRS
    v = min(shared, key=lambda s: (max(p1.degree_in(s), q1.degree_in(s)), var_key(s)))
    cont_p, cont_q = _content_in(p1, v), _content_in(q1, v)
    g_cont = poly_gcd(cont_p, cont_q)
    A = _make_primitive(poly_divexact(p1, cont_p))
    B = _make_primitive(poly_divexact(q1, cont_q))
    if A.degree_in(v) < B.degree_in(v):
        A, B = B, A
    # subresultant PRS: divide each pseudo-remainder by g*h^delta, which is
    # an exact divisor, keeping coefficient growth polynomial
    gg = MultiPoly.const(1)
    hh = MultiPoly.const(1)
    while not B.is_zero():
        if B.degree_in(v) == 0:
            # inputs are primitive in v and coprime apart from contents
            return _make_primitive(base * g_cont if not g_cont.is_constant() else base)
        delta = A.degree_in(v) - B.degree_in(v)
        R = _prem(A, B, v)
        A = B
        if R.is_zero():
            B = R
        else:
            B = poly_divexact(R, gg * hh**delta if delta else gg)
        gg = A.coeff_in(v, A.degree_in(v))
        if delta == 1:
            hh = gg
        elif delta > 1:
            hh = poly_divexact(gg**delta, hh ** (delta - 1))
    # the first B has degree >= 1 in the shared v and a remainder of degree 0
    # returns inside the loop, so A ends with degree >= 1: g is never constant
    g = _primitive_part_in(A, v)
    return _make_primitive(base * g_cont * g if not g_cont.is_constant() else base * g)


def _unit_normal(num: MultiPoly, den: MultiPoly):
    """Scale num/den so den has coprime integer coefficients and a positive
    leading coefficient, zero as 0/1 (den nonzero)."""
    if num.is_zero():
        return num, _POLY_ONE
    c = _unit(den)
    return num.quo(c), den.quo(c)


def _gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """poly_gcd, or 1 without one when either side is constant."""
    if p.is_constant() or q.is_constant():
        return _POLY_ONE
    return poly_gcd(p, q)


def _cancel(p: MultiPoly, q: MultiPoly):
    """p/g, q/g for g = gcd(p, q)."""
    g = _gcd(p, q)
    if g.is_constant():
        return p, q
    return poly_divexact(p, g), poly_divexact(q, g)


class RationalFunction:
    """Reduced quotient of two multivariate polynomials.

    Invariants: den != 0; gcd(num, den) = 1; den has coprime integer
    coefficients with positive leading coefficient; zero is 0/1.

    The public constructor reduces arbitrary input through a gcd of num and
    den.  The operators rely on their operands being reduced and never take
    the gcd of a product (Henrici; Knuth, TAOCP 4.5.1): products and
    quotients cancel crosswise, sums cancel only against the gcd of the two
    denominators, and powers need no gcd at all.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, *, _norm=True):
        if den is None:
            den = _POLY_ONE
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if _norm:
            num, den = _unit_normal(*_cancel(num, den))
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        """num/den for coprime num and nonzero den: only the unit
        normalization of den, no gcd."""
        out = cls.__new__(cls)
        out.num, out.den = _unit_normal(num, den)
        return out

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(MultiPoly.const(c), _norm=False)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(MultiPoly(), _norm=False)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> "RationalFunction":
        return cls(MultiPoly.var(name), _norm=False)

    # -- queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _POLY_ONE

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = as_rf(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return RationalFunction._coprime(*_cancel(n1 + n2, d1))
        g = _gcd(d1, d2)
        if g.is_constant():
            # coprime denominators: the cross sum is already reduced
            return RationalFunction._coprime(n1 * d2 + n2 * d1, d1 * d2)
        d1, d2 = poly_divexact(d1, g), poly_divexact(d2, g)
        # the cross sum is coprime to both cofactors d1, d2; only g can
        # share a factor with it
        t, g = _cancel(n1 * d2 + n2 * d1, g)
        return RationalFunction._coprime(t, d1 * d2 * g)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        return self + (-as_rf(other))

    def __rsub__(self, other):
        return (-self) + as_rf(other)

    def __mul__(self, other):
        other = as_rf(other)
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RationalFunction._coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_rf(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return self * other ** -1

    def __rtruediv__(self, other):
        return as_rf(other) / self

    def __pow__(self, k: int):
        if k == 0:
            return RationalFunction.one()
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalFunction._coprime(self.den ** (-k), self.num ** (-k))
        # powers of coprime polynomials stay coprime, and by Gauss's lemma
        # den**k stays primitive with a positive leading coefficient
        out = RationalFunction.__new__(RationalFunction)
        out.num = self.num**k
        out.den = self.den**k
        return out

    def __eq__(self, other):
        try:
            other = as_rf(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    # -- mappings -------------------------------------------------------------
    def substitute(self, bindings: dict) -> "RationalFunction":
        """Simultaneous substitution of rational functions for variables."""
        if not any(v in bindings for v in self.num.variables() | self.den.variables()):
            return self
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise DivisionByZero("denominator vanishes identically after substitution")
        return num / den

    def rename_vars(self, mapping: dict) -> "RationalFunction":
        # renaming preserves reducedness; only the denominator's leading-sign
        # normalization can change when the monomial order moves
        return RationalFunction._coprime(
            self.num.rename_vars(mapping), self.den.rename_vars(mapping)
        )

    def evaluate(self, point: dict) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def __repr__(self):
        return f"RationalFunction({rf_to_str(self)})"


def as_rf(v) -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, MultiPoly):
        return RationalFunction(v, _norm=False)
    if isinstance(v, (int, Fraction)):
        return RationalFunction.const(v)
    if isinstance(v, str):
        return RationalFunction.var(v)
    raise TypeError(f"cannot coerce {v!r} to a rational function")


ALPHA = RationalFunction.var("a")
BETA = RationalFunction.var("b")


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


def _graded(t: dict, mask: int, bound: int) -> list:
    """The terms of t by series degree, the exponent sum over mask's slots
    (summed slot by slot: k % 0xFFFF wraps once it reaches 0xFFFF), one
    dict per degree 0..bound, higher degrees dropped."""
    out = [{} for _ in range(bound + 1)]
    degrees: dict = {}  # series part of a key -> its degree
    for k, c in t.items():
        s = k & mask
        d = degrees.get(s)
        if d is None:
            d = degrees[s] = sum(_exponents(s))
        if d <= bound:
            out[d][k] = c
    return out


class TruncatedSeries:
    """Power series in a set of series variables, truncated at a total
    degree bound, with polynomial coefficients in the remaining variables.

    One polynomial ``poly`` of series degree at most ``degree_bound``;
    ``mask`` sets the exponent bits of the series variables' slots.  The
    public constructor takes {series monomial: coefficient polynomial}.
    """

    __slots__ = ("degree_bound", "mask", "poly")

    def __init__(self, degree_bound: int, terms=None, *, _mask_poly=(0, _POLY_ZERO)):
        self.degree_bound = degree_bound
        self.mask, self.poly = _mask_poly
        for m, p in (terms or {}).items():
            if m.degree() <= degree_bound:
                self.mask |= _mask(v for v, _ in m.exps)
                self.poly = self.poly + p.mul_monomial(m)

    @classmethod
    def from_poly(cls, p: MultiPoly, series_vars, degree_bound: int):
        mask = _mask(series_vars)
        t = {k: c for part in _graded(p.terms, mask, degree_bound) for k, c in part.items()}
        return cls(degree_bound, _mask_poly=(mask, MultiPoly._of(t, p._frac and _has_fraction(t))))

    def coefficient(self, m: Monomial) -> MultiPoly:
        """Coefficient of the series monomial m, in the other variables."""
        mask, s = self.mask, m._k
        t = {k - s: c for k, c in self.poly.terms.items() if k & mask == s}
        return MultiPoly._of(t, self.poly._frac and _has_fraction(t))

    def monomials(self) -> set:
        """The series monomials with a nonzero coefficient."""
        return {Monomial._of(k & self.mask) for k in self.poly.terms}

    def _combine(self, other, op):
        """The series op(self.poly, other.poly, mask, bound) for a series
        other of the same bound."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.degree_bound != other.degree_bound:
            raise BoundMismatch("degree bounds differ")
        mask, D = self.mask | other.mask, self.degree_bound
        return TruncatedSeries(D, _mask_poly=(mask, op(self.poly, other.poly, mask, D)))

    def __add__(self, other):
        return self._combine(other, lambda p, q, mask, D: p + q)

    def __sub__(self, other):
        return self._combine(other, lambda p, q, mask, D: p - q)

    def __mul__(self, other):
        return self._combine(other, _truncated_product)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.degree_bound == other.degree_bound
            and self.poly == other.poly
        )

    def __repr__(self):
        parts = [
            f"({poly_to_str(self.coefficient(m))})*{m!r}"
            for m in sorted(self.monomials(), key=Monomial.key)
        ]
        return f"TruncatedSeries<={self.degree_bound}[" + " + ".join(parts) + "]"


def _truncated_product(p: MultiPoly, q: MultiPoly, mask: int, D: int) -> MultiPoly:
    """p * q without its terms of series degree above D: only the parts of
    series degrees d1 + d2 <= D are multiplied."""
    second = _graded(q.terms, mask, D)
    t: dict = {}
    for d, part in enumerate(_graded(p.terms, mask, D)):
        for other in second[: D + 1 - d] if part else ():
            _mul_into(t, part, other)
    _checked(reduce(or_, t, 0))
    return MultiPoly._of(t, (p._frac or q._frac) and _canonical(t))


def series_from_rf(f: RationalFunction, series_vars, degree_bound: int) -> TruncatedSeries:
    """Taylor-expand f in the series variables up to total degree_bound.

    The denominator's constant term c0 in the series variables must be a
    nonzero rational scalar, otherwise NotExpandable is raised.  Power-series
    division (Knuth, TAOCP vol. 2, 4.7) gives the component of series degree
    d as S_d = (N_d - sum_{j=1..d} R_j * S_{d-j}) / c0, with N_d and R_j the
    components of degree d and j of num and den; R_j * S_{d-j} has degree d.
    """
    D = degree_bound
    mask = _mask(set(series_vars))
    den = _graded(f.den.terms, mask, max(D, 0))
    if not den[0]:
        raise NotExpandable("denominator constant term vanishes in the series variables")
    if den[0].keys() != {0}:
        raise NotExpandable("denominator constant term is not a scalar")
    c0 = den[0][0]
    neg_r = [{k: _quo(-c, c0) for k, c in part.items()} for part in den]  # -R_j / c0
    S = _graded(f.num.quo(c0).terms, mask, D)
    for d, t in enumerate(S):  # t holds N_d / c0, S[:d] are done
        for j in range(1, d + 1):
            _mul_into(t, neg_r[j], S[d - j])
        _checked(reduce(or_, t, 0))
    t = {k: c for part in S for k, c in part.items()}
    return TruncatedSeries(D, _mask_poly=(mask, MultiPoly._of(t, _canonical(t))))


# ---------------------------------------------------------------------------
# printing and JSON
# ---------------------------------------------------------------------------


def _terms_text(p: MultiPoly, factor, sep: str, rank):
    """The coefficients of p in canonical order, and each term's monomial
    as text: factor(name, exponent) over its variables in the order of
    rank(name), joined by sep.  Each factor's text is built once per
    polynomial."""
    t = p.terms
    if p.is_constant():
        return list(t.values()), [""] * len(t)
    dec, names = _decorated(t)
    _, exps, keys = zip(*sorted(dec, reverse=True))
    cols = list(zip(*exps))
    cells = [{e: factor(v, e) if e else "" for e in set(col)} for v, col in zip(names, cols)]
    order = sorted(range(len(names)), key=lambda i: rank(names[i]))
    cells = [cells[i] for i in order]
    rows = zip(*[cols[i] for i in order])
    monos = [sep.join(filter(None, map(getitem, cells, e))) for e in rows]
    return [t[k] for k in keys], monos


def _display_rank(v: str):
    # parameters a, b print first, like coefficients; series variables after
    return v[0] not in ("a", "b"), var_key(v)


def _display_text(p: MultiPoly, factor, sep: str) -> str:
    """Signed terms joined by " + " and " - ", a leading sign only if "-"."""
    text = " ".join([
        ("+ " if c > 0 else "- ") + (f"{abs(c)}{sep}{m}" if m and abs(c) != 1 else m or str(abs(c)))
        for c, m in zip(*_terms_text(p, factor, sep, _display_rank))
    ])
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


def poly_to_str(p: MultiPoly) -> str:
    return _display_text(p, lambda v, e: v if e == 1 else f"{v}^{e}", "*")


def rf_to_str(f: RationalFunction) -> str:
    if f.is_polynomial():
        return poly_to_str(f.num)
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"


def _latex_factor(v: str, e: int) -> str:
    name = {"a": r"\alpha", "b": r"\beta"}.get(v) or f"{v[0]}_{{{v[1:]}}}"
    return name if e == 1 else f"{name}^{{{e}}}"


def poly_to_latex(p: MultiPoly) -> str:
    return _display_text(p, _latex_factor, " ")


def rf_to_latex(f: RationalFunction) -> str:
    if f.is_polynomial():
        return poly_to_latex(f.num)
    return rf"\frac{{{poly_to_latex(f.num)}}}{{{poly_to_latex(f.den)}}}"


def _poly_json_text(p: MultiPoly) -> str:
    # rendered once per polynomial: the slot is left unset until then, so
    # building a polynomial stores nothing extra
    text = getattr(p, "_json", None)
    if text is None:
        # names in string order, as json.dumps(..., sort_keys=True) writes them
        coeffs, monos = _terms_text(p, '"{}": {}'.format, ", ", str)
        terms = [f'{{"coeff": "{c!s}", "exps": {{{m}}}}}' for c, m in zip(coeffs, monos)]
        text = p._json = "[" + ", ".join(terms) + "]"
    return text


def poly_to_json(p: MultiPoly) -> list:
    # one writer: the canonical text, read back
    return json.loads(_poly_json_text(p))


def rf_to_json_text(f: RationalFunction) -> str:
    """``json.dumps(rf_to_json(f), sort_keys=True)``, written directly."""
    return '{"den": ' + _poly_json_text(f.den) + ', "num": ' + _poly_json_text(f.num) + "}"


def poly_from_json(data) -> MultiPoly:
    terms = {}
    for entry in data:
        m = Monomial(entry["exps"])
        terms[m] = terms.get(m, 0) + Fraction(entry["coeff"])
    return MultiPoly(terms)


def rf_to_json(f: RationalFunction) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rf_from_json(data) -> RationalFunction:
    return RationalFunction(poly_from_json(data["num"]), poly_from_json(data["den"]))
