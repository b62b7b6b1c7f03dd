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
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _igcd, lcm as _ilcm


class DivisionByZero(ZeroDivisionError):
    pass


class NotExpandable(ValueError):
    """Denominator has no invertible constant term in the series variables."""


class BoundMismatch(ValueError):
    """Truncated series with different degree bounds were combined."""


class InexactDivision(ArithmeticError):
    pass


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


class Monomial:
    """Sparse exponent vector: (name, exponent) pairs sorted by var_key,
    zero exponents never stored.

    The public constructor validates and sorts; products and quotients
    merge two already-sorted tuples and skip both.  The total degree is
    stored: a product adds the operands' degrees, a quotient subtracts them.
    """

    __slots__ = ("exps", "_deg", "_key", "_hash")

    def __init__(self, exps=()):
        items = exps.items() if isinstance(exps, dict) else exps
        pairs = []
        for v, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e:
                var_key(v)
                pairs.append((v, e))
        pairs.sort(key=lambda p: _VAR_KEYS[p[0]])
        self.exps = tuple(pairs)
        self._deg = sum(e for _, e in pairs)
        self._key = None
        self._hash = None

    @classmethod
    def _sorted(cls, pairs: tuple, deg: int) -> "Monomial":
        """Monomial from pairs already validated and in var_key order, of
        total degree deg."""
        m = object.__new__(cls)
        m.exps = pairs
        m._deg = deg
        m._key = None
        m._hash = None
        return m

    def degree(self) -> int:
        return self._deg

    def exponent(self, name: str) -> int:
        for v, e in self.exps:
            if v == name:
                return e
        return 0

    def key(self):
        """Total-order key: bigger key means bigger in graded-lex order."""
        if self._key is None:
            keys = _VAR_KEYS
            lex = tuple((-keys[v][0], -keys[v][1], e) for v, e in self.exps)
            self._key = (self._deg, lex)
        return self._key

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        keys = _VAR_KEYS
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif keys[va] < keys[vb]:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Monomial._sorted(tuple(out) + a[i:] + b[j:], self._deg + other._deg)

    def divide(self, other: "Monomial"):
        """Quotient by ``other``, or None when not divisible."""
        b = other.exps
        if not b:
            return self
        out = []
        j, nb = 0, len(b)
        vb, eb = b[0]
        for v, e in self.exps:
            if v != vb:
                out.append((v, e))
                continue
            r = e - eb
            if r < 0:
                return None
            if r:
                out.append((v, r))
            j += 1
            vb, eb = b[j] if j < nb else (None, 0)
        if j < nb:
            return None
        return Monomial._sorted(tuple(out), self._deg - other._deg)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.exps)
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


_ONE_MONO = Monomial()


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


class MultiPoly:
    """Sparse multivariate polynomial.

    ``terms`` maps Monomial to a nonzero coefficient in canonical form: an
    int when it is integral, a non-integral Fraction otherwise.  Since
    ``3 == Fraction(3)`` and the two hash alike, equality and hashing do
    not depend on the form.  ``_frac`` records whether some coefficient is
    a Fraction, so arithmetic on all-int operands checks no term.
    """

    __slots__ = ("terms", "_lt", "_frac")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _coeff(c)
                if c:
                    acc = t.get(m)
                    c = c if acc is None else _coeff(acc + c)
                    if c:
                        t[m] = c
                    elif acc is not None:
                        del t[m]
        self.terms = t
        self._lt = None
        self._frac = _has_fraction(t)

    @classmethod
    def _of(cls, terms: dict, frac: bool) -> "MultiPoly":
        """Trusted constructor: terms already canonical, frac whether any
        coefficient is a Fraction."""
        out = object.__new__(cls)
        out.terms = terms
        out._lt = None
        out._frac = frac
        return out

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = _coeff(c)
        return cls({_ONE_MONO: c}) if c else cls()

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        return cls({Monomial({name: power}): 1})

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(_ONE_MONO, 0))

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m.exps:
                out.add(v)
        return out

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.exponent(name) for m in self.terms)

    def coeff_in(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name**k, as a polynomial in the other variables."""
        out = {}
        for m, c in self.terms.items():
            if m.exponent(name) == k:
                out[Monomial._sorted(tuple(p for p in m.exps if p[0] != name), m._deg - k)] = c
        return MultiPoly(out)

    def leading_term(self):
        """(monomial, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lt is None:
            m = max(self.terms, key=Monomial.key)
            self._lt = (m, self.terms[m])
        return self._lt

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        return Fraction(_content(self))

    def sorted_terms(self):
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda t: t[0].key(), reverse=True)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
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
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = t.get(m)
                if s is None:
                    t[m] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        t[m] = s
                    else:
                        del t[m]
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
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- mappings -----------------------------------------------------------
    def mul_monomial(self, mono: Monomial) -> "MultiPoly":
        return MultiPoly._of({m * mono: c for m, c in self.terms.items()}, self._frac)

    def rename_vars(self, mapping: dict) -> "MultiPoly":
        out = {}
        for m, c in self.terms.items():
            nm = Monomial({mapping.get(v, v): e for v, e in m.exps})
            out[nm] = out.get(nm, 0) + c
        return MultiPoly(out)

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at exact rational values for every variable present."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, e in m.exps:
                v *= _coeff(point[name]) ** e
            total += v
        return total

    def scale_vars(self, mapping: dict) -> "MultiPoly":
        """Substitute v -> t*v for rational t (t = 0 drops the variable)."""
        out: dict = {}
        for m, c in self.terms.items():
            keep = []
            for name, e in m.exps:
                t = mapping.get(name)
                if t is None:
                    keep.append((name, e))
                    continue
                t = _coeff(t)
                if t == 0:
                    c = 0
                    break
                c = c * t**e
                keep.append((name, e))
            if c:
                nm = Monomial._sorted(tuple(keep), m._deg)
                s = out.get(nm, 0) + c
                if s:
                    out[nm] = s
                elif nm in out:
                    del out[nm]
        return MultiPoly._of(out, _canonical(out))

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Simultaneous substitution; values may be rational functions."""
        vals = {k: as_rf(v) for k, v in bindings.items()}
        if all(v.is_polynomial() for v in vals.values()):
            polys = {k: v.num for k, v in vals.items()}
            powcache: dict = {}

            def ppow(name, e):
                got = powcache.get((name, e))
                if got is None:
                    got = polys[name] ** e
                    powcache[(name, e)] = got
                return got

            total = MultiPoly()
            for m, c in self.terms.items():
                term = MultiPoly.const(c)
                rest = {}
                for name, e in m.exps:
                    if name in polys:
                        term = term * ppow(name, e)
                    else:
                        rest[name] = e
                if rest:
                    term = term.mul_monomial(Monomial(rest))
                total = total + term
            return RationalFunction(total, _norm=False)
        total = RationalFunction.zero()
        for m, c in self.terms.items():
            term = RationalFunction.const(c)
            rest = {}
            for name, e in m.exps:
                if name in vals:
                    term = term * vals[name] ** e
                else:
                    rest[name] = e
            if rest:
                term = term * RationalFunction(MultiPoly({Monomial(rest): 1}))
            total = total + term
        return total

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self)})"


_POLY_ONE = MultiPoly.const(1)


def monomial_content(p: MultiPoly) -> Monomial:
    """Largest monomial dividing every term of p (p nonzero)."""
    mins: dict = None
    for m in p.terms:
        d = dict(m.exps)
        if mins is None:
            mins = d
        else:
            mins = {v: min(e, d.get(v, 0)) for v, e in mins.items() if d.get(v, 0)}
    return Monomial(mins or {})


def _quo_monomial(p: MultiPoly, mono: Monomial) -> MultiPoly:
    if not mono.exps:
        return p
    out = {}
    for m, c in p.terms.items():
        q = m.divide(mono)
        assert q is not None
        out[q] = c
    return MultiPoly(out)


def _descending_key(m: Monomial) -> tuple:
    """Key whose ascending order is descending graded-lex order: the entries
    of ``key()``, flattened, each negated.  Within one degree no exponent
    list is a prefix of another, so negating every entry reverses the
    comparison."""
    out = [-m._deg]
    keys = _VAR_KEYS
    for v, e in m.exps:
        out += keys[v]
        out.append(-e)
    return tuple(out)


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises InexactDivision when d does not divide p.

    The remainder is one dict updated in place; its terms are popped in
    descending graded-lex order from a heap holding one entry per monomial
    of the dict.  A term that cancels keeps a zero coefficient until popped,
    so a monomial is never pushed twice.  Each step costs the divisor's
    length plus a heap operation, not a pass over the remainder.
    """
    if d.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if d.is_constant():
        return p.quo(d.constant_value())
    dm, dc = d.leading_term()
    tail = [(m, -c) for m, c in d.terms.items() if m != dm]
    r = dict(p.terms)
    heap = [(_descending_key(m), m) for m in r]
    heapify(heap)
    q: dict = {}
    while heap:
        rm = heappop(heap)[1]
        rc = r.pop(rm)
        if not rc:
            continue
        m = rm.divide(dm)
        if m is None:
            raise InexactDivision("division is not exact")
        c = _quo(rc, dc)
        q[m] = c
        for tm, tc in tail:
            nm = tm * m
            old = r.get(nm)
            if old is None:
                r[nm] = tc * c
                heappush(heap, (_descending_key(nm), nm))
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
    return -c if p.leading_term()[1] < 0 else c


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


def _primitive_part_in(P: MultiPoly, v: str) -> MultiPoly:
    if P.is_zero():
        return P
    cont = MultiPoly()
    for k in range(P.degree_in(v) + 1):
        c = P.coeff_in(v, k)
        if not c.is_zero():
            cont = poly_gcd(cont, c)
            if cont.is_constant():
                break
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
    mp, mq = monomial_content(p), monomial_content(q)
    mono = Monomial({v: min(e, mq.exponent(v)) for v, e in mp.exps})
    p1, q1 = _quo_monomial(p, mp), _quo_monomial(q, mq)
    base = MultiPoly({mono: 1})
    if p1.is_constant() or q1.is_constant():
        return base
    shared = p1.variables() & q1.variables()
    if not shared:
        return base
    # least degree first: repeated binomials in a high-degree variable blow up the PRS
    v = min(shared, key=lambda s: (max(p1.degree_in(s), q1.degree_in(s)), var_key(s)))
    cont_p = MultiPoly()
    for k in range(p1.degree_in(v) + 1):
        c = p1.coeff_in(v, k)
        if not c.is_zero():
            cont_p = poly_gcd(cont_p, c)
    cont_q = MultiPoly()
    for k in range(q1.degree_in(v) + 1):
        c = q1.coeff_in(v, k)
        if not c.is_zero():
            cont_q = poly_gcd(cont_q, c)
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
    g = _primitive_part_in(A, v)
    if g.is_constant():
        out = base * g_cont if not g_cont.is_constant() else base
    else:
        out = base * g_cont * g if not g_cont.is_constant() else base * g
    return _make_primitive(out)


def _unit_normal(num: MultiPoly, den: MultiPoly):
    """Scale num/den so den has coprime integer coefficients and a positive
    leading coefficient (den nonzero)."""
    c = _unit(den)
    if c == 1:
        return num, den
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
            if num.is_zero():
                den = _POLY_ONE
            else:
                num, den = _cancel(num, den)
                num, den = _unit_normal(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        """num/den for coprime num and nonzero den: only the unit
        normalization of den, no gcd."""
        out = cls.__new__(cls)
        if num.is_zero():
            out.num, out.den = num, _POLY_ONE
        else:
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

    def is_one(self) -> bool:
        return self.num == _POLY_ONE and self.den == _POLY_ONE

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
        n1, n2 = _cancel(self.num, other.num)
        d2, d1 = _cancel(other.den, self.den)
        return RationalFunction._coprime(n1 * d2, d1 * n2)

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

    def scale_vars(self, mapping: dict) -> "RationalFunction":
        """Substitute v -> t*v for rational t; fast when every t is nonzero
        (a ring automorphism, so reducedness is preserved)."""
        num = self.num.scale_vars(mapping)
        den = self.den.scale_vars(mapping)
        if den.is_zero():
            raise DivisionByZero("denominator vanishes identically after substitution")
        if any(_coeff(t) == 0 for t in mapping.values()):
            return RationalFunction(num, den)
        return RationalFunction._coprime(num, den)

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


def split_monomial(m: Monomial, series_vars) -> tuple[Monomial, Monomial]:
    """Split into (part in series variables, part in coefficient variables)."""
    sv, cv = [], []
    for p in m.exps:
        (sv if p[0] in series_vars else cv).append(p)
    sdeg = sum(e for _, e in sv)
    return Monomial._sorted(tuple(sv), sdeg), Monomial._sorted(tuple(cv), m._deg - sdeg)


class TruncatedSeries:
    """Power series in a set of series variables, truncated at a total
    degree bound, with polynomial coefficients in the remaining variables."""

    __slots__ = ("degree_bound", "terms")

    def __init__(self, degree_bound: int, terms=None):
        self.degree_bound = degree_bound
        t = {}
        if terms:
            for m, p in terms.items():
                if m.degree() <= degree_bound and not p.is_zero():
                    t[m] = p
        self.terms = t

    @classmethod
    def from_poly(cls, p: MultiPoly, series_vars, degree_bound: int):
        t: dict = {}
        for m, c in p.terms.items():
            sm, cm = split_monomial(m, series_vars)
            if sm.degree() > degree_bound:
                continue
            t[sm] = t.get(sm, MultiPoly()) + MultiPoly({cm: c})
        return cls(degree_bound, t)

    @classmethod
    def one(cls, degree_bound: int):
        return cls(degree_bound, {_ONE_MONO: MultiPoly.const(1)})

    def coefficient(self, m: Monomial) -> MultiPoly:
        return self.terms.get(m, MultiPoly())

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.degree_bound != other.degree_bound:
            raise BoundMismatch("degree bounds differ")
        t = dict(self.terms)
        for m, p in other.terms.items():
            s = t.get(m, MultiPoly()) + p
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        return TruncatedSeries(self.degree_bound, t)

    def __sub__(self, other):
        return self + other.scale_poly(MultiPoly.const(-1))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.degree_bound != other.degree_bound:
            raise BoundMismatch("degree bounds differ")
        D = self.degree_bound
        t: dict = {}
        for m1, p1 in self.terms.items():
            d1 = m1.degree()
            for m2, p2 in other.terms.items():
                if d1 + m2.degree() > D:
                    continue
                m = m1 * m2
                s = t.get(m, MultiPoly()) + p1 * p2
                if s.is_zero():
                    t.pop(m, None)
                else:
                    t[m] = s
        return TruncatedSeries(D, t)

    def scale_poly(self, p: MultiPoly) -> "TruncatedSeries":
        return TruncatedSeries(
            self.degree_bound, {m: c * p for m, c in self.terms.items()}
        )

    def map_coefficients(self, fn) -> "TruncatedSeries":
        return TruncatedSeries(
            self.degree_bound, {m: fn(c) for m, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.degree_bound == other.degree_bound
            and self.terms == other.terms
        )

    def __repr__(self):
        parts = [
            f"({poly_to_str(p)})*{m!r}"
            for m, p in sorted(self.terms.items(), key=lambda t: t[0].key())
        ]
        return f"TruncatedSeries<={self.degree_bound}[" + " + ".join(parts) + "]"


def series_from_rf(f: RationalFunction, series_vars, degree_bound: int) -> TruncatedSeries:
    """Taylor-expand f in the series variables up to total degree_bound.

    The denominator's constant term in the series variables must be a
    nonzero rational scalar (all denominators arising here are monic in
    that sense), otherwise NotExpandable is raised.
    """
    series_vars = set(series_vars)
    num_s = TruncatedSeries.from_poly(f.num, series_vars, degree_bound)
    d0 = MultiPoly()
    rest = MultiPoly()
    for m, c in f.den.terms.items():
        sm, _ = split_monomial(m, series_vars)
        if sm.degree() == 0:
            d0 = d0 + MultiPoly({m: c})
        else:
            rest = rest + MultiPoly({m: c})
    if d0.is_zero():
        raise NotExpandable("denominator constant term vanishes in the series variables")
    if not d0.is_constant():
        raise NotExpandable("denominator constant term is not a scalar")
    c0 = d0.constant_value()
    # 1/(c0*(1+u)) = (1/c0) * (1 - u + u^2 - ...), u has no constant term
    u = TruncatedSeries.from_poly(rest.quo(c0), series_vars, degree_bound)
    inv = TruncatedSeries.one(degree_bound)
    power = TruncatedSeries.one(degree_bound)
    sign = 1
    for _ in range(degree_bound):
        power = power * u
        if power.is_zero():
            break
        sign = -sign
        inv = inv + power.scale_poly(MultiPoly.const(sign))
    return (num_s * inv).scale_poly(MultiPoly.const(_quo(1, c0)))


# ---------------------------------------------------------------------------
# printing and JSON
# ---------------------------------------------------------------------------


def _coeff_str(c) -> str:
    return str(c)


def _display_factors(m: Monomial):
    # parameters a, b print first, like coefficients; series variables after
    return sorted(m.exps, key=lambda p: (p[0][0] not in ("a", "b"), var_key(p[0])))


def poly_to_str(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        if not m.exps:
            body = _coeff_str(abs(c))
        else:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in _display_factors(m)
            )
            body = mono if abs(c) == 1 else f"{_coeff_str(abs(c))}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def rf_to_str(f: RationalFunction) -> str:
    if f.is_polynomial():
        return poly_to_str(f.num)
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"


_LATEX_NAMES = {"a": r"\alpha", "b": r"\beta"}


def _latex_var(v: str) -> str:
    if v in _LATEX_NAMES:
        return _LATEX_NAMES[v]
    return f"{v[0]}_{{{v[1:]}}}"


def poly_to_latex(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        if not m.exps:
            body = _coeff_str(abs(c))
        else:
            mono = " ".join(
                _latex_var(v) if e == 1 else f"{_latex_var(v)}^{{{e}}}"
                for v, e in _display_factors(m)
            )
            body = mono if abs(c) == 1 else f"{_coeff_str(abs(c))} {mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def rf_to_latex(f: RationalFunction) -> str:
    if f.is_polynomial():
        return poly_to_latex(f.num)
    return rf"\frac{{{poly_to_latex(f.num)}}}{{{poly_to_latex(f.den)}}}"


def poly_to_json(p: MultiPoly) -> list:
    return [
        {"coeff": str(c), "exps": {v: e for v, e in m.exps}}
        for m, c in p.sorted_terms()
    ]


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
