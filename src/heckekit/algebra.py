"""Exact multivariate Laurent polynomials and rational functions over Q.

Symbols are plain names ("z1", "u", "g2", "a1_121").  The deformation
parameter v is always written as u^2, so every coefficient ring here is
Q[u^{+-1}, ...].

Representation.  A monomial is one Python int.  Each symbol owns a lane of
``_WIDTH`` bits, handed out in the order the process first sees the symbol
by a table private to this module that only ever grows, and the monomial
is the sum of ``exponent << (_WIDTH * lane)`` over its symbols.  Exponents
are signed, so the product of two monomials is one int addition.  A
polynomial keeps a dict from these ints to coefficients.  No other module
sees the encoding: ``LaurentPoly.terms`` is a read-only view keyed by
name-sorted ``(name, exponent)`` tuples, and rendering, equality and the
term order of :func:`exact_divide` go by symbol name, so no result depends
on the order in which lanes were handed out.

Coefficients are ``int``.  A ``Fraction`` enters only where a value is not
integral: a quotient in :func:`exact_divide`, the inverse of a monomial whose
coefficient is not +-1, or an input such as ``"3/2"``.  Fraction arithmetic
may leave an integral Fraction, as in (1/2) * 2; it compares, hashes and
renders as the int it equals, so no value depends on the coefficient type.

Overflow.  Every exponent lies in [-2^14, 2^14).  The top bit of each lane
is a guard, so the sum of two valid monomials still decodes exactly, and a
result with an exponent outside the range raises OverflowError; no exponent
ever carries into a neighbouring lane.

Gauss symbols g0, g1, ... are ordinary commuting symbols until a
:class:`GaussRules` context of modulus n is attached.  Gauss sums satisfy
g_a g_{n-a} = u^2 and g_0 = -u^2, so every g_a is a unit, and one Laurent
normal form holds: the index is read mod n, g_a for 0 < a < n/2 is a free
Laurent variable, g_{n-a} is stored as u^2 g_a^-1, g_0 as -u^2, and for
even n, g_h (h = n/2) keeps exponent 0 or 1 (g_h^2 = u^2).  A monomial
rewrites to one monomial and a sign, memoized per modulus.  Products need
no rewrite for odd n; for even n a product of two operands that both carry
g_h is normalized again, which folds g_h^2 = u^2.  A rule-free operand
that carries a Gauss symbol is brought under the other operand's rules in
sums, products, equality and division.

Division.  :func:`exact_divide` is the one place where division is
decided, and it is complete: NotDivisible means no Laurent quotient
exists.  Without rules or for odd n the ring is a Laurent ring over Q, a
domain, where leading-term division is complete once each quotient term
is compared lane by lane with the difference of the monomial contents; no
operand is shifted, so no exponent leaves the range unless the quotient's
does.  For even n it is R[g_h] / (g_h^2 - u^2), R that Laurent ring, and
as 2u is a unit, f0 + f1 g_h -> (f0 + u f1, f0 - u f1) maps it
onto R x R (Chinese remainder theorem).  A divisor free of g_h divides
the coefficients of 1 and g_h alone; one carrying g_h is divided in both
factors; a zero divisor (zero in one factor) raises ZeroDivisionError.

Demazure steps.  :func:`divided_difference` is the one kernel of every
Demazure step: the numerator sum of c m D + c T_k s(m) over the terms c m
of f is formed in one pass over the packed terms, s a :class:`Reflection`
applied to each packed monomial and k its pairing with m, and divided once.

A :class:`RationalFunction` keeps its denominator as a tuple of factors in
normal form: each factor divided by its leading term in graded-lex order
on symbol names (a factor carrying g_h by the unit its two halves' leading
terms give), so that associates (1 - x, x - 1, 2 - 2x, 1 - x^-1) are one
factor and sums and equality share it.  :func:`_normal_factor` is the
one place this is decided.

Cancellation happens only by trial exact division of a numerator by a
denominator factor (:func:`_cancel`, the one such routine): in
:meth:`RationalFunction.cancelled`, and in every sum, which tries the
factors both operands carry (a factor of one operand only cannot divide
the sum of operands in lowest terms).  It keeps the value under every
modulus: no stored factor is a zero divisor, as the constructor rejects
those, so num/(f g) and (num/f)/g are one element even where the ring is
no domain.  No gcd is ever computed, and equality stays cross
multiplication.

Operations are pure and values never change: a polynomial is its terms
and rules, and its other slots, _hash, _gauss and _lone, are caches filled
later without changing the value.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, reduce
from operator import mul, or_
from typing import Callable, Iterable, Sequence

Monomial = tuple[tuple[str, int], ...]
Coeff = int | Fraction


class NotDivisible(Exception):
    """Raised by :func:`exact_divide` when the quotient is not a Laurent polynomial.

    Its args are the dividend p and the divisor q, and it renders "(p) is
    not divisible by (q)" only when it is shown: a trial division that fails
    is caught far more often than it is read, and rendering a large p costs
    more than the division.
    """

    def __str__(self) -> str:
        p, q = self.args
        return f"({p.render()}) is not divisible by ({q.render()})"


def _gauss_index(name: str) -> int | None:
    if name.startswith("g") and name[1:].isdigit():
        return int(name[1:])
    return None


# -- packed monomials -------------------------------------------------------------

_WIDTH = 16
_LANE_MASK = (1 << _WIDTH) - 1
_HALF = 1 << (_WIDTH - 1)  # a lane decodes as a signed value in [-_HALF, _HALF)
_LIMIT = 1 << (_WIDTH - 2)  # valid exponents lie in [-_LIMIT, _LIMIT)

_names: list[str] = []  # lane -> symbol name
_lanes: dict[str, int] = {}  # symbol name -> lane
_gauss_of_lane: list[int | None] = []  # lane -> Gauss index, None for other symbols
_bias = 0  # _LIMIT in every lane: maps every valid exponent into [0, _HALF)
_guard = 0  # the top bit of every lane
_gauss_mask = 0  # every bit of every Gauss lane


def _lane(name: str) -> int:
    global _bias, _guard, _gauss_mask
    lane = _lanes.get(name)
    if lane is None:
        lane = len(_names)
        _names.append(name)
        _lanes[name] = lane
        _gauss_of_lane.append(_gauss_index(name))
        _bias |= _LIMIT << (_WIDTH * lane)
        _guard |= _HALF << (_WIDTH * lane)
        if _gauss_of_lane[lane] is not None:
            _gauss_mask |= _LANE_MASK << (_WIDTH * lane)
    return lane


def _pack(exps: Mapping[str, int]) -> int:
    """The packed monomial with the given exponent of each named symbol."""
    m = 0
    for name, e in exps.items():
        if type(e) is not int:
            f = Fraction(e)
            if f.denominator != 1:
                raise ValueError(f"non-integral exponent {e} of {name}")
            e = f.numerator
        if e:
            if not -_LIMIT <= e < _LIMIT:
                raise OverflowError(f"exponent {e} of {name} outside [{-_LIMIT}, {_LIMIT})")
            m += e << (_WIDTH * _lane(name))
    return m


def _pack_pairs(mono: Iterable[tuple[str, int]]) -> int:
    exps: dict[str, int] = {}
    for name, e in mono:
        exps[name] = exps.get(name, 0) + e
    return _pack(exps)


def _unpack(m: int) -> list[tuple[int, int]]:
    """(lane, exponent) of every symbol of m, lowest lane first."""
    out = []
    lane = 0
    while m:
        e = m & _LANE_MASK
        if e >= _HALF:
            e -= 1 << _WIDTH
        if e:
            out.append((lane, e))
        m = (m - e) >> _WIDTH
        lane += 1
    return out


def _exponents(m: int) -> dict[str, int]:
    return {_names[lane]: e for lane, e in _unpack(m)}


def _named(m: int) -> Monomial:
    return tuple(sorted((_names[lane], e) for lane, e in _unpack(m)))


def _check_range(monos) -> None:
    """Raise OverflowError if an exponent of a packed monomial in monos left the valid range.

    Adding _bias maps each lane of a valid monomial into [0, _HALF), with no
    carries, so the guard bits stay clear; an out-of-range lane sets the
    guard bit of the lowest such lane.
    """
    if monos and reduce(or_, map(_bias.__add__, monos)) & _guard:
        bad = next(m for m in monos if (m + _bias) & _guard)
        raise OverflowError(f"exponent outside [{-_LIMIT}, {_LIMIT}) in {_named(bad)}")


# -- coefficients -------------------------------------------------------------------


def _coeff(value) -> Coeff:
    """value as an int when integral, else as a Fraction (accepts int, Fraction and str)."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _div(a: Coeff, b: Coeff) -> Coeff:
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


# -- frozen values ---------------------------------------------------------------------


class Frozen:
    """Base of the classes whose __init__ sets each slot once, through _freeze; a memo dict still fills in place."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        """Set the slots to values, in the order of __slots__."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: a {type(self).__name__} is frozen")

    __delattr__ = __setattr__


# -- Gauss sums ------------------------------------------------------------------------


class GaussRules(Frozen):
    """The n-th order Gauss sums g_a, a mod n, with g_a g_{n-a} = u^2 and g_0 = -u^2.

    Polynomials under these rules keep the normal form of the module
    docstring.  :meth:`standard` returns one shared object per modulus, so
    its memos are shared by every polynomial of that modulus.  Two rules
    are equal when their moduli are.
    """

    __slots__ = ("modulus", "_memo", "_factors", "_half", "_to_u")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("Gauss modulus must be >= 1")
        # even n: every bit of the lane of g_h (h = n/2), and u / g_h packed; 0 for odd n
        half = to_u = 0
        if modulus % 2 == 0:
            g = f"g{modulus // 2}"
            half, to_u = _LANE_MASK << (_WIDTH * _lane(g)), _pack({"u": 1, g: -1})
        # _memo: packed monomial -> (its normal form, sign), or None if it is normal;
        # _factors: denominator factor -> its normal form and unit (see _normal_factor)
        self._freeze(modulus, {}, {}, half, to_u)

    def __eq__(self, other):
        return self.modulus == other.modulus if isinstance(other, GaussRules) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.modulus)

    @staticmethod
    @cache
    def standard(modulus: int) -> "GaussRules":
        return GaussRules(modulus)


def _normal_monomial(m: int, n: int) -> tuple[int, int] | None:
    """(normal form, sign) of the packed monomial m under modulus n; None if m is normal."""
    rest = m
    gexp: dict[int, int] = {}
    for lane, e in _unpack(m):
        a = _gauss_of_lane[lane]
        if a is not None:
            rest -= e << (_WIDTH * lane)
            gexp[a % n] = gexp.get(a % n, 0) + e
    if not gexp:
        return None
    sign, exps = 1, {"u": 0}
    for a, e in gexp.items():
        if a == 0:  # g_0 = -u^2
            sign = -1 if e % 2 else 1
            exps["u"] += 2 * e
        elif 2 * a > n:  # g_a = u^2 g_{n-a}^-1
            exps["u"] += 2 * e
            exps[f"g{n - a}"] = exps.get(f"g{n - a}", 0) - e
        elif 2 * a == n:  # g_h^2 = u^2 leaves g_h exponent 0 or 1
            pairs, exps[f"g{a}"] = divmod(e, 2)
            exps["u"] += 2 * pairs
        else:
            exps[f"g{a}"] = exps.get(f"g{a}", 0) + e
    out = rest + _pack(exps)
    _check_range((out,))
    return None if out == m and sign == 1 else (out, sign)


_UNSEEN = object()


def _normalize(terms: dict[int, Coeff], rules: GaussRules) -> dict[int, Coeff]:
    """Bring packed terms (owned by the caller) into the normal form of rules."""
    memo, n = rules._memo, rules.modulus
    moved = []
    for m in terms:
        r = memo.get(m, _UNSEEN)
        if r is _UNSEEN:
            r = memo[m] = _normal_monomial(m, n)
        if r is not None:
            moved.append((m, r))
    for m, (m2, sign) in moved:
        c = terms.pop(m)
        s = terms.get(m2, 0) + sign * c  # m2 is normal, so never a key still to move
        if s:
            terms[m2] = s
        else:
            terms.pop(m2, None)
    return terms


# -- polynomials ------------------------------------------------------------------------


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, keyed by name-sorted (name, exponent) tuples."""

    __slots__ = ("_t",)

    def __init__(self, packed: dict[int, Coeff]):
        self._t = packed

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        return map(_named, self._t)

    def __getitem__(self, mono: Monomial) -> Coeff:
        if any(name not in _lanes for name, _ in mono):
            raise KeyError(mono)
        try:
            return self._t[_pack_pairs(mono)]
        except OverflowError:
            raise KeyError(mono) from None

    def items(self) -> list[tuple[Monomial, Coeff]]:
        return [(_named(m), c) for m, c in self._t.items()]

    def values(self) -> list[Coeff]:
        return list(self._t.values())

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class LaurentPoly:
    """Immutable exact Laurent polynomial with int (Fraction where needed) coefficients."""

    __slots__ = ("_t", "rules", "_hash", "_gauss", "_lone")

    def __init__(self, terms: Mapping[Monomial, Coeff | str] | None = None, rules: GaussRules | None = None):
        packed: dict[int, Coeff] = {}
        for mono, coeff in (terms or {}).items():
            m = _pack_pairs(mono)
            packed[m] = packed.get(m, 0) + _coeff(coeff)
        packed = {m: c for m, c in packed.items() if c}
        self._set(packed, rules)

    def _set(self, terms: dict[int, Coeff], rules: GaussRules | None, canonical: bool = False) -> "LaurentPoly":
        """Take ownership of packed terms with no zero coefficient."""
        if rules is not None and not canonical:
            terms = _normalize(terms, rules)
        self._t = terms
        self.rules = rules
        self._hash = None
        self._gauss = None  # the Gauss lanes of the terms, once _gauss_lanes asks
        self._lone = None  # a d along which a string has one term, once _divide_binomial finds one
        return self

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """Coefficient of each monomial, keyed by its name-sorted (name, exponent) tuple."""
        return _Terms(self._t)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(rules: GaussRules | None = None) -> "LaurentPoly":
        return _new({}, rules)

    @staticmethod
    def const(value, rules: GaussRules | None = None) -> "LaurentPoly":
        c = _coeff(value)
        return _new({0: c} if c else {}, rules, canonical=True)

    @staticmethod
    def one(rules: GaussRules | None = None) -> "LaurentPoly":
        return LaurentPoly.const(1, rules)

    @staticmethod
    def monomial(exps: Mapping[str, int], coeff=1, rules: GaussRules | None = None) -> "LaurentPoly":
        c = _coeff(coeff)
        return _new({_pack(exps): c} if c else {}, rules)

    @staticmethod
    def symbol(name: str, rules: GaussRules | None = None) -> "LaurentPoly":
        return LaurentPoly.monomial({name: 1}, rules=rules)

    def with_rules(self, rules: GaussRules | None) -> "LaurentPoly":
        return _new(dict(self._t), rules)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other, self.rules)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, rules = (self, other, self.rules) if self.rules is other.rules else _common(self, other)
        terms = dict(a._t)
        get = terms.get
        for m, c in b._t.items():
            s = get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return _new(terms, rules, canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _new({m: -c for m, c in self._t.items()}, self.rules, canonical=True)

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, rules = (self, other, self.rules) if self.rules is other.rules else _common(self, other)
        terms: dict[int, Coeff] = {}
        get = terms.get
        right = list(b._t.items())
        for m1, c1 in a._t.items():
            for m2, c2 in right:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
        _check_range(terms)
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        half = rules._half if rules is not None else 0
        # both operands carry g_h (even n): the product may hold g_h^2, which _normalize folds to u^2
        canonical = not (half and _gauss_lanes(a) & half and _gauss_lanes(b) & half)
        return _new(terms, rules, canonical=canonical)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = LaurentPoly.one(self.rules)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial (monomials are the Laurent units)."""
        if len(self._t) != 1:
            raise ValueError("only monomials are invertible")
        (m, c), = self._t.items()
        inverse = {-m: _div(1, c)}
        _check_range(inverse)
        return _new(inverse, self.rules)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.rules)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.rules is other.rules or not (_gauss_lanes(self) or _gauss_lanes(other)):
            return self._t == other._t  # the rules act on Gauss symbols only
        a, b, _ = _common(self, other)
        return a._t == b._t

    def __hash__(self):
        """Equal polynomials hash alike within one rules context.

        A rule-free polynomial that carries a Gauss symbol equals its normal
        form under rules but may hash apart from it, so every memo keyed by
        polynomials is kept per rules context.
        """
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    def is_zero(self) -> bool:
        return not self._t

    def symbols(self) -> set[str]:
        return {_names[lane] for m in self._t for lane, _ in _unpack(m)}

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in ascending graded-lex order on symbol names."""
        if not self._t:
            return "0"
        order = _graded_lex(self.symbols())
        parts = []
        for m, coeff in sorted(self._t.items(), key=lambda kv: order(kv[0])):
            factors = [s if e == 1 else f"{s}^{e}" for s, e in _named(m)]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def _new(terms: dict[int, Coeff], rules: GaussRules | None, canonical: bool = False) -> LaurentPoly:
    """A polynomial owning packed terms; canonical: they are already in Gauss normal form."""
    return object.__new__(LaurentPoly)._set(terms, rules, canonical)


def _gauss_lanes(p: LaurentPoly) -> int:
    """Nonzero in the lane of every Gauss symbol of p and zero elsewhere; computed once per polynomial.

    Biased, a lane holds its exponent plus _LIMIT, with no carries, so the
    lane's bits of (m + _bias) ^ _bias are zero exactly when its exponent is.
    """
    g = p._gauss
    if g is None:
        bias = _bias
        g = p._gauss = reduce(or_, [(m + bias) ^ bias for m in p._t], 0) & _gauss_mask
    return g


def _common(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, GaussRules | None]:
    """a, b and their rules, with a rule-free operand that carries a Gauss symbol brought under the other's."""
    rules = a.rules or b.rules
    if a.rules is None:
        if rules is not None and _gauss_lanes(a):
            a = a.with_rules(rules)
    elif b.rules is None:
        if _gauss_lanes(b):
            b = b.with_rules(rules)
    elif a.rules != b.rules:
        raise ValueError(f"Gauss sums of different moduli: {a.rules.modulus} and {b.rules.modulus}")
    return a, b, rules


def _quotient_box(p: LaurentPoly, q: LaurentPoly) -> list[tuple[int, int, int]]:
    """(lane, low, high) for each lane of p or q: its least (greatest) exponent over p's terms less that over q's."""
    vp, vq = [dict(_unpack(m)) for m in p._t], [dict(_unpack(m)) for m in q._t]
    box = []
    for lane in set().union(*vp, *vq):
        ep, eq = [v.get(lane, 0) for v in vp], [v.get(lane, 0) for v in vq]
        box.append((lane, min(ep, default=0) - min(eq), max(ep, default=0) - max(eq)))  # p = 0 bounds nothing
    return box


def _graded_lex(names: Iterable[str]) -> Callable[[int], tuple[int, list[int]]]:
    """Memoized sort key on packed monomials over the given symbols: total degree, then
    the dense exponent vector in name order.  Both parts are additive, so the
    order is invariant under multiplication by any monomial."""
    names = sorted(names)
    position = {_lanes[s]: i for i, s in enumerate(names)}
    keys: dict[int, tuple[int, list[int]]] = {}

    def order(m: int) -> tuple[int, list[int]]:
        key = keys.get(m)
        if key is None:
            vec = [0] * len(names)
            for lane, e in _unpack(m):
                vec[position[lane]] = e
            key = keys[m] = (sum(vec), vec)
        return key

    return order


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with r*q == p exactly, or raise :class:`NotDivisible` when there is none.

    This is the one place where division is decided, and it is complete
    (see the module docstring).  Under even n a divisor carrying g_{n/2}
    takes :func:`_divide_split`, and raises ZeroDivisionError if it is a
    zero divisor.  Every other one-term divisor moves each term of p
    (:func:`_divide_monomial`), every two-term divisor (every Demazure step
    divides by one) takes :func:`_divide_binomial`, linear in the number of
    terms, and the rest :func:`_divide_general`.
    """
    if not q._t:
        raise ZeroDivisionError("division by the zero polynomial")
    p, q, rules = (p, q, q.rules) if p.rules is q.rules else _common(p, q)
    halves = _halves(q) if rules is not None else None
    if halves is not None:
        return _divide_split(p, q, halves)
    if not p._t:
        return LaurentPoly.zero(rules)
    if len(q._t) == 1:
        return _divide_monomial(p, q, rules)
    if len(q._t) == 2:
        return _divide_binomial(p, q, rules)
    return _divide_general(p, q, rules)


def _divide_monomial(p: LaurentPoly, q: LaurentPoly, rules: GaussRules | None) -> LaurentPoly:
    """p / q for q = c x^A, term by term: x^M -> x^{M - A}, which decodes exactly as a sum of two valid
    monomials does.  The quotient is normal, as q carries no g_{n/2} (exact_divide splits such divisors)."""
    (a, ca), = q._t.items()
    quotient = {m - a: _div(c, ca) for m, c in p._t.items()}
    _check_range(quotient)
    return _new(quotient, rules, canonical=True)


def _divide_binomial(p: LaurentPoly, q: LaurentPoly, rules: GaussRules | None) -> LaurentPoly:
    """p / q for q = ca x^A + cb x^B, by synthetic division along the strings of d = A - B.

    The monomials of p fall into strings base + k d: in the lowest lane
    where d is nonzero (q's terms ordered so that d's exponent e there is
    positive), k is the term's biased exponent divided by e, rounded down,
    so base is the same for every term of a string (biased, every lane lies
    in [0, _HALF), so no lane borrows from the next, and the bias offsets
    every k of a string alike).  On each string q acts as the
    univariate ca y + cb in y = x^d, so the quotient's coefficients follow
    from the top of the string down, r_{k-1} = (p_k - cb r_k) / ca, and p is
    divisible iff the last remainder p_kmin - cb r_kmin of every string is
    zero.  No step looks for a leading term or rebuilds a remainder.  A
    string of one term is never zero at the root of ca y + cb, so p fails
    before any arithmetic if it has one; most trial divisions that fail do.
    A string of p spanning two places leaves the quotient a string of one
    term, so the quotient keeps d (``_lone``) and a division of it along d
    fails before grouping: a sum that has cancelled one copy of a repeated
    factor tries the next copy that way.

    The quotient is normal: under even n q carries no g_{n/2} (exact_divide
    splits such divisors), so each string keeps the g_{n/2} of its base.
    """
    (a, ca), (b, cb) = q._t.items()
    d = a - b
    shift = ((d & -d).bit_length() - 1) // _WIDTH * _WIDTH  # d's lowest set bit lies in its lowest nonzero lane
    if (d >> shift) & _HALF:
        a, ca, b, cb, d = b, cb, a, ca, -d
    if p._lone == d:
        raise NotDivisible(p, q)
    e = (d >> shift) & _LANE_MASK
    bias, mask = _bias, _LANE_MASK
    strings: dict[int, dict[int, Coeff]] = {}
    for m, c in p._t.items():
        k = (((m + bias) >> shift) & mask) // e
        base = m - k * d
        string = strings.get(base)
        if string is None:
            strings[base] = {k: c}
        else:
            string[k] = c
    for string in strings.values():
        if len(string) == 1:
            raise NotDivisible(p, q)
    unit = type(ca) is int and ca * ca == 1  # 1 / ca = ca
    quotient: dict[int, Coeff] = {}
    lone = False
    for base, string in strings.items():
        kmin, kmax = min(string), max(string)
        lone = lone or kmax - kmin == 1
        get = string.get
        r = 0
        mono = base - b + kmax * d  # the quotient's monomial at k - 1 is mono - d
        for k in range(kmax, kmin, -1):
            mono -= d
            r = (get(k, 0) - cb * r) * ca if unit else _div(get(k, 0) - cb * r, ca)
            if r:
                quotient[mono] = r
        if string[kmin] != cb * r:
            raise NotDivisible(p, q)
    _check_range(quotient)
    out = _new(quotient, rules, canonical=True)
    if lone:
        out._lone = d
    return out


def _divide_general(p: LaurentPoly, q: LaurentPoly, rules: GaussRules | None) -> LaurentPoly:
    """p / q by repeated leading-term division, quadratic in the number of terms.

    Newton polytopes add, so each term of a Laurent quotient lies in the
    box of :func:`_quotient_box`, and one outside it shows p not divisible.
    Its lower bound is leading-term divisibility after removing the monomial
    contents, a complete test for a single divisor.  Inside it every
    remainder term lies within p's exponents, so no exponent leaves the
    range unless one of the quotient does.
    """
    bounds = _quotient_box(p, q)
    order = _graded_lex(p.symbols() | q.symbols())
    lq = max(q._t, key=order)
    lq_coeff = q._t[lq]
    quotient: dict[int, Coeff] = {}
    rem = p
    while rem._t:
        lm = max(rem._t, key=order)
        t = lm - lq  # leading terms strictly decrease, so no t repeats
        exps = dict(_unpack(t))
        if any(not low <= exps.get(lane, 0) <= high for lane, low, high in bounds):
            raise NotDivisible(p, q)
        _check_range((t,))
        tc = quotient[t] = _div(rem._t[lm], lq_coeff)
        rem = rem - _new({t: tc}, rules) * q
    return _new(quotient, rules)


def _halves(f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly] | None:
    """(f at g_h = u, f at g_h = -u) for even n and f carrying g_h (h = n/2), else None.

    These are the images f0 + u f1, f0 - u f1 of f = f0 + f1 g_h in the two
    factors of the ring (module docstring); f is a zero divisor iff one is 0.
    """
    rules = f.rules
    if rules is None or not _gauss_lanes(f) & rules._half:
        return None
    half, to_u, bias = rules._half, rules._to_u, _bias
    plus: dict[int, Coeff] = {}
    minus: dict[int, Coeff] = {}
    for m, c in f._t.items():
        s = 1
        if ((m + bias) ^ bias) & half:  # g_h -> +-u
            m, s = m + to_u, -1
        plus[m] = plus.get(m, 0) + c
        minus[m] = minus.get(m, 0) + s * c
    _check_range(plus)
    return tuple(_new({m: c for m, c in t.items() if c}, rules, canonical=True) for t in (plus, minus))


def _divide_split(p: LaurentPoly, q: LaurentPoly, halves: tuple[LaurentPoly, LaurentPoly]) -> LaurentPoly:
    """p / q for q carrying g_h under even n, q's two halves given (see :func:`_halves`).

    r+ = p+ / q+ and r- = p- / q- are divided in the two factors, free of
    g_h, and recombined (:func:`_recombine`) into the r whose halves they
    are.  ZeroDivisionError if q is a zero divisor: one of its halves is zero.
    """
    q_plus, q_minus = halves
    if q_plus.is_zero() or q_minus.is_zero():
        raise ZeroDivisionError(f"division by a zero divisor: {q.render()}")
    p_plus, p_minus = _halves(p) or (p, p)
    try:
        return _recombine(exact_divide(p_plus, q_plus), exact_divide(p_minus, q_minus), q.rules)
    except NotDivisible:
        raise NotDivisible(p, q) from None


def _recombine(r_plus: LaurentPoly, r_minus: LaurentPoly, rules: GaussRules) -> LaurentPoly:
    """The r = (r+ + r-)/2 + (r+ - r-)/(2u) g_h whose halves are the g_h-free r+ and r- (see :func:`_halves`)."""
    to_u = rules._to_u
    terms: dict[int, Coeff] = {}
    for m in r_plus._t | r_minus._t:
        a, b = r_plus._t.get(m, 0), r_minus._t.get(m, 0)
        if a + b:
            terms[m] = _div(a + b, 2)
        if a - b:
            terms[m - to_u] = _div(a - b, 2)  # u^-1 g_h
    _check_range(terms)
    return _new(terms, rules, canonical=True)


# -- reflections and divided differences ----------------------------------------------


class Reflection:
    """The reflection mu -> mu - <a, mu> c of the exponent vector mu of some named symbols.

    a = pairing / den is a functional and c a vector, both integer over the
    names, which are no Gauss symbols; the other symbols of a monomial are
    kept.  :meth:`images` acts on packed monomials directly: <a, mu> is read
    off the lanes of the names, and the image is one subtraction of c packed.
    """

    __slots__ = ("_symbols", "_form", "_offset", "_den", "_root", "_moved", "_small")

    def __init__(self, names: Sequence[str], pairing: Sequence[int], den: int, coroot: Sequence[int]):
        if any(_gauss_index(name) is not None for name in names):
            raise ValueError(f"a reflection moves no Gauss symbol: {tuple(names)}")
        shifts = [_WIDTH * _lane(name) for name in names]
        self._symbols = tuple(names)
        self._form = tuple((s, a) for s, a in zip(shifts, pairing) if a)
        self._offset = _LIMIT * sum(pairing)  # a lane read biased holds its exponent plus _LIMIT
        self._den = den
        self._root = sum(c << s for s, c in zip(shifts, coroot))
        self._moved = tuple((s, c) for s, c in zip(shifts, coroot) if c)
        self._small = _LIMIT // max(abs(c) for c in coroot)  # |k| below it: k c packed is a valid monomial

    def images(self, monos: Iterable[int]) -> list[tuple[int, int]]:
        """(the packed image, k = <a, mu>) of each packed monomial of monos.

        ValueError if a k is not an integer; OverflowError if an exponent of
        an image leaves the valid range, which no exponent ever carries out
        of: for a small k, m and -k c packed are valid monomials, whose sum
        decodes exactly, and otherwise every moved exponent is checked.
        """
        form, offset, den, root, small, bias = self._form, self._offset, self._den, self._root, self._small, _bias
        out = []
        for m in monos:
            t = m + bias
            k = -offset
            for s, a in form:
                k += a * ((t >> s) & _LANE_MASK)
            if den != 1:
                k, r = divmod(k, den)
                if r:
                    mu = tuple(_exponents(m).get(name, 0) for name in self._symbols)
                    raise ValueError(f"non-integral image of {mu}: <a, mu> = {k * den + r}/{den}")
            image = m - k * root
            if -small < k < small:
                bad = (image + bias) & _guard
            else:
                bad = any(not -_LIMIT <= ((t >> s) & _LANE_MASK) - _LIMIT - k * c < _LIMIT for s, c in self._moved)
            if bad:
                raise OverflowError(f"exponent outside [{-_LIMIT}, {_LIMIT}) in the image of {_named(m)}")
            out.append((image, k))
        return out

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """f with each monomial reflected (:meth:`images`); moving no Gauss symbol, it keeps f's normal form."""
        images = self.images(f._t)
        return _new({m: c for (m, _), c in zip(images, f._t.values())}, f.rules, canonical=True)


def divided_difference(
    f: LaurentPoly, diagonal: LaurentPoly, twists: Sequence[LaurentPoly], reflection: Reflection, q: LaurentPoly
) -> LaurentPoly:
    """The sum over the terms c m of f of c m diagonal + c twists[-k mod t] s(m), divided exactly by q.

    s is the reflection, k = <a, m> its pairing with m (:meth:`Reflection.images`)
    and t the number of twists, so a single twist serves every term.  The
    numerator is formed in one pass over the packed terms of f, with no
    intermediate polynomial, then divided once by :func:`exact_divide`.
    Gauss rules, the range check and NotDivisible are those of a product,
    a sum and :func:`exact_divide`: the operands are brought under their
    common rules first, and a numerator whose two factors both carry g_{n/2}
    (even n) is normalized again.
    """
    ops, rules = (f, diagonal, *twists), f.rules
    if any(p.rules is not rules for p in ops):
        witness = next(p for p in ops if p.rules is not None)
        rules = witness.rules
        ops = tuple(p if p.rules is rules else _common(p, witness)[0] for p in ops)
    f, diagonal, *twists = ops
    diag = list(diagonal._t.items())
    twisted = [list(t._t.items()) for t in twists]
    classes = len(twisted)
    terms: dict[int, Coeff] = {}
    get = terms.get
    for (m, c), (target, k) in zip(f._t.items(), reflection.images(f._t)):
        for m2, c2 in diag:
            m2 += m
            terms[m2] = get(m2, 0) + c * c2
        for m2, c2 in twisted[-k % classes]:
            m2 += target
            terms[m2] = get(m2, 0) + c * c2
    _check_range(terms)
    half = rules._half if rules is not None else 0
    canonical = not (half and _gauss_lanes(f) & half and any(_gauss_lanes(p) & half for p in ops[1:]))
    return exact_divide(_new({m: c for m, c in terms.items() if c}, rules, canonical=canonical), q)


# -- denominator factors ------------------------------------------------------------

_RULE_FREE_FACTORS: dict = {}  # _normal_factor's memo for factors without Gauss rules


def _lead_inverse(f: LaurentPoly) -> LaurentPoly:
    """1 / t for the largest term t of f in the graded-lex order of :func:`_graded_lex`."""
    lead = max(f._t, key=_graded_lex(f.symbols()))
    c = f._t[lead]
    return _new({lead: c}, f.rules, canonical=True).monomial_inverse()


def _normal_factor(f: LaurentPoly) -> tuple[LaurentPoly | None, LaurentPoly | None]:
    """(f / t, 1 / t) for the unit t that the leading terms of the denominator factor f give.

    This is the one place the normal form of a factor is decided.  t is the
    largest term of f in the graded-lex order of :func:`_graded_lex`, which
    is invariant under multiplication by a monomial, so every associate
    c * m * f (c a nonzero number, m a monomial) has the same normal form
    f / t, whose constant term is 1.  Under even n a factor carrying
    g_{n/2} is decided in its two halves (see :func:`_halves`): t is the
    unit whose halves are the leading terms of f's halves, so associates by
    any unit of the ring, such as ((1 + x) + (x - 1) u^-1 g_{n/2})/2, have
    one normal form as well.  The first entry is None when f is a unit
    (f / t = 1), the constant 1 included, and the second when f is already
    normal (t = 1).  Memoized per factor and rules object.

    ZeroDivisionError if f is zero or a zero divisor: under even n, one of
    its two halves is zero.
    """
    rules = f.rules
    memo = _RULE_FREE_FACTORS if rules is None else rules._factors
    hit = memo.get(f)
    if hit is not None:
        return hit
    if not f._t:
        raise ZeroDivisionError("zero polynomial in denominator")
    halves = _halves(f)
    if halves is None:
        inverse = _lead_inverse(f)
    elif halves[0].is_zero() or halves[1].is_zero():
        raise ZeroDivisionError(f"zero divisor in denominator: {f.render()}")
    else:
        inverse = _recombine(_lead_inverse(halves[0]), _lead_inverse(halves[1]), rules)
    normal = f if inverse._t == {0: 1} else f * inverse
    if normal._t == {0: 1}:  # a unit, decided before "already normal" so that 1 is dropped too
        hit = memo[f] = (None, None if normal is f else inverse)
    elif normal is f:
        hit = memo[f] = (f, None)
    else:
        memo.setdefault(normal, (normal, None))  # a normal factor stays as it is
        hit = memo[f] = (normal, inverse)
    return hit


class RationalFunction:
    """Fraction num / prod(den) with the denominator kept as a factor multiset.

    Normal form of the denominator: the constructor divides every factor it
    is given by the factor's leading term (see :func:`_normal_factor`),
    multiplies the numerator by the inverse of that unit, and drops factors
    that are units.  So associates such as 1 - x, x - 1, 2 - 2x and 1 - x^-1
    are stored as one factor, 1 - x^-1, and sums and equality share them.
    Sums, products and negations of normal operands are normal and are built
    without normalizing again.

    Equality is by cross multiplication, so no multivariate gcd is ever
    needed; cancellation happens only by trial exact division of the
    numerator by a factor, in :meth:`cancelled` and in sums, which try the
    factors both operands share (see the module docstring).  No stored
    factor is a zero divisor, so dividing by one keeps the value, under
    even-n Gauss rules too.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[LaurentPoly] = ()):
        """num / prod(den); a zero numerator clears the denominator."""
        factors: list[LaurentPoly] = []
        unit = None
        for f in den:
            normal, inverse = _normal_factor(f)
            if normal is not None:
                factors.append(normal)
            if inverse is not None:
                unit = inverse if unit is None else unit * inverse
        if unit is not None:
            num = num * unit
        self.num = num
        self.den = () if num.is_zero() else tuple(factors)

    def cancelled(self) -> "RationalFunction":
        """Cancel denominator factors that exactly divide the numerator."""
        return _rf(*_cancel(self.num, self.den))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return _rf(p, ())

    @staticmethod
    def const(value, rules: GaussRules | None = None) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.const(value, rules))

    @staticmethod
    def zero(rules: GaussRules | None = None) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.zero(rules))

    @staticmethod
    def one(rules: GaussRules | None = None) -> "RationalFunction":
        return RationalFunction.const(1, rules)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other, self.num.rules)
        return None

    # -- field operations ------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        common, rest_self, rest_other = _shared_factors(self.den, other.den)
        num = _times(self.num, rest_other) + _times(other.num, rest_self)  # + merges the rules
        if common and num._t:  # a factor of one side only cannot divide the sum of reduced operands
            num, common = _cancel(num, common)
        return _rf(num, common + rest_self + rest_other)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _rf(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _rf(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        quotient = RationalFunction(_times(self.num, other.den), (other.num,))
        return _rf(quotient.num, self.den + quotient.den)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _rf(self.num ** n, self.den * n)  # the same factor multiset as n products

    def inverse(self) -> "RationalFunction":
        return RationalFunction.one(self.num.rules) / self

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return rf_equal(self, other)

    __hash__ = None  # equality is cross-multiplicative

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> LaurentPoly:
        """The underlying Laurent polynomial; NotDivisible if a denominator survives."""
        p = self.num
        for f in self.den:
            p = exact_divide(p, f)
        return p

    def render(self) -> str:
        if not self.den:
            return self.num.render()
        den = "*".join(f"({f.render()})" for f in self.den)
        return f"({self.num.render()}) / {den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"


def _rf(num: LaurentPoly, den: tuple[LaurentPoly, ...]) -> RationalFunction:
    """num / prod(den) for factors already in normal form (a zero num clears den)."""
    out = object.__new__(RationalFunction)
    out.num = num
    out.den = () if num.is_zero() else den
    return out


def _cancel(num: LaurentPoly, factors: Sequence[LaurentPoly]) -> tuple[LaurentPoly, tuple[LaurentPoly, ...]]:
    """(num divided by every factor that exactly divides it, in turn; the factors that do not).

    The one trial-division routine, for :meth:`RationalFunction.cancelled`
    and for sums.  A repeated factor that failed once is simply tried again:
    each later num divides the earlier one, so it fails again.
    """
    kept: list[LaurentPoly] = []
    for f in factors:
        try:
            num = exact_divide(num, f)
        except NotDivisible:
            kept.append(f)
    return num, tuple(kept)


def _times(p: LaurentPoly, factors: Sequence[LaurentPoly]) -> LaurentPoly:
    """p times the product of the factors (formed first: they are small, p may be large); p if there are none."""
    return p * reduce(mul, factors) if factors else p


def _shared_factors(a: Sequence[LaurentPoly], b: Sequence[LaurentPoly]) -> tuple[tuple[LaurentPoly, ...], ...]:
    """(common, rest of a, rest of b): the factor multisets a and b split at their intersection."""
    common: list[LaurentPoly] = []
    rest_a: list[LaurentPoly] = []
    rest_b = list(b)
    for f in a:
        if f in rest_b:
            rest_b.remove(f)
            common.append(f)
        else:
            rest_a.append(f)
    return tuple(common), tuple(rest_a), tuple(rest_b)


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """True iff a == b as rational functions (cross multiplication, no gcd).

    Each numerator is multiplied only by the factors the other side lacks,
    and the two products are compared in the merged Gauss rules.
    """
    if a is b:
        return True
    _, rest_a, rest_b = _shared_factors(a.den, b.den)  # shared factors cancel before cross multiplying
    return _times(a.num, rest_b) == _times(b.num, rest_a)


# -- shared symbol helpers ----------------------------------------------------


def u(rules: GaussRules | None = None) -> LaurentPoly:
    return LaurentPoly.symbol("u", rules)


def v(rules: GaussRules | None = None) -> LaurentPoly:
    """The Hecke parameter v = u^2."""
    return LaurentPoly.monomial({"u": 2}, rules=rules)


def gauss_symbol(a: int, rules: GaussRules) -> LaurentPoly:
    """The Gauss symbol g_{a mod n} in normal form (g_0 = -u^2, g_{n-a} = u^2 g_a^-1 for a < n/2)."""
    return LaurentPoly.symbol(f"g{a % rules.modulus}", rules)
