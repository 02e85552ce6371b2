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

Coefficients are ``int``.  A ``Fraction`` appears only where a value is not
integral: a quotient in :func:`exact_divide`, the inverse of a monomial whose
coefficient is not +-1, or an input such as ``"3/2"``.  A Fraction that
becomes integral is turned back into an int.

Overflow.  Every exponent lies in [-2^14, 2^14).  The top bit of each lane
is a guard, so the sum of two valid monomials still decodes exactly, and a
result with an exponent outside the range raises OverflowError; no exponent
ever carries into a neighbouring lane.

Gauss symbols g0, g1, ... are ordinary commuting symbols until a
:class:`GaussRules` context is attached, which rewrites g_a * g_{n-a} to
pair_value and g_0 to zero_value at construction time.  When pair_value is
a monomial, g_a is a unit and a negative exponent is rewritten too
(g_a^-1 = g_{n-a} / pair_value), so both exponents of a pair end >= 0 and
one of them 0.  Each rules object memoizes the rewrite of every monomial it
has seen.

Division.  :func:`exact_divide` is the one place where division is decided.
A two-term divisor with, under Gauss rules, no Gauss symbol (the 1 - z^alpha
of every Demazure step) is divided along strings of monomials, in linear
time.  Under Gauss rules the ring is a free module over the Gauss-free
Laurent ring, on the reduced Gauss monomials, and a Gauss-free factor never
triggers a rewrite, so this division runs on each coordinate alone.  Every
other divisor takes the general leading-term division.

A :class:`RationalFunction` keeps its denominator as a tuple of factors in
normal form: each factor divided by its leading term in graded-lex order
on symbol names, so that associates (1 - x, x - 1, 2 - 2x, 1 - x^-1) are
one factor and sums and equality share it.  :func:`_normal_factor` is the
one place this is decided.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul, or_
from typing import Callable, Hashable, Iterable, Sequence

Monomial = tuple[tuple[str, int], ...]
Coeff = int | Fraction


class NotDivisible(Exception):
    """Raised by :func:`exact_divide` when the quotient is not a Laurent polynomial."""


class PoleError(Exception):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class ContextMismatch(Exception):
    """Raised when two operands carry incompatible Gauss rewrite rules."""


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


def _integral(terms: dict[int, Coeff]) -> bool:
    """Turn integral Fraction coefficients into ints in place; True if a Fraction remains."""
    frac = False
    for m, c in terms.items():
        if type(c) is not int:
            if c.denominator == 1:
                terms[m] = c.numerator
            else:
                frac = True
    return frac


# -- Gauss rewrite rules ----------------------------------------------------------------


@dataclass(frozen=True)
class GaussRules:
    """Rewrite rules for formal n-th order Gauss-sum symbols.

    ``g_a * g_{(n-a) mod n} -> pair_value`` for a != 0 mod n, and
    ``g_0 -> zero_value``.  The defaults (u^2 and -u^2) are the normalized
    sums; both values are configurable.  Reduction is greedy per residue
    pair, which is confluent on monomials.
    """

    modulus: int
    pair_value: "LaurentPoly"
    zero_value: "LaurentPoly"
    # packed monomial -> its rewrite as packed terms, or None if it is canonical
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # denominator factor -> its normal form and unit (see _normal_factor)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("Gauss modulus must be >= 1")
        for value in (self.pair_value, self.zero_value):
            if value.rules is not None:
                raise ValueError("pair/zero values must be rule-free polynomials")
            if any(_gauss_index(s) is not None for s in value.symbols()):
                raise ValueError("pair/zero values must not contain Gauss symbols")

    @staticmethod
    def standard(modulus: int) -> "GaussRules":
        u2 = LaurentPoly.monomial({"u": 2})
        return GaussRules(modulus, u2, -u2)


def _merge_rules(a: GaussRules | None, b: GaussRules | None) -> GaussRules | None:
    if a is None:
        return b
    if b is None or a is b or a == b:
        return a
    raise ContextMismatch(f"incompatible Gauss rules: {a} vs {b}")


_UNSEEN = object()


def _reduce_terms(terms: dict[int, Coeff], rules: GaussRules) -> dict[int, Coeff]:
    """Rewrite packed terms (owned by the caller) into Gauss normal form."""
    memo = rules._memo
    rewrites = []
    for m in terms:
        r = memo.get(m, _UNSEEN)
        if r is _UNSEEN:
            r = memo[m] = _gauss_reduce(m, rules)
        if r is not None:
            rewrites.append((m, r))
    for m, r in rewrites:
        c = terms.pop(m)
        for m2, c2 in r:  # m2 is canonical, so never a key still to rewrite
            s = terms.get(m2, 0) + c * c2
            if s:
                terms[m2] = s
            else:
                terms.pop(m2, None)
    return terms


def _gauss_reduce(m: int, rules: GaussRules) -> tuple[tuple[int, Coeff], ...] | None:
    """Canonical form of the monomial m under the Gauss rewrite system; None if m is canonical."""
    n = rules.modulus
    plain: dict[str, int] = {}
    gexp: dict[int, int] = {}
    for lane, e in _unpack(m):
        a = _gauss_of_lane[lane]
        if a is None:
            plain[_names[lane]] = e
        else:
            a %= n
            gexp[a] = gexp.get(a, 0) + e
    if not gexp:
        return None
    multiplier = LaurentPoly.one()
    pair_invertible = len(rules.pair_value._t) == 1
    zero_count = gexp.pop(0, 0)
    if zero_count > 0:
        multiplier = multiplier * rules.zero_value ** zero_count
    elif zero_count < 0:
        multiplier = multiplier * rules.zero_value.monomial_inverse() ** (-zero_count)
    for a in sorted(gexp):
        b = (n - a) % n
        if b < a and b in gexp:
            continue  # the pair was reduced at b
        if b == a:
            e = gexp.get(a, 0)
            if e >= 0 or pair_invertible:
                pairs, leftover = divmod(e, 2)
            else:
                pairs, leftover = 0, e
            gexp[a] = leftover
        else:
            ea, eb = gexp.get(a, 0), gexp.get(b, 0)
            if pair_invertible:
                # g_a^-1 = g_b / pair_value: leave both exponents >= 0, one of them 0
                pairs = min(ea, eb)
            else:
                pairs = min(ea, eb) if ea > 0 and eb > 0 else 0
            gexp[a], gexp[b] = ea - pairs, eb - pairs
        if pairs > 0:
            multiplier = multiplier * rules.pair_value ** pairs
        elif pairs < 0:
            multiplier = multiplier * rules.pair_value.monomial_inverse() ** (-pairs)
    for a, e in gexp.items():
        if e:
            plain[f"g{a}"] = plain.get(f"g{a}", 0) + e
    base = _pack(plain)
    out = {base + m2: c2 for m2, c2 in multiplier._t.items()}
    _check_range(out)
    if out == {m: 1}:
        return None
    return tuple(out.items())


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

    __slots__ = ("_t", "rules", "_frac", "_hash", "_gauss")

    def __init__(self, terms: Mapping[Monomial, Coeff | str] | None = None, rules: GaussRules | None = None):
        packed: dict[int, Coeff] = {}
        for mono, coeff in (terms or {}).items():
            m = _pack_pairs(mono)
            packed[m] = packed.get(m, 0) + _coeff(coeff)
        packed = {m: c for m, c in packed.items() if c}
        self._set(packed, rules, any(type(c) is not int for c in packed.values()))

    def _set(
        self, terms: dict[int, Coeff], rules: GaussRules | None, frac: bool, canonical: bool = False
    ) -> "LaurentPoly":
        """Take ownership of packed terms with no zero coefficient; frac: a Fraction may be among them."""
        if rules is not None and not canonical:
            terms = _reduce_terms(terms, rules)
        if frac:
            frac = _integral(terms)
        self._t = terms
        self.rules = rules
        self._frac = frac
        self._hash = None
        self._gauss = None  # whether a term carries a Gauss symbol, once _has_gauss asks
        return self

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """Coefficient of each monomial, keyed by its name-sorted (name, exponent) tuple."""
        return _Terms(self._t)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(rules: GaussRules | None = None) -> "LaurentPoly":
        return _new({}, rules, False)

    @staticmethod
    def const(value, rules: GaussRules | None = None) -> "LaurentPoly":
        c = _coeff(value)
        return _new({0: c} if c else {}, rules, type(c) is not int, canonical=True)

    @staticmethod
    def one(rules: GaussRules | None = None) -> "LaurentPoly":
        return LaurentPoly.const(1, rules)

    @staticmethod
    def monomial(exps: Mapping[str, int], coeff=1, rules: GaussRules | None = None) -> "LaurentPoly":
        c = _coeff(coeff)
        return _new({_pack(exps): c} if c else {}, rules, type(c) is not int)

    @staticmethod
    def symbol(name: str, rules: GaussRules | None = None) -> "LaurentPoly":
        return LaurentPoly.monomial({name: 1}, rules=rules)

    def with_rules(self, rules: GaussRules | None) -> "LaurentPoly":
        return _new(dict(self._t), rules, self._frac)

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
        rules = _merge_rules(self.rules, other.rules)
        terms = dict(self._t)
        get = terms.get
        for m, c in other._t.items():
            s = get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        # terms already in normal form under shared rules stay so
        return _new(terms, rules, self._frac or other._frac, canonical=self.rules is other.rules)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _new({m: -c for m, c in self._t.items()}, self.rules, self._frac, canonical=True)

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
        rules = _merge_rules(self.rules, other.rules)
        terms: dict[int, Coeff] = {}
        get = terms.get
        right = list(other._t.items())
        for m1, c1 in self._t.items():
            for m2, c2 in right:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
        _check_range(terms)
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        frac = self._frac or other._frac
        if rules is None:
            return _new(terms, None, frac)
        # a Gauss monomial in normal form times a Gauss-free one stays in normal form
        ga, gb = _has_gauss(self), _has_gauss(other)
        canonical = not (ga and gb) and _reduced(self) and _reduced(other)
        out = _new(terms, rules, frac, canonical)
        if canonical:
            out._gauss = (ga or gb) and bool(terms)
        return out

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
        return _new(inverse, self.rules, type(inverse[-m]) is not int)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.rules)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    def is_zero(self) -> bool:
        return not self._t

    def symbols(self) -> set[str]:
        return {_names[lane] for m in self._t for lane, _ in _unpack(m)}

    # -- maps on monomials, substitution and evaluation -------------------------

    def map_monomials(
        self, image: Callable[[dict[str, int]], Mapping[str, int]], memo: dict | None = None
    ) -> "LaurentPoly":
        """Sum of c * image(m) over the terms c * m, image acting on exponents {name: exponent}.

        ``memo``, a dict the caller keeps for one ``image``, caches its
        values between calls; its keys are private to this module.
        """
        if memo is None:
            memo = {}
        terms: dict[int, Coeff] = {}
        for m, c in self._t.items():
            target = memo.get(m)
            if target is None:
                target = memo[m] = _pack(image(_exponents(m)))
            terms[target] = terms.get(target, 0) + c
        return _new({m: c for m, c in terms.items() if c}, self.rules, self._frac)

    def split(self, key: Callable[[dict[str, int]], Hashable]) -> dict[Hashable, "LaurentPoly"]:
        """The terms grouped by key(exponents), one polynomial per key, in order of first appearance."""
        groups: dict[Hashable, dict[int, Coeff]] = {}
        for m, c in self._t.items():
            groups.setdefault(key(_exponents(m)), {})[m] = c
        return {k: _new(t, self.rules, self._frac, canonical=True) for k, t in groups.items()}

    def substitute_monomials(self, images: Mapping[str, Mapping[str, int]]) -> "LaurentPoly":
        """Ring homomorphism sending each mapped symbol to a monomial; others fixed."""

        def image(exps: dict[str, int]) -> dict[str, int]:
            out: dict[str, int] = {}
            for s, e in exps.items():
                target = images.get(s)
                if target is None:
                    out[s] = out.get(s, 0) + e
                else:
                    for t, f in target.items():
                        out[t] = out.get(t, 0) + e * f
            return out

        return self.map_monomials(image)

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, coeff in self._t.items():
            value = Fraction(coeff)
            for s, e in _named(m):
                if s not in point:
                    raise ValueError(f"unassigned symbol {s!r}")
                base = Fraction(point[s])
                if base == 0 and e < 0:
                    raise PoleError(f"{s} = 0 raised to a negative power")
                value *= base ** e
            total += value
        return total

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in ascending graded-lex order on symbol names."""
        if not self._t:
            return "0"
        terms = [(_named(m), c) for m, c in self._t.items()]
        names = sorted({s for mono, _ in terms for s, _ in mono})
        index = {s: i for i, s in enumerate(names)}

        def key(mono: Monomial):
            vec = [0] * len(names)
            for s, e in mono:
                vec[index[s]] = e
            return (sum(e for _, e in mono), vec)

        parts = []
        for mono, coeff in sorted(terms, key=lambda kv: key(kv[0])):
            factors = [s if e == 1 else f"{s}^{e}" for s, e in mono]
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


def _new(terms: dict[int, Coeff], rules: GaussRules | None, frac: bool, canonical: bool = False) -> LaurentPoly:
    """A polynomial owning packed terms; canonical: they are already in Gauss normal form."""
    return object.__new__(LaurentPoly)._set(terms, rules, frac, canonical)


def _content(p: LaurentPoly) -> int:
    """Componentwise minimum exponent over all terms (the unit part of p), packed."""
    vecs = [dict(_unpack(m)) for m in p._t]
    lanes = set().union(*vecs)
    return sum(min(vec.get(lane, 0) for vec in vecs) << (_WIDTH * lane) for lane in lanes)


def _shift(p: LaurentPoly, shift: int) -> LaurentPoly:
    if not shift:
        return p
    _check_range((shift,))
    return p * _new({shift: 1}, p.rules, False)


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
    """Return r with r*q == p exactly, or raise :class:`NotDivisible`.

    This is the one place where division is decided.  A two-term divisor
    with no Gauss symbol under Gauss rules (every Demazure step divides by
    one) takes :func:`_divide_binomial`, linear in the number of terms and
    complete under Gauss rules too (see the module docstring).  Every other
    divisor takes :func:`_divide_general`, which is complete unless the
    divisor carries a Gauss symbol under Gauss rules: in the ring of
    GaussRules.standard(3), (x + g1)(x + g2) / (x + g1) raises NotDivisible.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rules = _merge_rules(p.rules, q.rules)
    if p.is_zero():
        return LaurentPoly.zero(rules)
    if len(q._t) == 2 and (rules is None or not _has_gauss(q)):
        return _divide_binomial(p, q, rules)
    return _divide_general(p, q, rules)


def _has_gauss(p: LaurentPoly) -> bool:
    """True if a term of p carries a Gauss symbol; computed once per polynomial.

    Biased, a lane holds its exponent plus _LIMIT, with no carries, so the
    lane's bits of (m + _bias) ^ _bias are zero exactly when its exponent is.
    """
    g = p._gauss
    if g is None:
        mask, bias = _gauss_mask, _bias
        g = p._gauss = any(((m + bias) ^ bias) & mask for m in p._t)
    return g


def _reduced(p: LaurentPoly) -> bool:
    """True if p is in Gauss normal form under any rules it merges with: it has rules, or no Gauss symbol."""
    return p.rules is not None or not _has_gauss(p)


def _divide_binomial(p: LaurentPoly, q: LaurentPoly, rules: GaussRules | None) -> LaurentPoly:
    """p / q for q = ca x^A + cb x^B, by synthetic division along the strings of d = A - B.

    The monomials of p fall into strings base + k d: in one lane where d is
    nonzero, k is the term's exponent divided by d's, rounded down, so base
    is the same for every term of a string.  On each string q acts as the
    univariate ca y + cb in y = x^d, so the quotient's coefficients follow
    from the top of the string down, r_{k-1} = (p_k - cb r_k) / ca, and p is
    divisible iff the last remainder p_kmin - cb r_kmin of every string is
    zero.  No step looks for a leading term or rebuilds a remainder.

    Under Gauss rules a Gauss-free q never triggers a rewrite (see the module
    docstring): a string keeps the Gauss part of its base, and the quotient
    is already reduced.
    """
    terms = p._t if p.rules is rules else p.with_rules(rules)._t
    (a, ca), (b, cb) = q._t.items()
    d = a - b
    lane, e = _unpack(d)[0]
    shift = _WIDTH * lane
    strings: dict[int, dict[int, Coeff]] = {}
    for m, c in terms.items():
        # biased, every lane lies in [0, _HALF), so no lane borrows from the next
        k = ((((m + _bias) >> shift) & _LANE_MASK) - _LIMIT) // e
        strings.setdefault(m - k * d, {})[k] = c
    quotient: dict[int, Coeff] = {}
    frac = False
    for base, string in strings.items():
        kmin, kmax = min(string), max(string)
        r = 0
        for k in range(kmax, kmin, -1):
            r = _div(string.get(k, 0) - cb * r, ca)
            if r:
                quotient[base - b + (k - 1) * d] = r
                frac = frac or type(r) is not int
        if string[kmin] != cb * r:
            raise NotDivisible(f"({p.render()}) is not divisible by ({q.render()})")
    _check_range(quotient)
    return _new(quotient, rules, frac, canonical=True)


def _divide_general(p: LaurentPoly, q: LaurentPoly, rules: GaussRules | None) -> LaurentPoly:
    """p / q by repeated leading-term division, quadratic in the number of terms.

    Both operands are normalized by their unit (monomial) content first;
    this reduces Laurent divisibility to polynomial divisibility, where a
    single-divisor division with graded-lex leading terms is a complete test.
    """
    cp, cq = _content(p), _content(q)
    phat, qhat = _shift(p, -cp), _shift(q, -cq)
    order = _graded_lex(phat.symbols() | qhat.symbols())
    lq = max(qhat._t, key=order)
    lq_coeff = qhat._t[lq]
    quotient: dict[int, Coeff] = {}
    rem = phat
    while not rem.is_zero():
        lm = max(rem._t, key=order)
        t = lm - lq
        if any(e < 0 for _, e in _unpack(t)):
            raise NotDivisible(f"({p.render()}) is not divisible by ({q.render()})")
        tc = _div(rem._t[lm], lq_coeff)
        quotient[t] = quotient.get(t, 0) + tc
        rem = rem - _new({t: tc}, rules, type(tc) is not int) * qhat
    quotient = {m: c for m, c in quotient.items() if c}
    frac = any(type(c) is not int for c in quotient.values())
    return _shift(_new(quotient, rules, frac), cp - cq)


# -- denominator factors ------------------------------------------------------------

_RULE_FREE_FACTORS: dict = {}  # _normal_factor's memo for factors without Gauss rules


def _normal_factor(f: LaurentPoly) -> tuple[LaurentPoly | None, LaurentPoly | None]:
    """(f / t, 1 / t) for the leading term t of the denominator factor f.

    This is the one place the normal form of a factor is decided.  t is the
    largest term of f in the graded-lex order of :func:`_graded_lex`, which
    is invariant under multiplication by a monomial, so every associate
    c * m * f (c a nonzero number, m a monomial) has the same normal form
    f / t, whose constant term is 1.  (Under Gauss rules the rewrite of a
    product can reorder terms of equal degree; such associates stay exact
    but may keep two keys.)  The first entry is None when f is a unit
    (f / t = 1), the second when f is already normal (t = 1).  Where the
    Gauss pair value is not a monomial, g_a is no unit, so t keeps no Gauss
    symbol.  Memoized per factor and rules object.

    ZeroDivisionError if f is zero or a zero divisor.  Under even n the pair
    rule g_h^2 = pair_value (h = n/2) makes the ring a product of two rings,
    g_h = r and g_h = -r, when pair_value is the square r^2 of a monomial r
    with coefficient 1, as in every GaussRules.standard(n) (r = u); each
    factor is a Laurent ring, so f is a zero divisor exactly when it
    vanishes at one of the two.  With any other pair value the check is not
    made.
    """
    rules = f.rules
    memo = _RULE_FREE_FACTORS if rules is None else rules._factors
    hit = memo.get(f)
    if hit is not None:
        return hit
    terms = f._t
    if not terms:
        raise ZeroDivisionError("zero polynomial in denominator")
    if len(terms) == 1:
        hit = memo[f] = (None, f.monomial_inverse())
        return hit
    if rules is not None and _vanishes_at_half(f, rules):
        raise ZeroDivisionError(f"zero divisor in denominator: {f.render()}")
    lead = max(terms, key=_graded_lex(f.symbols()))
    c = terms[lead]
    if rules is not None and len(rules.pair_value._t) != 1:
        lead = _pack({s: e for s, e in _exponents(lead).items() if _gauss_index(s) is None})
    if lead == 0 and c == 1:
        hit = memo[f] = (f, None)
        return hit
    inverse = _new({lead: c}, rules, type(c) is not int, canonical=True).monomial_inverse()
    normal = f * inverse
    memo.setdefault(normal, (normal, None))  # a normal factor stays as it is
    hit = memo[f] = (normal, inverse)
    return hit


def _vanishes_at_half(f: LaurentPoly, rules: GaussRules) -> bool:
    """True if f is zero at g_h = r or at g_h = -r, for h = n/2 and pair_value = r^2 (see _normal_factor).

    In normal form f = f0 + f1 g_h with f0, f1 free of g_h, so its two
    values are f0 + r f1 and f0 - r f1.
    """
    n, pair_value = rules.modulus, rules.pair_value._t
    lane = _lanes.get(f"g{n // 2}")
    if n % 2 or lane is None or len(pair_value) != 1:
        return False
    (pair, c), = pair_value.items()
    exps = _unpack(pair)
    if c != 1 or any(e % 2 for _, e in exps):
        return False
    shift = _WIDTH * lane
    to_root = sum((e // 2) << (_WIDTH * lane_e) for lane_e, e in exps) - (1 << shift)  # g_h -> r
    f0: dict[int, Coeff] = {}
    f1: dict[int, Coeff] = {}  # r f1
    for m, c in f._t.items():
        if (((m + _bias) >> shift) & _LANE_MASK) - _LIMIT:  # g_h^1: the exponent is 0 or 1
            f1[m + to_root] = c
        else:
            f0[m] = c
    return f0 == f1 or f0 == {m: -c for m, c in f1.items()}


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
    numerator by a factor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[LaurentPoly] = (), simplify: bool = True):
        """simplify: a zero numerator clears the denominator."""
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
        self.den = () if simplify and num.is_zero() else tuple(factors)

    def cancelled(self) -> "RationalFunction":
        """Cancel denominator factors that exactly divide the numerator."""
        num, kept = self.num, []
        for f in self.den:
            try:
                num = exact_divide(num, f)
            except NotDivisible:
                kept.append(f)
        return _rf(num, tuple(kept))

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
        common: list[LaurentPoly] = []
        rest_other = list(other.den)
        rest_self: list[LaurentPoly] = []
        for f in self.den:
            if f in rest_other:
                rest_other.remove(f)
                common.append(f)
            else:
                rest_self.append(f)
        num = _times(self.num, rest_other) + _times(other.num, rest_self)  # + merges the rules
        return _rf(num, tuple(common) + tuple(rest_self) + tuple(rest_other))

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
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalFunction.one(self.num.rules)
        for _ in range(n):
            result = result * self
        return result

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

    def substitute_monomials(self, images: Mapping[str, Mapping[str, int]]) -> "RationalFunction":
        return RationalFunction(
            self.num.substitute_monomials(images),
            tuple(f.substitute_monomials(images) for f in self.den),
            simplify=False,
        )

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        value = self.num.eval(point)
        for f in self.den:
            d = f.eval(point)
            if d == 0:
                raise PoleError(f"denominator factor {f.render()} vanishes")
            value /= d
        return value

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


def _times(p: LaurentPoly, factors: Sequence[LaurentPoly]) -> LaurentPoly:
    """p times the product of the factors (formed first: they are small, p may be large); p if there are none."""
    return p * reduce(mul, factors) if factors else p


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """True iff a == b as rational functions (cross multiplication, no gcd).

    Each numerator is multiplied only by the factors the other side lacks,
    and the two products are compared in the merged Gauss rules.
    """
    rules = _merge_rules(a.num.rules, b.num.rules)
    rest_a = list(a.den)
    rest_b: list[LaurentPoly] = []
    for f in b.den:
        if f in rest_a:
            rest_a.remove(f)  # shared factors cancel before cross multiplying
        else:
            rest_b.append(f)
    lhs, rhs = _times(a.num, rest_b), _times(b.num, rest_a)
    if rules is not None:
        lhs = lhs if _reduced(lhs) else lhs.with_rules(rules)
        rhs = rhs if _reduced(rhs) else rhs.with_rules(rules)
    return lhs == rhs


# -- shared symbol helpers ----------------------------------------------------


def u(rules: GaussRules | None = None) -> LaurentPoly:
    return LaurentPoly.symbol("u", rules)


def v(rules: GaussRules | None = None) -> LaurentPoly:
    """The Hecke parameter v = u^2."""
    return LaurentPoly.monomial({"u": 2}, rules=rules)


def gauss_symbol(a: int, rules: GaussRules) -> LaurentPoly:
    """The Gauss symbol g_{a mod n} (g_0 collapses to zero_value)."""
    return LaurentPoly.symbol(f"g{a % rules.modulus}", rules)
