"""Finite Cartan data and Weyl groups as lattice automorphisms.

Supported types: A1..A4 (GL-style ambient Z^{r+1}), C2, B2, G2.  The root
system Phi^vee lives inside the character lattice of a torus with
coordinates z1..zd; Weyl elements carry canonical reduced words, and the
Weyl character formula is evaluated exactly.

Realizations follow the standard ambient spaces: type A_r has
alpha_i = e_i - e_{i+1} in Z^{r+1}; C2 has (1,-1), (0,2); G2 sits in the
rank-3 ambient with alpha_1 = (0,1,-1), alpha_2 = (1,-2,1).  B2 is realized
as C2 with the two simple indices swapped (its coroot lattice data); this is
the unique integral realization admitting a monomial z^rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .algebra import GaussRules, LaurentPoly, RationalFunction, exact_divide

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
Scaled = tuple[tuple[IntVector, ...], int]  # a rational matrix as (integer rows, denominator), in lowest terms


def _vec(xs: Iterable) -> Vector:
    return tuple(Fraction(x) for x in xs)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class CartanDatum:
    cartan_type: str
    dim: int
    simple_coroots: tuple[IntVector, ...]
    pairings: tuple[Vector, ...]          # functionals <alpha_i, .>
    rho: IntVector                        # lattice vector with <alpha_i, rho> = 1
    positive_coroots: tuple[IntVector, ...] = field(default=())
    braid_orders: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def rank(self) -> int:
        return len(self.simple_coroots)

    def pairing(self, i: int, mu: Sequence) -> Fraction:
        return _dot(self.pairings[i], mu)

    def pairing_int(self, i: int, mu: Sequence) -> int:
        value = self.pairing(i, mu)
        if value.denominator != 1:
            raise ValueError(f"weight {tuple(mu)} is not in the lattice of {self.cartan_type}")
        return int(value)

    def in_lattice(self, mu: Sequence) -> bool:
        return all(self.pairing(i, mu).denominator == 1 for i in range(self.rank))

    def is_dominant(self, mu: Sequence) -> bool:
        return all(self.pairing_int(i, mu) >= 0 for i in range(self.rank))

    def fundamental_weights(self) -> tuple[IntVector, ...]:
        """One lattice representative per fundamental weight (pairing delta_ij)."""
        out = []
        for i in range(self.rank):
            for cand in self._weight_candidates():
                if all(self.pairing(j, cand) == (1 if j == i else 0) for j in range(self.rank)):
                    out.append(cand)
                    break
            else:
                raise ValueError("no fundamental weight representative found")
        return tuple(out)

    def _weight_candidates(self):
        from itertools import product

        span = range(-3, 4)
        for cand in product(span, repeat=self.dim):
            yield tuple(cand)


def _identity(d: int) -> Scaled:
    return tuple(tuple(int(r == c) for c in range(d)) for r in range(d)), 1


def _simple_reflection(cartan: CartanDatum, i: int) -> Scaled:
    """s_i in ambient coordinates: x -> x - <alpha_i, x> alpha_i^vee."""
    d = cartan.dim
    alpha, pairing = cartan.simple_coroots[i], cartan.pairings[i]
    matrix = [[int(r == c) - alpha[r] * pairing[c] for c in range(d)] for r in range(d)]
    den = lcm(*(x.denominator for row in matrix for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in matrix), den


def _compose(a: Scaled, b: Scaled) -> Scaled:
    """The matrix product a b, in lowest terms."""
    (ra, da), (rb, db) = a, b
    cols = list(zip(*rb))
    rows = [[sum(map(mul, row, col)) for col in cols] for row in ra]
    g = gcd(da * db, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), da * db // g


@dataclass(frozen=True)
class WeylElement:
    """w acting on the ambient lattice by its matrix, kept as integer rows over one denominator."""

    scaled: Scaled
    word: tuple[int, ...]
    length: int
    # elements key many dicts; hash the rows once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.scaled, self.word, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def matrix(self) -> tuple[Vector, ...]:
        """The matrix of w with Fraction entries, derived from the integer rows."""
        rows, den = self.scaled
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def act(self, mu: Sequence) -> IntVector:
        """w mu for a lattice vector mu; ValueError if the image is not integral."""
        rows, den = self.scaled
        image = [sum(map(mul, row, mu)) for row in rows]
        if any(x % den for x in image):
            raise ValueError(f"non-integral image ({', '.join(str(Fraction(x, den)) for x in image)}) of {tuple(mu)}")
        return tuple([x // den for x in image])

    def name(self) -> str:
        return "".join(str(i + 1) for i in self.word) if self.word else "e"

    def __repr__(self) -> str:
        return f"WeylElement({self.name()})"


class WeylGroup:
    """All |W| elements with canonical reduced words, closed under multiplication."""

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self._simple_matrices = [_simple_reflection(cartan, i) for i in range(cartan.rank)]
        self.elements: list[WeylElement] = []
        self._by_matrix: dict[Scaled, WeylElement] = {}
        self._generate()
        self._simples = [self._by_matrix[m] for m in self._simple_matrices]
        self._bruhat_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        # products, inverses, monomial and denominator-factor images, keyed by reduced words
        self._mul_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], WeylElement] = {}
        self._inverse_cache: dict[tuple[int, ...], WeylElement] = {}
        self._act_memos: dict[tuple[int, ...], dict] = {}
        self._factor_images: dict[tuple[int, ...], dict[LaurentPoly, LaurentPoly]] = {}
        self._coordinates = tuple(f"z{i + 1}" for i in range(cartan.dim))

    def _generate(self) -> None:
        identity = _identity(self.cartan.dim)
        start = WeylElement(identity, (), 0)
        self.elements = [start]
        self._by_matrix = {identity: start}
        frontier = [start]
        while frontier:
            discovered: dict[Scaled, tuple[int, ...]] = {}
            for u in frontier:
                for i in range(self.cartan.rank):
                    m = _compose(self._simple_matrices[i], u.scaled)
                    if m in self._by_matrix:
                        continue
                    word = (i,) + u.word
                    if m not in discovered or word < discovered[m]:
                        discovered[m] = word
            frontier = []
            for m, word in discovered.items():
                w = WeylElement(m, word, len(word))
                self._by_matrix[m] = w
                self.elements.append(w)
                frontier.append(w)
        self.elements.sort(key=lambda w: (w.length, w.word))
        if self.cartan.rank == 2:
            self._rename_longest()

    def _rename_longest(self) -> None:
        # Alternating word ending in s_1 ("121", "2121", "212121"), matching
        # the conventional spelling for the rank-2 longest element.
        w0 = self.longest()
        m = w0.length
        word = tuple(0 if (m - 1 - j) % 2 == 0 else 1 for j in range(m))
        renamed = WeylElement(w0.scaled, word, m)
        self._by_matrix[w0.scaled] = renamed
        self.elements[self.elements.index(w0)] = renamed

    # -- group structure ------------------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def simple(self, i: int) -> WeylElement:
        return self._simples[i]

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        key = (a.word, b.word)
        product = self._mul_cache.get(key)
        if product is None:
            product = self._mul_cache[key] = self._by_matrix[_compose(a.scaled, b.scaled)]
        return product

    def inverse(self, w: WeylElement) -> WeylElement:
        result = self._inverse_cache.get(w.word)
        if result is None:
            result = self.identity
            for i in w.word:
                result = self.mul(self.simple(i), result)
            self._inverse_cache[w.word] = result
        return result

    def left_mul_simple(self, i: int, w: WeylElement) -> WeylElement:
        return self.mul(self._simples[i], w)

    def is_left_descent(self, i: int, w: WeylElement) -> bool:
        return self.left_mul_simple(i, w).length < w.length

    def longest(self) -> WeylElement:
        return max(self.elements, key=lambda w: w.length)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def bruhat_le(self, u: WeylElement, w: WeylElement) -> bool:
        """Standard Bruhat order via the descent recursion (subword criterion)."""
        key = (u.word, w.word)
        cached = self._bruhat_cache.get(key)
        if cached is not None:
            return cached
        if u.length > w.length:
            result = False
        elif u.length == 0:
            result = True
        elif u.scaled == w.scaled:
            result = True
        else:
            i = next(j for j in range(self.cartan.rank) if self.is_left_descent(j, w))
            sw = self.left_mul_simple(i, w)
            su = self.left_mul_simple(i, u)
            result = self.bruhat_le(su if su.length < u.length else u, sw)
        self._bruhat_cache[key] = result
        return result

    # -- actions on weights and functions ------------------------------------

    def act_fn(self, w: WeylElement, f):
        """act_fn(w, z^mu) = z^{w mu}; a ring homomorphism on z-monomials.

        The image of each monomial, and of each denominator factor (few:
        one per root and shape), under each element is computed once per group.
        """
        if isinstance(f, RationalFunction):
            images = self._factor_images.setdefault(w.word, {})
            den = []
            for g in f.den:
                image = images.get(g)
                if image is None or image.rules is not g.rules:  # equal factors may differ in rules
                    image = images[g] = self.act_fn(w, g)
                den.append(image)
            return RationalFunction(self.act_fn(w, f.num), den, simplify=False)
        memo = self._act_memos.setdefault(w.word, {})
        return f.map_monomials(lambda exps: _act_on_exponents(w, exps, self._coordinates), memo)

    def at_point(self, w: WeylElement, f):
        """Evaluate a z-function at the torus point w*z: f(wz) = act_fn(w^{-1}, f)."""
        return self.act_fn(self.inverse(w), f)


def _act_on_exponents(w: WeylElement, exps: dict[str, int], names: tuple[str, ...]) -> dict[str, int]:
    """The exponents of z^{w mu} * (the other symbols), for the monomial z^mu * (the other symbols)."""
    out = dict(exps)
    vec = [out.pop(z, 0) for z in names]
    for z, e in zip(names, w.act(vec)):
        if e:
            out[z] = e
    return out


def _positive_closure(cartan_type: str, simples: list[IntVector], pairings: list[Vector], rho) -> tuple[IntVector, ...]:
    seen = {tuple(a) for a in simples}
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(len(simples)):
            k = _dot(pairings[i], beta)
            if k.denominator != 1:
                raise ValueError(f"non-integral Cartan pairing in {cartan_type}")
            image = tuple(b - int(k) * a for b, a in zip(beta, simples[i]))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    positives = [b for b in seen if _dot(rho, b) > 0]
    positives.sort(key=lambda b: (_dot(rho, b), b))
    return tuple(positives)


_REALIZATIONS: dict[str, dict] = {
    "A1": dict(dim=2),
    "A2": dict(dim=3),
    "A3": dict(dim=4),
    "A4": dict(dim=5),
    "C2": dict(
        dim=2,
        simples=[(1, -1), (0, 2)],
        pairings=[(1, -1), (0, 1)],
        rho=(2, 1),
    ),
    "B2": dict(
        dim=2,
        simples=[(0, 2), (1, -1)],
        pairings=[(0, 1), (1, -1)],
        rho=(2, 1),
    ),
    "G2": dict(
        dim=3,
        simples=[(0, 1, -1), (1, -2, 1)],
        pairings=[(0, 1, -1), (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3))],
        rho=(3, -1, -2),
    ),
}


def build_cartan(cartan_type: str) -> CartanDatum:
    """Cartan data for a supported type, with positive coroots and rho."""
    spec = _REALIZATIONS.get(cartan_type)
    if spec is None:
        raise ValueError(f"unsupported Cartan type {cartan_type!r} (use A1..A4, B2, C2, G2)")
    if cartan_type.startswith("A"):
        r = int(cartan_type[1])
        d = r + 1
        simples = [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(d)) for i in range(r)]
        pairings = [_vec(s) for s in simples]
        rho = tuple(range(r, -1, -1))
    else:
        d = spec["dim"]
        simples = [tuple(s) for s in spec["simples"]]
        pairings = [_vec(p) for p in spec["pairings"]]
        rho = tuple(spec["rho"])
    positives = _positive_closure(cartan_type, simples, pairings, rho)
    datum = CartanDatum(cartan_type, d, tuple(simples), tuple(pairings), rho, positives)
    return replace(datum, braid_orders=_braid_orders(datum))


def _braid_orders(cartan: CartanDatum) -> tuple[tuple[int, ...], ...]:
    mats = [_simple_reflection(cartan, i) for i in range(cartan.rank)]
    identity = _identity(cartan.dim)
    orders = []
    for i in range(cartan.rank):
        row = []
        for j in range(cartan.rank):
            if i == j:
                row.append(1)
                continue
            m = _compose(mats[i], mats[j])
            power, count = m, 1
            while power != identity:
                power = _compose(power, m)
                count += 1
            row.append(count)
        orders.append(tuple(row))
    return tuple(orders)


def weyl_group(cartan: CartanDatum) -> WeylGroup:
    return WeylGroup(cartan)


def coroot_monomial(beta: Sequence[int], scale: int = 1, rules: GaussRules | None = None) -> LaurentPoly:
    """z^{scale * beta}."""
    return LaurentPoly.monomial({f"z{i + 1}": scale * int(b) for i, b in enumerate(beta)}, rules=rules)


def weight_monomial(mu: Sequence[int], rules: GaussRules | None = None) -> LaurentPoly:
    return coroot_monomial(mu, 1, rules)


def weyl_character(cartan: CartanDatum, group: WeylGroup, lam: Sequence[int]) -> LaurentPoly:
    """chi_lambda(z) as an exact Laurent polynomial (Weyl sum; divisibility asserted)."""
    if not cartan.is_dominant(lam):
        raise ValueError(f"{tuple(lam)} is not dominant")
    lam_rho = tuple(int(a) + b for a, b in zip(lam, cartan.rho))
    num = LaurentPoly.zero()
    den = LaurentPoly.zero()
    for w in group:
        sign = -1 if w.length % 2 else 1
        num = num + weight_monomial(w.act(lam_rho), ) * sign
        den = den + weight_monomial(w.act(cartan.rho)) * sign
    return exact_divide(num, den)
