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

Every rational linear map on the lattice is kept as integer rows over one
denominator, in lowest terms (``Scaled``): the Cartan pairings <alpha_i, .>
(for G2 the rows (0, 3, -3), (1, -2, 1) over 3) and the matrix of each Weyl
element.  All lattice arithmetic is integer arithmetic through
:func:`mat_vec`, which rejects a vector of the wrong length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd
from operator import mul
from typing import Sequence

from .algebra import LaurentPoly, RationalFunction, exact_divide

IntVector = tuple[int, ...]
Scaled = tuple[tuple[IntVector, ...], int]  # a rational matrix as (integer rows, denominator), in lowest terms


def mat_vec(rows: Sequence[Sequence[int]], x: Sequence[int]) -> IntVector:
    """The integer product rows * x; ValueError unless x has one entry per column."""
    if len(x) != len(rows[0]):
        raise ValueError(f"vector {tuple(x)} has {len(x)} coordinates, the lattice needs {len(rows[0])}")
    return tuple([sum(map(mul, row, x)) for row in rows])


def _lowest(rows: Sequence[Sequence[int]], den: int) -> Scaled:
    """rows / den in lowest terms, for a positive den."""
    g = gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


@dataclass(frozen=True)
class CartanDatum:
    cartan_type: str
    dim: int
    simple_coroots: tuple[IntVector, ...]
    pairings: Scaled                      # the functionals <alpha_i, .>, one row each
    rho: IntVector                        # lattice vector with <alpha_i, rho> = 1
    positive_coroots: tuple[IntVector, ...] = field(default=())
    braid_orders: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def rank(self) -> int:
        return len(self.simple_coroots)

    def _pairings_int(self, mu: Sequence[int]) -> IntVector:
        """<alpha_i, mu> for every i; ValueError if mu is not in the lattice."""
        rows, den = self.pairings
        values = mat_vec(rows, mu)
        if any(x % den for x in values):
            raise ValueError(f"weight {tuple(mu)} is not in the lattice of {self.cartan_type}")
        return tuple([x // den for x in values])

    def pairing_int(self, i: int, mu: Sequence[int]) -> int:
        return self._pairings_int(mu)[i]

    def in_lattice(self, mu: Sequence[int]) -> bool:
        rows, den = self.pairings
        return all(x % den == 0 for x in mat_vec(rows, mu))

    def is_dominant(self, mu: Sequence[int]) -> bool:
        return all(x >= 0 for x in self._pairings_int(mu))

    def fundamental_weights(self) -> tuple[IntVector, ...]:
        """One lattice representative per fundamental weight (pairing delta_ij)."""
        from itertools import product

        rows, den = self.pairings
        out = []
        for i in range(self.rank):
            target = tuple(den * (j == i) for j in range(self.rank))
            cand = next((c for c in product(range(-3, 4), repeat=self.dim) if mat_vec(rows, c) == target), None)
            if cand is None:
                raise ValueError("no fundamental weight representative found")
            out.append(cand)
        return tuple(out)


def _identity(d: int) -> Scaled:
    return tuple(tuple(int(r == c) for c in range(d)) for r in range(d)), 1


def _simple_reflection(cartan: CartanDatum, i: int) -> Scaled:
    """s_i in ambient coordinates: x -> x - <alpha_i, x> alpha_i^vee."""
    d = cartan.dim
    alpha, (rows, den) = cartan.simple_coroots[i], cartan.pairings
    return _lowest([[den * (r == c) - alpha[r] * rows[i][c] for c in range(d)] for r in range(d)], den)


def _compose(a: Scaled, b: Scaled) -> Scaled:
    """The matrix product a b, in lowest terms."""
    (ra, da), (rb, db) = a, b
    cols = list(zip(*rb))
    return _lowest([[sum(map(mul, row, col)) for col in cols] for row in ra], da * db)


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

    def __lt__(self, other: "WeylElement") -> bool:
        """By canonical reduced word, so keys holding Weyl elements sort."""
        return self.word < other.word

    def act(self, mu: Sequence[int]) -> IntVector:
        """w mu for a lattice vector mu; ValueError if mu has the wrong length or the image is not integral."""
        rows, den = self.scaled
        image = mat_vec(rows, mu)
        if any(x % den for x in image):
            raise ValueError(f"non-integral image {image}/{den} of {tuple(mu)}")
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
        # products, inverses and monomial images, keyed by reduced words
        self._mul_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], WeylElement] = {}
        self._inverse_cache: dict[tuple[int, ...], WeylElement] = {}
        self._act_memos: dict[tuple[int, ...], dict] = {}
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

        The image of each monomial under each element is computed once per
        group; a rational function maps its numerator and each denominator
        factor through the same memo, and each keeps its own Gauss rules.
        """
        if isinstance(f, RationalFunction):
            return RationalFunction(self.act_fn(w, f.num), [self.act_fn(w, g) for g in f.den])
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


def _positive_closure(cartan_type: str, simples: list[IntVector], pairings: Scaled, rho) -> tuple[IntVector, ...]:
    rows, den = pairings
    seen = {tuple(a) for a in simples}
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i, k in enumerate(mat_vec(rows, beta)):
            if k % den:
                raise ValueError(f"non-integral Cartan pairing in {cartan_type}")
            image = tuple(b - k // den * a for b, a in zip(beta, simples[i]))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    height = {b: mat_vec((rho,), b)[0] for b in seen}
    return tuple(sorted((b for b in seen if height[b] > 0), key=lambda b: (height[b], b)))


_REALIZATIONS: dict[str, dict] = {
    "A1": dict(dim=2),
    "A2": dict(dim=3),
    "A3": dict(dim=4),
    "A4": dict(dim=5),
    "C2": dict(
        dim=2,
        simples=[(1, -1), (0, 2)],
        pairings=(((1, -1), (0, 1)), 1),
        rho=(2, 1),
    ),
    "B2": dict(
        dim=2,
        simples=[(0, 2), (1, -1)],
        pairings=(((0, 1), (1, -1)), 1),
        rho=(2, 1),
    ),
    "G2": dict(
        dim=3,
        simples=[(0, 1, -1), (1, -2, 1)],
        pairings=(((0, 3, -3), (1, -2, 1)), 3),
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
        pairings = (tuple(simples), 1)
        rho = tuple(range(r, -1, -1))
    else:
        d = spec["dim"]
        simples = [tuple(s) for s in spec["simples"]]
        pairings = spec["pairings"]
        rho = tuple(spec["rho"])
    positives = _positive_closure(cartan_type, simples, pairings, rho)
    datum = CartanDatum(cartan_type, d, tuple(simples), pairings, rho, positives)
    return replace(datum, braid_orders=_braid_orders(datum))


def _braid_orders(cartan: CartanDatum) -> tuple[tuple[int, ...], ...]:
    mats = [_simple_reflection(cartan, i) for i in range(cartan.rank)]
    identity = _identity(cartan.dim)
    orders = []
    for i in range(cartan.rank):
        row = []
        for j in range(cartan.rank):
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


def coroot_monomial(beta: Sequence[int], scale: int = 1) -> LaurentPoly:
    """z^{scale * beta}."""
    return LaurentPoly.monomial({f"z{i + 1}": scale * int(b) for i, b in enumerate(beta)})


def weight_monomial(mu: Sequence[int]) -> LaurentPoly:
    return coroot_monomial(mu)


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
