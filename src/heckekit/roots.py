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

from math import gcd
from operator import mul
from typing import Sequence

from .algebra import Frozen, LaurentPoly, RationalFunction, Reflection, exact_divide

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


class CartanDatum(Frozen):
    """One realization of a Cartan type; two data are equal when every field is.

    pairings holds the functionals <alpha_i, .>, one row each; rho is a lattice vector with <alpha_i, rho> = 1;
    braid_orders[i][j] is the order of s_i s_j.
    """

    __slots__ = ("cartan_type", "dim", "simple_coroots", "pairings", "rho", "positive_coroots", "braid_orders")

    def __init__(self, cartan_type: str, dim: int, simple_coroots: tuple[IntVector, ...], pairings: Scaled,
                 rho: IntVector, positive_coroots: tuple[IntVector, ...], braid_orders: tuple[tuple[int, ...], ...]):
        self._freeze(cartan_type, dim, simple_coroots, pairings, rho, positive_coroots, braid_orders)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in CartanDatum.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, CartanDatum) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def rank(self) -> int:
        return len(self.simple_coroots)

    def _pairings_int(self, mu: Sequence[int]) -> IntVector:
        """<alpha_i, mu> for every i; ValueError if mu is not in the lattice."""
        if not self.in_lattice(mu):
            raise ValueError(f"weight {tuple(mu)} is not in the lattice of {self.cartan_type}")
        rows, den = self.pairings
        return tuple([x // den for x in mat_vec(rows, mu)])

    def pairing_int(self, i: int, mu: Sequence[int]) -> int:
        return self._pairings_int(mu)[i]

    def in_lattice(self, mu: Sequence[int]) -> bool:
        """mu has integer coordinates and integer pairings <alpha_i, mu>."""
        rows, den = self.pairings
        return all(x == int(x) for x in mu) and all(x % den == 0 for x in mat_vec(rows, mu))

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


class WeylElement(Frozen):
    """w acting on the ambient lattice by its matrix, kept as integer rows over one denominator.

    Equal matrices and words make equal elements, so the elements of two
    Weyl groups of one Cartan datum are equal; the hash is computed once,
    as elements key many dicts.
    """

    __slots__ = ("scaled", "word", "length", "_hash")

    def __init__(self, scaled: Scaled, word: tuple[int, ...], length: int):
        self._freeze(scaled, word, length, hash((scaled, word)))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.word == other.word and self.scaled == other.scaled

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
        # products and inverses, keyed by reduced words
        self._mul_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], WeylElement] = {}
        self._inverse_cache: dict[tuple[int, ...], WeylElement] = {}
        coordinates = tuple(f"z{i + 1}" for i in range(cartan.dim))
        rows, den = cartan.pairings
        self._reflections = [Reflection(coordinates, row, den, a) for row, a in zip(rows, cartan.simple_coroots)]

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

    def reflection(self, i: int) -> Reflection:
        """s_i on packed monomials: z^mu -> z^{mu - <alpha_i, mu> alpha_i}, the other symbols kept."""
        return self._reflections[i]

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

    # -- actions on weights and functions ------------------------------------

    def act_fn(self, w: WeylElement, f):
        """act_fn(w, z^mu) = z^{w mu}, the other symbols kept; a ring homomorphism on z-monomials.

        The letters of w's reduced word act right to left (:meth:`reflection`),
        so off the lattice a letter whose pairing is not an integer raises
        ValueError.  A rational function maps its numerator and each
        denominator factor, and each keeps its own Gauss rules.
        """
        if isinstance(f, RationalFunction):
            return RationalFunction(self.act_fn(w, f.num), [self.act_fn(w, g) for g in f.den])
        for i in reversed(w.word):
            f = self._reflections[i].apply(f)
        return f

    def at_point(self, w: WeylElement, f):
        """Evaluate a z-function at the torus point w*z: f(wz) = act_fn(w^{-1}, f)."""
        return self.act_fn(self.inverse(w), f)


def _positive_closure(simples: list[IntVector], pairings: Scaled, rho) -> tuple[IntVector, ...]:
    rows, den = pairings
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i, k in enumerate(mat_vec(rows, beta)):
            image = tuple(b - k // den * a for b, a in zip(beta, simples[i]))  # k // den: build_cartan checked a_ij
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


_BRAID_ORDERS = {0: 2, 1: 3, 2: 4, 3: 6}  # a_ij a_ji -> the order of s_i s_j, i != j


def build_cartan(cartan_type: str) -> CartanDatum:
    """Cartan data for a supported type, with positive coroots, rho and the braid orders from the Cartan integers."""
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
    rows, den = pairings
    cartan_ints = [mat_vec(rows, alpha) for alpha in simples]  # den <alpha_j, alpha_i^vee> at [i][j]
    if any(x % den for row in cartan_ints for x in row):
        raise ValueError(f"non-integral Cartan pairing in {cartan_type}")
    orders = tuple(tuple(1 if i == j else _BRAID_ORDERS[cartan_ints[i][j] * cartan_ints[j][i] // den**2]
                         for j in range(len(simples))) for i in range(len(simples)))
    return CartanDatum(cartan_type, d, tuple(simples), pairings, rho, _positive_closure(simples, pairings, rho), orders)


weyl_group = WeylGroup


def coroot_monomial(beta: Sequence[int], scale: int = 1) -> LaurentPoly:
    """z^{scale * beta}; ValueError if an exponent is not an integer."""
    return LaurentPoly.monomial({f"z{i + 1}": scale * b for i, b in enumerate(beta)})


def weight_monomial(mu: Sequence[int]) -> LaurentPoly:
    return coroot_monomial(mu)


def weyl_group_of(cartan: CartanDatum, group: WeylGroup | None = None) -> WeylGroup:
    """group, or W(cartan) when it is None; ValueError if group is the Weyl group of another Cartan datum."""
    if group is not None and group.cartan != cartan:
        raise ValueError(f"the Weyl group of {group.cartan.cartan_type} does not fit Cartan type {cartan.cartan_type}")
    return WeylGroup(cartan) if group is None else group


def weyl_character(cartan: CartanDatum, group: WeylGroup, lam: Sequence[int]) -> LaurentPoly:
    """chi_lambda(z): the alternant of lambda + rho over z^rho prod_{alpha > 0} (1 - z^-alpha), a binomial at a time."""
    group = weyl_group_of(cartan, group)
    if not cartan.is_dominant(lam):
        raise ValueError(f"{tuple(lam)} is not dominant")
    lam_rho = tuple(a + b for a, b in zip(lam, cartan.rho))
    chi = LaurentPoly.zero()
    for w in group:
        shifted = tuple(a - b for a, b in zip(w.act(lam_rho), cartan.rho))  # z^{w(lambda + rho)} z^-rho
        chi = chi + weight_monomial(shifted) * (-1 if w.length % 2 else 1)
    for beta in cartan.positive_coroots:
        chi = exact_divide(chi, LaurentPoly.one() - coroot_monomial(beta, -1))
    return chi
