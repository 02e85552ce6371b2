"""Metaplectic cover data and the scattering/Demazure apparatus.

A cover is abstracted to (n, B): the degree and a W-invariant symmetric
integer form on the weight lattice.  build_datum derives, once per cover,
the sublattice L^(n) = {mu : B(y, mu) = 0 mod n for all y}, canonical coset
representatives of L/L^(n), origin + V' box, and one RootData per simple
root.  Integer row and column reduction brings B to a diagonal D = U B V';
the coordinates of mu are V'^-1 (mu - origin), and mu lies in L^(n) exactly
when d_i y_i = 0 mod n for y = V'^-1 mu.  The origin is rho for the GL
dot-product case, where V' is the identity and the representatives are
rho + [0, n)^r, and 0 otherwise.  All of it is integer arithmetic on integer
rows; U is never formed.

A RootData holds Q(alpha) = B(alpha, alpha)/2, n_alpha = n/gcd(n, Q(alpha))
and, per residue rem = rem_{n_alpha}(-B(alpha, mu)/Q(alpha)), the values the
scattering block, the Chinta-Gunnells action and the metaplectic Demazure
operators read, which depend on a weight mu only through rem.  The
scattering entries are the paper's coefficients times c_s, each written as
the value it reduces to, so in lowest terms.  Gauss sums stay formal symbols
with the pairing g_a g_{-a} = u^2 and g_0 = -u^2 (the normalized sums;
classical unnormalized sums satisfy g(a) g(-a) = q and rescale by q^{-1}
into these symbols).  The Gauss index is B - Q, the convention under which
the block action and the Demazure operators agree exactly.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd
from typing import Sequence

from .algebra import (
    Frozen,
    GaussRules,
    LaurentPoly,
    RationalFunction,
    divided_difference,
    gauss_symbol,
    v,
)
from .linalg import Matrix
from .relations import applied, first_failing, monomial_relations, verdict, weyl_sum
from .reports import Report
from .roots import CartanDatum, WeylGroup, _identity, build_cartan, coroot_monomial, mat_vec, weight_monomial
from .rmatrix import tensor_block
from .schema import BlockOperator, SchemaInstance, block_action, c_function, d_function, generator, transported_instance

P = LaurentPoly
RF = RationalFunction

IntVec = tuple[int, ...]


def _diagonalize(B: tuple[IntVec, ...]) -> tuple[IntVec, list[list[int]], list[list[int]]]:
    """(diagonal D, Vp, Vp^-1) with U B Vp = D for some unimodular U (integer row/column reduction).

    Every column operation on B is applied to Vp, and its inverse, as a row
    operation, to Vp^-1.  U itself is never needed: B Vp y = 0 mod n exactly
    when U B Vp y = D y = 0 mod n, so L^(n) and its coset coordinates come
    from D, Vp and Vp^-1 alone.
    """
    d = len(B)
    A = [list(row) for row in B]
    Vp = [list(row) for row in _identity(d)[0]]
    Vinv = [list(row) for row in _identity(d)[0]]

    def addmul_row(i, j, m):
        A[i] = [a + m * b for a, b in zip(A[i], A[j])]

    def swap_cols(i, j):
        for row in A + Vp:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def addmul_col(i, j, m):
        for row in A + Vp:
            row[i] += m * row[j]
        Vinv[j] = [a - m * b for a, b in zip(Vinv[j], Vinv[i])]

    for t in range(d):
        while True:
            entries = [(abs(A[r][c]), r, c) for r in range(t, d) for c in range(t, d) if A[r][c] != 0]
            if not entries:
                break
            _, r, c = min(entries)
            if r != t:
                A[t], A[r] = A[r], A[t]
            if c != t:
                swap_cols(t, c)
            pivot = A[t][t]
            for r in range(t + 1, d):
                if A[r][t] != 0:
                    addmul_row(r, t, -(A[r][t] // pivot))
            for c in range(t + 1, d):
                if A[t][c] != 0:
                    addmul_col(c, t, -(A[t][c] // pivot))
            if all(A[r][t] == 0 for r in range(t + 1, d)) and all(A[t][c] == 0 for c in range(t + 1, d)):
                break
    return tuple(A[t][t] for t in range(d)), Vp, Vinv


class MetaplecticError(ValueError):
    pass


class RootData(Frozen):
    """What the Demazure steps and the scattering block read of one simple root, built once by build_datum.

    The tables hold one value per rem = rem_{n_alpha}(-b/Q(alpha)), b = B(alpha, mu) (see _root_residues),
    with Gauss index a = -Q(alpha) (rem + 1) = b - Q(alpha) mod n, as Q(alpha) n_alpha = lcm(n, Q(alpha)).

    alpha     the simple coroot alpha_i
    q         Q(alpha_i)
    row       B alpha_i: B(alpha_i, mu) is row . mu
    x         z^{n_alpha alpha}
    d         D_i^(n)(z) = (1 - v) x/(1 - x)
    tau1      c_s tau^1 = (1 - v) z^{rem alpha}/(1 - x)
    tau2      c_s tau^2 = g_a z^{-alpha}
    twists    -x (z^{-rem alpha} (1 - v) - g_a z^{(1 - n_alpha) alpha} (1 - x)): the numerators, over d's
              denominator, of met_demazure's twisted terms -x c_s^(n) (s_i . z^mu)
    """

    __slots__ = ("alpha", "q", "n_alpha", "row", "x", "d", "tau1", "tau2", "twists")

    def __init__(self, alpha: IntVec, q: int, n_alpha: int, row: IntVec, x: LaurentPoly, d: RationalFunction,
                 tau1: tuple[RationalFunction, ...], tau2: tuple[RationalFunction, ...],
                 twists: tuple[LaurentPoly, ...]):
        self._freeze(alpha, q, n_alpha, row, x, d, tau1, tau2, twists)


class MetaplecticDatum(Frozen):
    """The cover data build_datum derives once per (cartan, n, B).

    moduli         per SNF coordinate: order of L/L^(n) in that direction
    to_snf         mu - origin -> y coordinates (V' inverse)
    coset_reps     origin + V' box
    lattice_basis  basis of L^(n)
    origin         rho for GL with the dot form, 0 otherwise
    roots          one RootData per simple root, derived from cartan, n and B
    """

    __slots__ = ("cartan", "group", "n", "B", "rules", "moduli", "to_snf", "coset_reps", "lattice_basis", "origin",
                 "roots")

    def __init__(self, cartan: CartanDatum, group: WeylGroup, n: int, B: tuple[IntVec, ...], rules: GaussRules,
                 moduli: IntVec, to_snf: tuple[IntVec, ...], coset_reps: tuple[IntVec, ...],
                 lattice_basis: tuple[IntVec, ...], origin: IntVec, roots: tuple[RootData, ...]):
        self._freeze(cartan, group, n, B, rules, moduli, to_snf, coset_reps, lattice_basis, origin, roots)

    @property
    def k(self) -> int:
        return len(self.coset_reps)

    def bilinear(self, x: Sequence[int], y: Sequence[int]) -> int:
        return mat_vec((mat_vec(self.B, x),), y)[0]

    def q_value(self, beta: Sequence[int]) -> int:
        """Q(beta) = B(beta, beta)/2; build_datum has checked that B is even on the coroots."""
        return self.bilinear(beta, beta) // 2

    def n_alpha(self, i: int) -> int:
        return self.roots[i].n_alpha

    def coset_index(self, mu: Sequence[int]) -> int:
        """The index of the coset of mu in coset_reps; ValueError unless mu has integer coordinates."""
        if any(a != int(a) for a in mu):
            raise ValueError(f"weight {tuple(mu)} is not a lattice vector")
        y = mat_vec(self.to_snf, tuple(a - o for a, o in zip(mu, self.origin, strict=True)))
        idx = 0
        for a, m in zip(y, self.moduli):
            idx = idx * m + a % m
        return idx


def _integer(x) -> int | None:
    """x as an int if it is an integer in value, else None (also when int() cannot read x)."""
    try:
        return int(x) if x == int(x) else None
    except (TypeError, ValueError, OverflowError):
        return None


def build_datum(cartan_or_type, n: int, B: tuple[IntVec, ...] | str | None = None) -> MetaplecticDatum:
    """Cover data for (cartan, n, B); B defaults to the dot product and is checked once per simple reflection."""
    degree = _integer(n)
    if degree is None or degree < 1:
        raise MetaplecticError(f"n = {n!r} is not a positive integer")
    n = degree
    cartan = build_cartan(cartan_or_type) if isinstance(cartan_or_type, str) else cartan_or_type
    d = cartan.dim
    if B is None or B == "dot":
        B = _identity(d)[0]
    elif isinstance(B, str):
        raise MetaplecticError(f"unknown form {B!r}: use 'dot' or a d x d integer matrix")
    for r, row in enumerate(B):
        for c, x in enumerate(row):
            if _integer(x) is None:
                raise MetaplecticError(f"B entry (row {r + 1}, column {c + 1}) = {x!r} is not an integer")
    B = tuple(tuple(int(x) for x in row) for row in B)
    if any(len(row) != d for row in B) or len(B) != d:
        raise MetaplecticError("B must be a d x d integer matrix")
    if any(B[r][c] != B[c][r] for r in range(d) for c in range(d)):
        raise MetaplecticError("B must be symmetric")
    diagonal, Vp, Vp_inv = _diagonalize(B)
    moduli = tuple(n // gcd(n, s) for s in diagonal)
    origin = cartan.rho if cartan.cartan_type.startswith("A") and B == _identity(d)[0] else (0,) * d
    keys = iproduct(*(range(m) for m in moduli))
    reps = tuple(tuple(o + x for o, x in zip(origin, mat_vec(Vp, key))) for key in keys)
    basis = tuple(tuple(m * x for x in column) for m, column in zip(moduli, zip(*Vp)))  # L^(n): V' columns times moduli
    rules = GaussRules.standard(n)
    roots = []
    rows, den = cartan.pairings
    for i, alpha in enumerate(cartan.simple_coroots):
        row = mat_vec(B, alpha)
        norm = mat_vec((row,), alpha)[0]
        # s_i preserves B exactly when 2 B(alpha_i, mu) = B(alpha_i, alpha_i) <alpha_i, mu> for every mu
        if any(2 * b * den != norm * a for b, a in zip(row, rows[i])):
            raise MetaplecticError(f"B is not W-invariant (fails at s_{i + 1})")
        if norm % 2:  # with W-invariance, B is then even on every coroot
            raise MetaplecticError(f"B is not even on the coroot lattice ({alpha})")
        q = norm // 2
        if q == 0:
            raise MetaplecticError(f"Q(alpha_{i + 1}) = 0 for alpha_{i + 1} = {alpha}")
        na = n // gcd(n, q)
        if any(na * x % n for x in row):
            raise MetaplecticError("n_alpha * alpha is not in L^(n)")
        x = coroot_monomial(alpha, na)
        scalar, one_minus_x = d_function(x), P.one() - x
        gauss = [gauss_symbol(-q * (rem + 1), rules) for rem in range(na)]
        cg = [RF(coroot_monomial(alpha, -rem) * (P.one() - v()) - g * coroot_monomial(alpha, 1 - na) * one_minus_x,
                 (one_minus_x,)) for rem, g in enumerate(gauss)]
        if any(c.den != scalar.den for c in cg):  # met_demazure relies on it
            raise AssertionError(f"the coefficients of T_{i + 1} have different denominators")
        tau1 = tuple(RF((P.one() - v()) * coroot_monomial(alpha, rem), (one_minus_x,)) for rem in range(na))
        tau2 = tuple(RF.from_poly(g * coroot_monomial(alpha, -1)) for g in gauss)
        roots.append(RootData(alpha, q, na, row, x, scalar, tau1, tau2, tuple(-x * c.num for c in cg)))
    off = next((mu for mu in reps if not cartan.in_lattice(mu)), None)
    if off is not None:
        raise MetaplecticError(f"coset representative {off} is off the lattice of {cartan.cartan_type}")
    return MetaplecticDatum(
        cartan=cartan,
        group=WeylGroup(cartan),
        n=n,
        B=B,
        rules=rules,
        moduli=moduli,
        to_snf=tuple(tuple(row) for row in Vp_inv),
        coset_reps=reps,
        lattice_basis=basis,
        origin=origin,
        roots=tuple(roots),
    )


def _root_residues(datum: MetaplecticDatum, i: int, b: int) -> int:
    """rem = rem_{n_alpha}(-b/Q(alpha_i)) for b = B(alpha_i, mu), the index into the tables of datum.roots[i].

    MetaplecticError unless Q(alpha_i) divides b, as W-invariance of B makes it for every lattice weight mu.
    """
    root = datum.roots[i]
    if b % root.q:
        raise MetaplecticError(f"Q(alpha_{i + 1}) = {root.q} does not divide B(alpha_{i + 1}, mu) = {b}")
    return (-(b // root.q)) % root.n_alpha


def scattering_block(
    datum: MetaplecticDatum,
    i: int,
    normalized: bool = True,
    perturb: str | None = None,
) -> Matrix:
    """The k x k block of the Whittaker scattering for s_i, as z-functions, entries in lowest terms.

    Column mu holds c_s tau^1 on the diagonal and c_s tau^2 at the coset of
    s_i(mu) + alpha: the paper's coefficients times c_s^(n)(z), as the values
    of datum.roots[i] at the rem of B(alpha_i, mu) (the (1 - v x) of c_s
    cancels both denominators).  normalized=True uses the z^mu-twisted
    functional basis; normalized=False the plain functionals, the form
    matched by the R-matrix dictionary.  The two are conjugate by diag(z^nu).
    perturb "tau1" or "tau2" doubles that entry, c_s tau^1 or c_s tau^2
    (negative control); any other but None raises ValueError.
    """
    if perturb not in (None, "tau1", "tau2"):
        raise ValueError(f"perturb must be None, 'tau1' or 'tau2', not {perturb!r}")
    root = datum.roots[i]
    entries: dict[tuple[int, int], RF] = {}
    s = datum.group.simple(i)
    for col, mu in enumerate(datum.coset_reps):
        rem = _root_residues(datum, i, mat_vec((root.row,), mu)[0])
        t1, t2v = root.tau1[rem], root.tau2[rem]
        target = datum.coset_index(tuple(x + e for x, e in zip(s.act(mu), root.alpha)))
        if perturb == "tau1":
            t1 = 2 * t1
        elif perturb == "tau2":
            t2v = 2 * t2v
        if not normalized:
            # b_plain[nu][mu] = z^{mu - s(nu)} b_norm[nu][mu]
            t1 = weight_monomial(tuple(x - y for x, y in zip(mu, s.act(mu)))) * t1
            nu = datum.coset_reps[target]
            t2v = weight_monomial(tuple(x - y for x, y in zip(mu, s.act(nu)))) * t2v
        entries[(col, col)] = t1
        entries[(target, col)] = t1 + t2v if target == col else t2v
    return Matrix((datum.k, datum.k), entries)


def metaplectic_schema_instance(datum: MetaplecticDatum) -> SchemaInstance:
    """The block Hecke action on Whittaker functionals: scattering_block carried to wz; root_scale = n_alpha.

    The entries depend on mu only through residues mod n, so a k x k
    block holds a handful of distinct values, and transported_instance maps
    each of them once per w.
    """
    blocks = [scattering_block(datum, i) for i in range(datum.cartan.rank)]
    root_scale = tuple(root.n_alpha for root in datum.roots)
    return transported_instance(datum.group, blocks, root_scale, f"metaplectic {datum.cartan.cartan_type} n={datum.n}")


# -- Chinta-Gunnells action and metaplectic Demazure operators ----------------------


def cg_scaled(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """c_s^(n)(z) (s_i . f), the Chinta-Gunnells action scaled by c_s^(n), read off the Demazure step.

    met_demazure forms T_i f = D_i^(n)(z) f - z^{n_alpha alpha} c_s^(n)(z) (s_i . f)
    in one polynomial pass, so c_s^(n)(z) (s_i . f) = (D_i^(n)(z) f - T_i f) /
    z^{n_alpha alpha}: one polynomial over the denominator factor of D_i^(n)(z).
    """
    root = datum.roots[i]
    return RF((root.d.num * f - root.d.den[0] * met_demazure(datum, i, f)) * root.x.monomial_inverse(), root.d.den)


def cg_action(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """The Chinta-Gunnells action s_i . f (representative independent)."""
    return cg_scaled(datum, i, f) / c_function(datum.roots[i].x)


def met_demazure(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i(f) = D_i^(n)(z) f - z^{n_alpha alpha} c_s^(n)(z) (s_i . f), computed in polynomials.

    D_i^(n)(z) and the coefficients of the Chinta-Gunnells action share the
    one normal denominator factor q of 1 - z^{n_alpha alpha}, so T_i f is one
    numerator over q: one :func:`divided_difference` with the diagonal
    D_i^(n)(z) q and the twists datum.roots[i].twists, divided exactly;
    NotDivisible if the quotient is not a Laurent polynomial.  A term z^mu
    takes the twist of rem = rem_{n_alpha}(-k), k = <alpha_i, mu>, the rule
    of _root_residues: by W-invariance B(alpha_i, mu) = Q(alpha_i) k, as
    build_datum checks.
    """
    root = datum.roots[i]
    return divided_difference(f, root.d.num, root.twists, datum.group.reflection(i), root.d.den[0])


def met_demazure_act(datum: MetaplecticDatum, f: LaurentPoly):
    """act(word) = T_word f in the metaplectic Demazure operators, one polynomial step per letter."""
    return applied(lambda i, g: met_demazure(datum, i, g), f)


# -- Whittaker values from the block action ------------------------------------------


def whittaker_base(datum: MetaplecticDatum, mu: Sequence[int]) -> BlockOperator:
    """Base vector for the monomial z^mu: (wz)^mu at the coset of mu, per block.

    A block vector: block shape (k, 1), one column (w, e) per w in W.  For
    covers beyond GL this support-coset base is taken as the definition of
    the functional normalization; the GL case matches the standard one.
    """
    idx = datum.coset_index(mu)
    shape, e = (datum.k, 1), datum.group.identity
    return BlockOperator(shape, {
        (w, e): Matrix(shape, {(idx, 0): RF.from_poly(weight_monomial(datum.group.inverse(w).act(mu)))})
        for w in datum.group
    })


def whittaker_value(datum: MetaplecticDatum, lam: Sequence[int]) -> list[LaurentPoly]:
    """Per-coset values sum_w [T_w base(-lambda)] at the identity block.

    Each component is a genuine Laurent polynomial (asserted by exact division).
    """
    if not datum.cartan.is_dominant(lam):
        raise MetaplecticError(f"{tuple(lam)} is not dominant")
    act = block_action(metaplectic_schema_instance(datum), whittaker_base(datum, tuple(-x for x in lam)))
    e = datum.group.identity
    total = weyl_sum(lambda word: act(word).block(e, e), datum.group)
    return [total[r, 0].as_poly() for r in range(datum.k)]


def check_met_demazure_match(
    datum: MetaplecticDatum, weights: Sequence[Sequence[int]], report: Report | None = None
) -> Report:
    """The coset-aggregated block action of T_i equals the metaplectic Demazure operator."""
    report = report or Report(f"block action vs Demazure ({datum.cartan.cartan_type}, n={datum.n})")
    inst = metaplectic_schema_instance(datum)
    identity = datum.group.identity

    for mu in weights:
        for i in range(datum.cartan.rank):
            def check(mu=tuple(mu), i=i):
                image = generator(inst, i).compose(whittaker_base(datum, mu)).block(identity, identity)
                total = sum(image.entries.values(), RF.zero())
                return verdict(total, met_demazure(datum, i, weight_monomial(mu)))

            report.run(f"T_{i + 1} aggregate on z^{tuple(mu)}", check)
    return report


def check_met_demazure_relations(
    datum: MetaplecticDatum, weights: Sequence[Sequence[int]], report: Report | None = None
) -> Report:
    """Quadratic and braid relations for the metaplectic Demazure operators on monomials."""
    report = report or Report(f"metaplectic Demazure relations ({datum.cartan.cartan_type}, n={datum.n})")
    return monomial_relations(report, lambda f: met_demazure_act(datum, f), weights, datum.cartan.braid_orders)


def check_representative_independence(
    datum: MetaplecticDatum, i: int, mu: Sequence[int], report: Report | None = None
) -> Report:
    """cg_action(z^mu) and cg_action(z^{mu + xi}) agree up to the z^{xi'} shift, xi in L^(n)."""
    report = report or Report("representative independence")

    def check():
        f = weight_monomial(tuple(mu))
        base = cg_action(datum, i, f)
        s = datum.group.simple(i)
        return first_failing(
            verdict(cg_action(datum, i, weight_monomial(tuple(a + b for a, b in zip(mu, xi)))),
                    base * weight_monomial(s.act(xi)))
            for xi in datum.lattice_basis
        )

    report.run(f"representative independence i={i + 1} mu={tuple(mu)}", check)
    return report


# -- the R-matrix dictionary ----------------------------------------------------------


def rmatrix_dictionary_check(r: int, n: int, report: Report | None = None) -> Report:
    """scattering_block (plain normalization) equals the Gauss tensor block at power n.

    No re-indexing: the coset index of the representative rho + (c_1, ..., c_r)
    is the index of the tensor word (c_1, ..., c_r), colors in [0, n).
    """
    report = report or Report(f"R-matrix dictionary GL_{r}, n={n}")
    datum = build_datum(f"A{r - 1}", n)
    tensor_blocks = tensor_block(n, r, "gauss", n)
    for i in range(datum.cartan.rank):
        def check(i=i):
            return verdict(scattering_block(datum, i, normalized=False), tensor_blocks[i])

        report.run(f"dictionary at i={i + 1}", check)
    return report
