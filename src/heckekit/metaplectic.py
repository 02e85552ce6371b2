"""Metaplectic cover data and the scattering/Demazure apparatus.

A cover is abstracted to (n, B): the degree and a W-invariant symmetric
integer form on the weight lattice.  Derived data: Q(alpha) = B(alpha,
alpha)/2, the rescalings n_alpha = n/gcd(n, Q(alpha)), the sublattice
L^(n) = {mu : B(y, mu) = 0 mod n for all y}, and canonical coset
representatives of L/L^(n) (rho + [0, n)^r for the GL dot-product case,
diagonal-form box coordinates otherwise).  Integer row and column reduction
brings B to a diagonal D = U B V'; the coordinates of mu are V'^-1 mu, and
mu lies in L^(n) exactly when d_i y_i = 0 mod n for y = V'^-1 mu.  All of it
is integer arithmetic on integer rows; U is never formed.

The scattering matrix assembles tau^1/tau^2 into the k x k block Hecke
action; Gauss sums stay formal symbols with the pairing g_a g_{-a} = u^2 and
g_0 = -u^2 (the normalized sums; classical unnormalized sums satisfy
g(a) g(-a) = q and rescale by q^{-1} into these symbols).  The Chinta-Gunnells action and the metaplectic
Demazure operators use the same symbols; the Gauss index is
B - Q, the convention under which the block action and the Demazure
operators agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iproduct
from math import gcd
from operator import add
from typing import Sequence

from .algebra import (
    GaussRules,
    LaurentPoly,
    RationalFunction,
    exact_divide,
    gauss_symbol,
    v,
)
from .linalg import Matrix
from .relations import applied, first_failing, hecke_relations, verdict
from .reports import Report
from .roots import CartanDatum, WeylGroup, _compose, _identity, build_cartan, coroot_monomial, mat_vec, weight_monomial
from .rmatrix import r_tilde, tau_operator, word_index, words
from .schema import BlockOperator, SchemaInstance, build_T, c_function

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


@dataclass
class MetaplecticDatum:
    cartan: CartanDatum
    group: WeylGroup
    n: int
    B: tuple[IntVec, ...]
    rules: GaussRules
    moduli: IntVec                      # per SNF coordinate: order of L/L^(n) in that direction
    to_snf: tuple[IntVec, ...]          # mu -> y coordinates (V' inverse)
    coset_reps: tuple[IntVec, ...]
    lattice_basis: tuple[IntVec, ...]   # basis of L^(n)
    rho_shift: bool                     # GL convention: reps are rho + box
    # the rational scalars of the Demazure steps (d_scaled, _cg_coefficient), built once per datum
    _scalars: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.coset_reps)

    def bilinear(self, x: Sequence[int], y: Sequence[int]) -> int:
        return mat_vec((mat_vec(self.B, x),), y)[0]

    def q_value(self, beta: Sequence[int]) -> int:
        """Q(beta) = B(beta, beta)/2; build_datum has checked that B is even on the coroots."""
        return self.bilinear(beta, beta) // 2

    def n_alpha(self, i: int) -> int:
        return self.n // gcd(self.n, self.q_value(self.cartan.simple_coroots[i]))

    def coset_index(self, mu: Sequence[int]) -> int:
        base = tuple(int(a) - (self.cartan.rho[j] if self.rho_shift else 0) for j, a in enumerate(mu))
        y = mat_vec(self.to_snf, base)
        idx = 0
        for a, m in zip(y, self.moduli):
            idx = idx * m + a % m
        return idx


def build_datum(cartan_or_type, n: int, B: tuple[IntVec, ...] | str | None = None) -> MetaplecticDatum:
    """Cover data for (cartan, n, B); B defaults to the dot product."""
    cartan = build_cartan(cartan_or_type) if isinstance(cartan_or_type, str) else cartan_or_type
    group = WeylGroup(cartan)
    d = cartan.dim
    if B is None or B == "dot":
        B = _identity(d)[0]
    B = tuple(tuple(int(x) for x in row) for row in B)
    if any(len(row) != d for row in B) or len(B) != d:
        raise MetaplecticError("B must be a d x d integer matrix")
    if any(B[r][c] != B[c][r] for r in range(d) for c in range(d)):
        raise MetaplecticError("B must be symmetric")
    for w in group:  # w^T B w = B, in lowest terms on both sides
        rows, den = w.scaled
        if _compose(_compose((tuple(zip(*rows)), den), (B, 1)), w.scaled) != (B, 1):
            raise MetaplecticError(f"B is not W-invariant (fails at w = {w.name()})")
    diagonal, Vp, Vp_inv = _diagonalize(B)
    moduli = tuple(n // gcd(n, s) for s in diagonal)
    rho_shift = cartan.cartan_type.startswith("A") and B == _identity(d)[0]
    keys = iproduct(*(range(m) for m in moduli))
    # GL convention: nu - rho in [0, n)^r; SNF coordinates are standard here
    reps = tuple(tuple(map(add, cartan.rho, key)) if rho_shift else mat_vec(Vp, key) for key in keys)
    basis = tuple(tuple(m * x for x in column) for m, column in zip(moduli, zip(*Vp)))  # L^(n): V' columns times moduli
    datum = MetaplecticDatum(
        cartan=cartan,
        group=group,
        n=n,
        B=B,
        rules=GaussRules.standard(n),
        moduli=moduli,
        to_snf=tuple(tuple(row) for row in Vp_inv),
        coset_reps=reps,
        lattice_basis=basis,
        rho_shift=rho_shift,
    )
    for beta in cartan.positive_coroots:
        if datum.bilinear(beta, beta) % 2:
            raise MetaplecticError(f"B is not even on the coroot lattice ({tuple(beta)})")
    for i, alpha in enumerate(cartan.simple_coroots):
        if datum.q_value(alpha) == 0:
            raise MetaplecticError(f"Q(alpha_{i + 1}) = 0 for alpha_{i + 1} = {alpha}")
        scaled = tuple(datum.n_alpha(i) * a for a in alpha)
        if any(x % n for x in mat_vec(B, scaled)):
            raise MetaplecticError("n_alpha * alpha is not in L^(n)")
    return datum


def c_factor(datum: MetaplecticDatum, i: int) -> RF:
    """c_s^(n)(z) = (1 - v z^{n_alpha alpha})/(1 - z^{n_alpha alpha})."""
    x = coroot_monomial(datum.cartan.simple_coroots[i], datum.n_alpha(i))
    return c_function(x)


def _root_data(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> tuple[IntVec, int, int, int]:
    """(alpha_i, n_alpha, Q(alpha_i), B(alpha_i, mu)); MetaplecticError unless Q(alpha_i) divides B(alpha_i, mu)."""
    alpha = datum.cartan.simple_coroots[i]
    q = datum.q_value(alpha)
    b = datum.bilinear(alpha, mu)
    if b % q:
        raise MetaplecticError(f"Q(alpha) does not divide B(alpha, mu) for mu = {tuple(mu)}")
    return alpha, datum.n_alpha(i), q, b


def tau1(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> RF:
    """tau^1_{mu,mu} = (1 - v) z^{(n_a ceil(B/(n_a Q)) - B/Q) alpha} / (1 - v z^{n_a alpha})."""
    alpha, na, q, b = _root_data(datum, i, mu)
    m = b // q
    exponent = na * (-((-m) // na)) - m  # n_a ceil(m/n_a) - m = rem_{n_a}(-m)
    num = (P.one() - v()) * coroot_monomial(alpha, exponent)
    den = P.one() - v() * coroot_monomial(alpha, na)
    return RF(num, (den,))


def tau2(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> tuple[int, RF]:
    """(target coset index of s(mu) + alpha, tau^2 coefficient).

    The Gauss symbol is the normalized one (pairing u^2, zero -u^2): the
    q^{-1} prefactor of the classical unnormalized sum is absorbed into it.
    """
    alpha, na, q, b = _root_data(datum, i, mu)
    target = tuple(a + e for a, e in zip(datum.group.simple(i).act(mu), alpha))
    g = gauss_symbol(b - q, datum.rules)
    num = g * coroot_monomial(alpha, -1) * (P.one() - coroot_monomial(alpha, na))
    den = P.one() - v() * coroot_monomial(alpha, na)
    return datum.coset_index(target), RF(num, (den,))


def scattering_block(
    datum: MetaplecticDatum,
    i: int,
    normalized: bool = True,
    perturb: str | None = None,
) -> Matrix:
    """The k x k block of the Whittaker scattering for s_i, as z-functions.

    normalized=True uses the z^mu-twisted functional basis;
    normalized=False the plain functionals, the form matched by the
    R-matrix dictionary.  The two are conjugate by diag(z^nu).
    perturb in {"tau1", "tau2"} doubles that coefficient (negative control).
    """
    k = datum.k
    c = c_factor(datum, i)
    entries: dict[tuple[int, int], RF] = {}
    s = datum.group.simple(i)
    for col, mu in enumerate(datum.coset_reps):
        t1 = c * tau1(datum, i, mu)
        target, t2v = tau2(datum, i, mu)
        t2v = c * t2v
        if perturb == "tau1":
            t1 = RF.const(2) * t1
        elif perturb == "tau2":
            t2v = RF.const(2) * t2v
        if not normalized:
            # b_plain[nu][mu] = z^{mu - s(nu)} b_norm[nu][mu]
            t1 = RF.from_poly(weight_monomial(tuple(a - b for a, b in zip(mu, s.act(mu))))) * t1
            nu = datum.coset_reps[target]
            t2v = RF.from_poly(weight_monomial(tuple(a - b for a, b in zip(mu, s.act(nu))))) * t2v
        entries[(col, col)] = t1
        entries[(target, col)] = t1 + t2v if target == col else t2v
    return Matrix((k, k), entries)


def metaplectic_schema_instance(datum: MetaplecticDatum) -> SchemaInstance:
    """The block Hecke action on Whittaker functionals; root_scale = n_alpha.

    tau^1 and tau^2 depend on mu only through residues mod n, so a k x k
    block holds a handful of distinct values.  Equal entries, keyed by
    (num, den), are one object across all the A(w, i) blocks, and each
    distinct entry is mapped to w z once per w.  The matrix kernels memoize
    by object identity (see linalg), so each kernel call of the relation
    checks then computes one product or sum per distinct pair of values.
    """
    shared: dict[tuple, RF] = {}

    def share(x: RF) -> RF:
        return shared.setdefault((x.num, x.den), x)

    a_matrices = {}
    for i in range(datum.cartan.rank):
        block = {key: share(x) for key, x in scattering_block(datum, i).entries.items()}
        distinct = {id(x): x for x in block.values()}
        for w in datum.group:
            image = {key: share(datum.group.at_point(w, x)) for key, x in distinct.items()}
            entries = {key: image[id(x)] for key, x in block.items()}
            a_matrices[(w, i)] = Matrix((datum.k, datum.k), entries)
    name = f"metaplectic {datum.cartan.cartan_type} n={datum.n}"
    root_scale = tuple(datum.n_alpha(i) for i in range(datum.cartan.rank))
    return SchemaInstance(
        datum.cartan, datum.group, datum.k, a_matrices, root_scale, name
    )


# -- Chinta-Gunnells action and metaplectic Demazure operators ----------------------


def _coset_components(datum: MetaplecticDatum, f: LaurentPoly) -> dict[int, tuple[list[int], LaurentPoly]]:
    """f split by coset index; each part comes with the z-exponents of its first term."""
    dim = datum.cartan.dim
    firsts: dict[int, list[int]] = {}

    def coset(exps: dict[str, int]) -> int:
        vec = [exps.get(f"z{j + 1}", 0) for j in range(dim)]
        idx = datum.coset_index(vec)
        firsts.setdefault(idx, vec)
        return idx

    parts = f.split(coset)
    return {idx: (firsts[idx], part) for idx, part in parts.items()}


def _cg_coefficient(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> RF:
    """The coefficient of s_i . (a part of f on the coset of mu) in c_s^(n)(z) (s_i . f).

    With x = z^{n_alpha alpha}, rem = rem_{n_alpha}(-B(alpha, mu)/Q(alpha)) and g
    the Gauss symbol of index B - Q, it is (z^{-rem alpha} (1 - v) - g z^{(1 - n_alpha)
    alpha} (1 - x)) / (1 - x), over the normal form of 1 - x; built once per (i, rem, index).
    """
    alpha, na, q, b = _root_data(datum, i, mu)
    rem = (-(b // q)) % na
    key = ("cg", i, rem, (b - q) % datum.n)
    if key not in datum._scalars:
        z = coroot_monomial(alpha)
        one_minus_x = P.one() - z ** na
        num = z ** (-rem) * (P.one() - v()) - gauss_symbol(b - q, datum.rules) * z ** (1 - na) * one_minus_x
        coeff = datum._scalars[key] = RF(num, (one_minus_x,))
        if coeff.den != d_scaled(datum, i).den:  # met_demazure_poly relies on it
            raise AssertionError(f"the coefficients of T_{i + 1} have different denominators")
    return datum._scalars[key]


def _cg_parts(datum: MetaplecticDatum, i: int, f: LaurentPoly):
    """(coefficient, s_i . part) for each coset part of f (see _cg_coefficient)."""
    s = datum.group.simple(i)
    for mu, part in _coset_components(datum, f).values():
        yield _cg_coefficient(datum, i, mu), datum.group.act_fn(s, part)


def cg_scaled(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """c_s^(n)(z) * (s_i . f) for f supported on a single coset (additive otherwise)."""
    total = RF.zero()
    for coeff, fs in _cg_parts(datum, i, f):
        total = total + RF.from_poly(fs) * coeff
    return total


def cg_action(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """The Chinta-Gunnells action s_i . f (coset-wise, representative independent)."""
    return cg_scaled(datum, i, f) / c_factor(datum, i)


def d_scaled(datum: MetaplecticDatum, i: int) -> RF:
    """D_i^(n)(z): the Demazure scalar with z^alpha replaced by z^{n_alpha alpha}."""
    key = ("d", i)
    if key not in datum._scalars:
        x = coroot_monomial(datum.cartan.simple_coroots[i], datum.n_alpha(i))
        datum._scalars[key] = RF((P.one() - v()) * x, (P.one() - x,))
    return datum._scalars[key]


def met_demazure(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """T_i(f) = D_i^(n)(z) f - z^{n_alpha alpha} c_s^(n)(z) (s_i . f)."""
    alpha_power = RF.from_poly(coroot_monomial(datum.cartan.simple_coroots[i], datum.n_alpha(i)))
    return d_scaled(datum, i) * RF.from_poly(f) - alpha_power * cg_scaled(datum, i, f)


def met_demazure_poly(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> LaurentPoly:
    """met_demazure on a polynomial, computed in polynomials.

    d_scaled and every coefficient of cg_scaled share the one normal
    denominator factor q of 1 - z^{n_alpha alpha}, so T_i f is one numerator
    over q, divided exactly; NotDivisible if the quotient is not a Laurent
    polynomial.  The numerator coefficients are cached in datum._scalars.
    """
    d = d_scaled(datum, i)
    swapped = P.zero()
    for coeff, fs in _cg_parts(datum, i, f):
        swapped = swapped + coeff.num * fs
    alpha_power = coroot_monomial(datum.cartan.simple_coroots[i], datum.n_alpha(i))
    return exact_divide(d.num * f - alpha_power * swapped, d.den[0])


def met_demazure_act(datum: MetaplecticDatum, f: LaurentPoly):
    """act(word) = T_word f in the metaplectic Demazure operators, one polynomial step per letter."""
    return applied(lambda i, g: met_demazure_poly(datum, i, g), f)


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
    inst = metaplectic_schema_instance(datum)
    generators = [build_T(inst, i) for i in range(datum.cartan.rank)]
    base = whittaker_base(datum, tuple(-int(x) for x in lam))
    act = applied(lambda i, vec: generators[i].compose(vec), base)
    identity = datum.group.identity
    total = reduce(add, (act(w.word).block(identity, identity) for w in datum.group))
    return [total[r, 0].as_poly() for r in range(datum.k)]


def check_met_demazure_match(
    datum: MetaplecticDatum, weights: Sequence[Sequence[int]], report: Report | None = None
) -> Report:
    """The coset-aggregated block action of T_i equals the metaplectic Demazure operator."""
    report = report or Report(f"block action vs Demazure ({datum.cartan.cartan_type}, n={datum.n})")
    inst = metaplectic_schema_instance(datum)
    generators = [build_T(inst, i) for i in range(datum.cartan.rank)]
    identity = datum.group.identity

    for mu in weights:
        for i in range(datum.cartan.rank):
            def check(mu=tuple(int(x) for x in mu), i=i):
                image = generators[i].compose(whittaker_base(datum, mu)).block(identity, identity)
                total = sum(image.entries.values(), RF.zero())
                return verdict(total, met_demazure(datum, i, weight_monomial(mu)))

            report.run(f"T_{i + 1} aggregate on z^{tuple(mu)}", check)
    return report


def check_met_demazure_relations(
    datum: MetaplecticDatum, weights: Sequence[Sequence[int]], report: Report | None = None
) -> Report:
    """Quadratic and braid relations for the metaplectic Demazure operators on monomials."""
    report = report or Report(f"metaplectic Demazure relations ({datum.cartan.cartan_type}, n={datum.n})")
    for mu in weights:
        mu = tuple(int(x) for x in mu)
        act = met_demazure_act(datum, weight_monomial(mu))
        hecke_relations(report, act, v(), datum.cartan.braid_orders, f" on z^{mu}")
    return report


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
            verdict(cg_action(datum, i, weight_monomial(tuple(int(a) + int(b) for a, b in zip(mu, xi)))),
                    base * RF.from_poly(weight_monomial(s.act(xi))))
            for xi in datum.lattice_basis
        )

    report.run(f"representative independence i={i + 1} mu={tuple(mu)}", check)
    return report


# -- the R-matrix dictionary ----------------------------------------------------------


def rmatrix_dictionary_check(r: int, n: int, report: Report | None = None) -> Report:
    """scattering_block (plain normalization) equals the Gauss R-matrix operator.

    Index bijection: the coset representative rho + sum c_j e_j corresponds to
    the tensor word (c_1, ..., c_r) with colors in [0, n).
    """
    report = report or Report(f"R-matrix dictionary GL_{r}, n={n}")
    datum = build_datum(f"A{r - 1}", n)
    tau = tau_operator(n)

    position = {word_index(c, n): datum.coset_index([a + b for a, b in zip(datum.cartan.rho, c)])
                for c in words(n, r)}
    for i in range(datum.cartan.rank):
        def check(i=i):
            block = scattering_block(datum, i, normalized=False)
            x = coroot_monomial(datum.cartan.simple_coroots[i], n)
            local = tau.compose(r_tilde(n, x))
            prefactor = c_function(x)
            rhs = prefactor * local.embed((i, i + 1), r)
            permuted = {(position[a], position[b]): y for (a, b), y in rhs.entries.items()}
            return verdict(block, Matrix(block.shape, permuted))

        report.run(f"dictionary at i={i + 1}", check)
    return report
