"""Test-only helpers: second routes to results the package computes one way.

None of these is part of the production path; the tests compare them with
it (the rational Weyl sum with the Weyl character, the term-by-term Weyl
action with act_fn, the exactly inverted R-matrix with the closed form, the
coset aggregate with the Demazure sum, the rational metaplectic Demazure
formula with the polynomial step, the coset-wise Chinta-Gunnells sum with
cg_scaled, which reads it off that step, the paper's scattering
coefficients tau^1 and tau^2 with the closed-form block), or use them to
state a property (evaluation at a point, substitution of monomials, Bruhat
order, T_w of a block module, the braid constraint of a free-symbol
instance on one rank-2 coset).  Each is written over the package's public
API only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

from heckekit.algebra import GaussRules, LaurentPoly, RationalFunction, gauss_symbol, v
from heckekit.linalg import mat_inverse
from heckekit.metaplectic import MetaplecticDatum, met_demazure_act, whittaker_value
from heckekit.relations import applied
from heckekit.rmatrix import RMatrixSpec, TensorOperator, r_gl, tau_operator
from heckekit.roots import CartanDatum, WeylElement, WeylGroup, coroot_monomial, weight_monomial
from heckekit.schema import BlockOperator, SchemaInstance, build_T, identity_operator
from heckekit.whittaker import DemazureVariant, demazure_act

P = LaurentPoly
RF = RationalFunction


def z_monomial(vec: Iterable[int], coeff=1, rules: GaussRules | None = None) -> LaurentPoly:
    """z^vec in coordinates z1, z2, ..."""
    return LaurentPoly.monomial({f"z{i + 1}": e for i, e in enumerate(vec)}, coeff, rules)


def map_terms(f: LaurentPoly | RF, image: Callable[[dict[str, int]], Mapping[str, int]]) -> LaurentPoly | RF:
    """The sum of c * image(exponents) over the terms c * monomial of f, read from ``terms``.

    A rational function maps its numerator and each denominator factor.
    """
    if isinstance(f, RationalFunction):
        return RF(map_terms(f.num, image), tuple(map_terms(g, image) for g in f.den))
    terms: dict[tuple[tuple[str, int], ...], int | Fraction] = {}
    for mono, coeff in f.terms.items():
        key = tuple(sorted((s, e) for s, e in image(dict(mono)).items() if e))
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(terms, f.rules)


def weyl_act(w: WeylElement, f: LaurentPoly | RF) -> LaurentPoly | RF:
    """z^mu -> z^{w mu} term by term through WeylElement.act, the other symbols kept; equals act_fn(w, f)."""
    names = [f"z{j + 1}" for j in range(len(w.scaled[0]))]

    def image(exps: dict[str, int]) -> dict[str, int]:
        mu = [exps.pop(z, 0) for z in names]
        return {**exps, **dict(zip(names, w.act(mu)))}

    return map_terms(f, image)


def conjugate_gauss(obj):
    """The global flip g_a -> g_{(-a) mod n} (the choice-of-embedding toggle)."""
    if isinstance(obj, RationalFunction):
        return RF(conjugate_gauss(obj.num), tuple(conjugate_gauss(f) for f in obj.den))
    if obj.rules is None:
        return obj
    n = obj.rules.modulus

    def flip(exps: dict[str, int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, e in exps.items():
            if name.startswith("g") and name[1:].isdigit():
                name = f"g{-int(name[1:]) % n}"
            out[name] = out.get(name, 0) + e
        return out

    return map_terms(obj, flip)


def weyl_character_sum_form(cartan: CartanDatum, group: WeylGroup, lam: Sequence[int]) -> RationalFunction:
    """The rational Weyl sum sum_w z^{w lam} / prod (1 - z^{-w alpha}); equals chi_lambda."""
    total = RF.zero()
    for w in group:
        num = weight_monomial(w.act(lam))
        den = tuple(P.one() - coroot_monomial(w.act(beta), -1) for beta in cartan.positive_coroots)
        total = total + RF(num, den)
    return total


def r_affine_linear(spec: RMatrixSpec, x: LaurentPoly) -> TensorOperator:
    """R - x R_21^{-1}, by exact inversion; equals r_affine for the untwisted spec."""
    r = r_gl(spec)
    tau = tau_operator(spec.n)
    r21 = tau.compose(r).compose(tau)
    return r - RF.from_poly(x) * mat_inverse(r21)


def modified_theta(lam: Sequence[int], f):
    """theta_lambda in the modified action: multiply by z^{-lambda}."""
    mono = weight_monomial(tuple(-int(x) for x in lam))
    if isinstance(f, P):
        return mono * f
    return RF.from_poly(mono) * f


def apply_demazure_word(var: DemazureVariant, w: WeylElement, f: LaurentPoly) -> RF:
    """T_w f along the canonical reduced word of w, one polynomial step per letter."""
    return RF.from_poly(demazure_act(var, f)(w.word))


def met_demazure_word(datum: MetaplecticDatum, word: Sequence[int], f: LaurentPoly) -> RF:
    """T_word f, one polynomial step per letter."""
    return RF.from_poly(met_demazure_act(datum, f)(word))


def met_demazure_rational(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """T_i f = D_i^(n)(z) f - z^{n_alpha alpha} c_s^(n)(z) (s_i . f) in rational functions; equals met_demazure.

    The Chinta-Gunnells sum is cg_scaled_by_coset's, not cg_scaled, which reads it off met_demazure.
    """
    alpha_power = RF.from_poly(coroot_monomial(datum.cartan.simple_coroots[i], datum.n_alpha(i)))
    return datum.roots[i].d * RF.from_poly(f) - alpha_power * cg_scaled_by_coset(datum, i, f)


def tau1(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> RF:
    """The paper's tau^1_{mu,mu} = (1 - v) z^{(n_a ceil(m/n_a) - m) alpha} / (1 - v x).

    x = z^{n_a alpha}, m = B(alpha, mu)/Q(alpha); c_s^(n)(z) tau^1 is the
    diagonal entry of scattering_block's column mu.
    """
    alpha, na = datum.cartan.simple_coroots[i], datum.n_alpha(i)
    b, q = datum.bilinear(alpha, mu), datum.q_value(alpha)
    m = b // q
    assert m * q == b, (i, mu)
    num = (P.one() - v()) * coroot_monomial(alpha, na * -(-m // na) - m)
    return RF(num, (P.one() - v() * coroot_monomial(alpha, na),))


def tau2(datum: MetaplecticDatum, i: int, mu: Sequence[int]) -> tuple[int, RF]:
    """(coset index of s_i(mu) + alpha, the paper's tau^2 = g z^{-alpha} (1 - x) / (1 - v x)).

    x = z^{n_a alpha} and g is the normalized Gauss symbol of index
    B(alpha, mu) - Q(alpha); c_s^(n)(z) tau^2 is the entry of scattering_block's
    column mu at that coset.
    """
    alpha, na = datum.cartan.simple_coroots[i], datum.n_alpha(i)
    target = tuple(a + e for a, e in zip(datum.group.simple(i).act(mu), alpha))
    g = gauss_symbol(datum.bilinear(alpha, mu) - datum.q_value(alpha), datum.rules)
    x = coroot_monomial(alpha, na)
    return datum.coset_index(target), RF(g * coroot_monomial(alpha, -1) * (P.one() - x), (P.one() - v() * x,))


def cg_scaled_by_coset(datum: MetaplecticDatum, i: int, f: LaurentPoly) -> RF:
    """c_s^(n)(z) (s_i . f) coset by coset, as Chinta and Gunnells state the action; equals cg_scaled.

    The terms of f, read from ``terms``, are grouped by their coset of
    L/L^(n).  The part on the coset of mu (its first term) contributes
    (z^{-rem alpha} (1 - v) - g z^{(1 - n_a) alpha} (1 - x)) / (1 - x) times
    s_i . part, with x = z^{n_a alpha}, m = B(alpha, mu)/Q(alpha),
    rem = n_a ceil(m/n_a) - m and g the Gauss symbol of index
    B(alpha, mu) - Q(alpha).
    """
    alpha, na = datum.cartan.simple_coroots[i], datum.n_alpha(i)
    q, z, s = datum.q_value(alpha), coroot_monomial(alpha), datum.group.simple(i)
    one_minus_x = P.one() - z ** na
    parts: dict[int, tuple[list[int], dict]] = {}  # coset index -> (its first mu, the terms on it)
    for mono, coeff in f.terms.items():
        exps = dict(mono)
        mu = [exps.get(f"z{j + 1}", 0) for j in range(datum.cartan.dim)]
        parts.setdefault(datum.coset_index(mu), (mu, {}))[1][mono] = coeff

    total = RF.zero()
    for mu, terms in parts.values():
        b = datum.bilinear(alpha, mu)
        m = b // q
        assert m * q == b, (i, mu)
        rem = na * -(-m // na) - m
        num = z ** (-rem) * (P.one() - v()) - gauss_symbol(b - q, datum.rules) * z ** (1 - na) * one_minus_x
        total = total + RF(num, (one_minus_x,)) * RF.from_poly(weyl_act(s, LaurentPoly(terms, f.rules)))
    return total


def whittaker_aggregate(datum: MetaplecticDatum, lam: Sequence[int]) -> LaurentPoly:
    """The sum over cosets of whittaker_value."""
    total = P.zero(datum.rules)
    for component in whittaker_value(datum, lam):
        total = total + component
    return total


def rem_identity_check(n_alpha: int, b_over_q: int) -> bool:
    """n_a * ceil(m / n_a) - m == rem_{n_a}(-m)."""
    lhs = n_alpha * (-((-b_over_q) // n_alpha)) - b_over_q
    return lhs == (-b_over_q) % n_alpha


class PoleError(Exception):
    """Raised when a rational function is evaluated at a zero of its denominator."""


def evaluate(f: LaurentPoly | RationalFunction, point: Mapping[str, Fraction]) -> Fraction:
    """f at point, a value for every symbol of f; PoleError where a denominator vanishes."""
    if isinstance(f, RationalFunction):
        value = evaluate(f.num, point)
        for g in f.den:
            d = evaluate(g, point)
            if d == 0:
                raise PoleError(f"denominator factor {g.render()} vanishes")
            value /= d
        return value
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        value = Fraction(coeff)
        for s, e in mono:
            if s not in point:
                raise ValueError(f"unassigned symbol {s!r}")
            base = Fraction(point[s])
            if base == 0 and e < 0:
                raise PoleError(f"{s} = 0 raised to a negative power")
            value *= base ** e
        total += value
    return total


def substitute(f: LaurentPoly | RF, images: Mapping[str, Mapping[str, int]]) -> LaurentPoly | RF:
    """The ring homomorphism sending each symbol in images to its monomial {symbol: exponent}; others fixed."""

    def image(exps: dict[str, int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for s, e in exps.items():
            for t, k in images.get(s, {s: 1}).items():
                out[t] = out.get(t, 0) + e * k
        return out

    return map_terms(f, image)


@cache
def bruhat_le(group: WeylGroup, u: WeylElement, w: WeylElement) -> bool:
    """u <= w in the Bruhat order, by the descent recursion (subword criterion)."""
    if u.length > w.length:
        return False
    if u.length == 0 or u == w:
        return True
    i = next(j for j in range(group.cartan.rank) if group.is_left_descent(j, w))
    sw, su = group.left_mul_simple(i, w), group.left_mul_simple(i, u)
    return bruhat_le(group, su if su.length < u.length else u, sw)


def chain_identity(inst: SchemaInstance, i: int, j: int, u: WeylElement) -> tuple[RF, RF]:
    """The products of the descent entries A(x, c) along the two maximal chains of the coset W_{ij} u.

    u is the shortest element of its coset.  A chain starts at u with the
    letter i, or with j, alternates m(i, j) letters, and ends at the top of
    the coset; each step x -> s_c x contributes A(s_c x, c).  Both chains
    enumerate the coset's positive coroots, so the forced C-factor pairs
    cancel and the braid constraint of a k = 1 instance on this coset is the
    equality of the two products.
    """
    group = inst.group
    m = group.cartan.braid_orders[i][j]
    products = []
    for first, second in ((i, j), (j, i)):
        x, value = u, RF.one()
        for t in range(m):
            letter = first if t % 2 == 0 else second
            x = group.left_mul_simple(letter, x)
            value = value * inst.A(x, letter)[0, 0]
        products.append(value)
    return products[0], products[1]


def apply_word(inst: SchemaInstance, word: Sequence[int]) -> BlockOperator:
    """T_{word[0]} ... T_{word[-1]}: the word applied to the identity operator, each T_i built once."""
    generators = {i: build_T(inst, i) for i in set(word)}
    act = applied(lambda i, rest: generators[i].compose(rest), identity_operator(inst.group, inst.block_dim))
    return act(word)


def apply_Tw(inst: SchemaInstance, w: WeylElement) -> BlockOperator:
    """T_w as the product of the T_i along the reduced word of w (well-defined once braids hold)."""
    return apply_word(inst, w.word)
