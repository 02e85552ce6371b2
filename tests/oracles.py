"""Test-only helpers: second routes to results the package computes one way.

None of these is part of the production path; the tests compare them with
it (the rational Weyl sum with the Weyl character, the exactly inverted
R-matrix with the closed form, the coset aggregate with the Demazure sum).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from heckekit.algebra import GaussRules, LaurentPoly, RationalFunction
from heckekit.linalg import mat_inverse
from heckekit.metaplectic import MetaplecticDatum, met_demazure_act, whittaker_value
from heckekit.rmatrix import RMatrixSpec, TensorOperator, r_gl, tau_operator
from heckekit.roots import CartanDatum, WeylElement, WeylGroup, coroot_monomial, weight_monomial
from heckekit.whittaker import DemazureVariant, demazure_act

P = LaurentPoly
RF = RationalFunction


def z_monomial(vec: Iterable[int], coeff=1, rules: GaussRules | None = None) -> LaurentPoly:
    """z^vec in coordinates z1, z2, ..."""
    return LaurentPoly.monomial({f"z{i + 1}": e for i, e in enumerate(vec)}, coeff, rules)


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

    return obj.map_monomials(flip)


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
