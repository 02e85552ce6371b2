"""Demazure-Whittaker and Demazure-Lusztig operators, and the spherical idempotent.

Two one-dimensional schema instances (Whittaker and spherical functionals)
and the corresponding divided-difference actions on Laurent polynomials.
Each variant exists in two coordinate conventions related by z -> z^{-1}:
the plain one, where T_i z^rho = -z^rho, and the modified one, where
theta_lambda multiplies by z^{-lambda} and the spherical idempotent
evaluates to prod (1 - v z^{-alpha}) chi_lambda(z).
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Frozen, LaurentPoly, RationalFunction, divided_difference, v
from .linalg import Matrix
from .relations import applied, monomial_relations, weyl_sum
from .reports import Report
from .roots import CartanDatum, WeylElement, WeylGroup, coroot_monomial, weight_monomial, weyl_character, weyl_group_of
from .schema import SchemaInstance, c_function, d_function, spherical_instance, transported_instance

P = LaurentPoly
RF = RationalFunction


# Demazure kind -> A(X), the identity block at i of its k = 1 instance, X = z^{alpha_i}
_K1_BLOCKS = {
    "whittaker": lambda x: RF(P.one() - v() * x.monomial_inverse(), (P.one() - x,)),
    "lusztig": c_function,  # the spherical block
}


def whittaker_schema_instance(cartan: CartanDatum, group: WeylGroup | None = None) -> SchemaInstance:
    """k = 1 instance with A(w, i) = (1 - v (wz)^{-alpha_i})/(1 - (wz)^{alpha_i})."""
    block = _K1_BLOCKS["whittaker"]
    blocks = [Matrix((1, 1), {(0, 0): block(coroot_monomial(alpha))}) for alpha in cartan.simple_coroots]
    return transported_instance(weyl_group_of(cartan, group), blocks, (1,) * cartan.rank, "whittaker")


def spherical_schema_instance(cartan: CartanDatum, group: WeylGroup | None = None) -> SchemaInstance:
    """k = 1 instance with A(w, i) = (1 - v (wz)^{alpha_i})/(1 - (wz)^{alpha_i})."""
    return spherical_instance(weyl_group_of(cartan, group), (1,) * cartan.rank)


class DemazureVariant(Frozen):
    """kind = "whittaker" or "lusztig"; modified selects the z -> z^{-1} conjugate; group defaults to W(cartan).

    coefficients[i] = (D(x), A(x^-1)), A the kind's k = 1 block: T_i f = D(x) f + A(x^-1) f(s_i z), with
    x = z^alpha_i, or z^-alpha_i when modified.  Both share one denominator factor, which apply_demazure divides by.
    """

    __slots__ = ("kind", "cartan", "group", "modified", "coefficients")

    def __init__(self, kind: str, cartan: CartanDatum, group: WeylGroup | None = None, modified: bool = True):
        if kind not in _K1_BLOCKS:
            raise ValueError(f"unknown Demazure variant {kind!r}")
        group = weyl_group_of(cartan, group)
        pairs = []
        for i, alpha in enumerate(cartan.simple_coroots):
            x = coroot_monomial(alpha, -1 if modified else 1)
            c0, c1 = d_function(x), _K1_BLOCKS[kind](x.monomial_inverse())
            if len(c0.den) != 1 or c1.den != c0.den:
                raise AssertionError(f"the coefficients of T_{i + 1} do not share one denominator factor")
            pairs.append((c0, c1))
        self._freeze(kind, cartan, group, modified, tuple(pairs))  # frozen, so the pairs never go stale


demazure_variant = DemazureVariant  # the name the frozen acceptance suite and the workloads import


def apply_demazure(var: DemazureVariant, i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i f for a Laurent polynomial f, computed in polynomials.

    c0 and c1 share their one normal denominator factor q in every variant,
    so T_i f = (c0.num f + c1.num f(s_i z)) / q: one :func:`divided_difference`,
    which forms the numerator in one pass over the terms of f, with s_i
    applied to each packed monomial, and divides it exactly by the binomial
    q, raising NotDivisible if the quotient is not a Laurent polynomial.
    """
    c0, c1 = var.coefficients[i]
    return divided_difference(f, c0.num, (c1.num,), var.group.reflection(i), c0.den[0])


demazure_polynomial = apply_demazure  # the name the frozen acceptance suite (criterion 4) imports


def demazure_act(var: DemazureVariant, f: LaurentPoly):
    """act(word) = T_word f, one polynomial Demazure step per letter."""
    return applied(lambda i, g: apply_demazure(var, i, g), f)


def idempotent_apply(var: DemazureVariant, lam: Sequence[int]) -> LaurentPoly:
    """sum_w T_w z^lambda, an exact Laurent polynomial.

    T_w z^lambda = T_i (T_{s_i w} z^lambda) along the reduced word of w,
    one :func:`apply_demazure` step per letter, so no rational function
    is built; words share their suffixes, so each element of W costs one step.
    """
    if not var.cartan.is_dominant(lam):
        raise ValueError(f"{tuple(lam)} is not dominant")
    return weyl_sum(demazure_act(var, weight_monomial(lam)), var.group)


def cs_product(cartan: CartanDatum) -> LaurentPoly:
    """prod over positive coroots of (1 - v z^{-alpha})."""
    result = P.one()
    for beta in cartan.positive_coroots:
        result = result * (P.one() - v() * coroot_monomial(beta, -1))
    return result


def cs_rhs(cartan: CartanDatum, group: WeylGroup, lam: Sequence[int]) -> LaurentPoly:
    """The closed product side: prod (1 - v z^{-alpha}) * chi_lambda(z)."""
    return cs_product(cartan) * weyl_character(cartan, group, lam)


def check_demazure_relations(var: DemazureVariant, weights: Sequence[Sequence[int]], report: Report | None = None) -> Report:
    """Quadratic and braid relations as operators, tested on a monomial basis in Laurent polynomials."""
    report = report or Report(f"demazure relations {var.kind} {var.cartan.cartan_type}")
    return monomial_relations(report, lambda f: demazure_act(var, f), weights, var.cartan.braid_orders)


# -- the twisted group ring ----------------------------------------------------


class TwistedGroupElement:
    """Element sum_w c_w * w of the twisted group ring of W over the function field."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: WeylGroup, coeffs: dict[WeylElement, RationalFunction]):
        self.group, self.coeffs = group, coeffs

    def _clean(self) -> "TwistedGroupElement":
        return TwistedGroupElement(self.group, {w: c for w, c in self.coeffs.items() if not c.is_zero()})

    def add(self, other: "TwistedGroupElement") -> "TwistedGroupElement":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out[w] + c if w in out else c
        return TwistedGroupElement(self.group, out)._clean()

    __add__ = add

    def mul(self, other: "TwistedGroupElement") -> "TwistedGroupElement":
        """(f w)(g y) = (f * act_fn(w, g)) (w y)."""
        out: dict[WeylElement, RationalFunction] = {}
        for w, f in self.coeffs.items():
            for y, g in other.coeffs.items():
                coeff = f * self.group.act_fn(w, g)
                wy = self.group.mul(w, y)
                out[wy] = out[wy] + coeff if wy in out else coeff
        return TwistedGroupElement(self.group, out)._clean()

    def scale(self, c: RationalFunction) -> "TwistedGroupElement":
        return TwistedGroupElement(self.group, {w: c * f for w, f in self.coeffs.items()})._clean()

    def act_on(self, f) -> RationalFunction:
        if isinstance(f, P):
            f = RF.from_poly(f)
        total = RF.zero()
        for w, c in self.coeffs.items():
            total = total + c * self.group.act_fn(w, f)
        return total

    def coeff(self, w: WeylElement) -> RationalFunction:
        return self.coeffs.get(w, RF.zero())

    def equals(self, other: "TwistedGroupElement") -> bool:
        for w in set(self.coeffs) | set(other.coeffs):
            if not (self.coeff(w) == other.coeff(w)):
                return False
        return True


def group_element(group: WeylGroup, w: WeylElement) -> TwistedGroupElement:
    return TwistedGroupElement(group, {w: RF.one()})


def to_element(var: DemazureVariant, i: int) -> TwistedGroupElement:
    """The Demazure operator as c0 * 1_W + c1 * s_i in the twisted group ring."""
    c0, c1 = var.coefficients[i]
    return TwistedGroupElement(var.group, {var.group.identity: c0, var.group.simple(i): c1})


def idempotent_element(var: DemazureVariant) -> TwistedGroupElement:
    """sum_w T_w in the twisted group ring (coefficients cancelled as it grows)."""

    def step(i: int, rest: TwistedGroupElement) -> TwistedGroupElement:
        product = to_element(var, i).mul(rest)
        return TwistedGroupElement(var.group, {y: c.cancelled() for y, c in product.coeffs.items()})

    return weyl_sum(applied(step, group_element(var.group, var.group.identity)), var.group)
