from fractions import Fraction
from itertools import product

import pytest

from heckekit.algebra import GaussRules, LaurentPoly, RationalFunction, Reflection, divided_difference, rf_equal
from heckekit.roots import (
    WeylGroup,
    build_cartan,
    coroot_monomial,
    weight_monomial,
    weyl_character,
    weyl_group,
    weyl_group_of,
)
from heckekit.schema import generic_instance
from heckekit.whittaker import (
    cs_rhs,
    demazure_variant,
    idempotent_apply,
    spherical_schema_instance,
    whittaker_schema_instance,
)
from oracles import bruhat_le, weyl_act, weyl_character_sum_form

P = LaurentPoly

ALL_TYPES = ["A1", "A2", "A3", "C2", "B2", "G2"]
SUPPORTED = ["A1", "A2", "A3", "A4", "B2", "C2", "G2"]

# <alpha_i, .> as rational functionals, written out independently of the integer rows
RATIONAL_PAIRINGS = {
    "B2": [(0, 1), (1, -1)],
    "C2": [(1, -1), (0, 1)],
    "G2": [(0, 1, -1), (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3))],
}


def test_build_cartan_counts():
    a2 = build_cartan("A2")
    assert len(a2.positive_coroots) == 3
    assert len(weyl_group(a2)) == 6
    g2 = build_cartan("G2")
    assert len(g2.positive_coroots) == 6
    assert len(weyl_group(g2)) == 12


def test_c2_braid_order():
    c2 = build_cartan("C2")
    assert c2.braid_orders[0][1] == 4
    assert build_cartan("G2").braid_orders[0][1] == 6
    assert build_cartan("A2").braid_orders[0][1] == 3


@pytest.mark.parametrize("name", SUPPORTED)
def test_braid_orders_are_the_orders_of_s_i_s_j_in_the_group(name):
    # the oracle: powers of s_i s_j under WeylGroup.mul until they reach the identity
    cartan = build_cartan(name)
    W = weyl_group(cartan)
    for i, j in product(range(cartan.rank), repeat=2):
        step = W.mul(W.simple(i), W.simple(j))
        power, order = step, 1
        while power != W.identity:
            power, order = W.mul(power, step), order + 1
        assert cartan.braid_orders[i][j] == order, (name, i, j)


@pytest.mark.parametrize("build", [
    whittaker_schema_instance,
    spherical_schema_instance,
    generic_instance,
    lambda cartan, group: demazure_variant("whittaker", cartan, group),
    lambda cartan, group: weyl_character(cartan, group, (0, 0, 0)),
    lambda cartan, group: cs_rhs(cartan, group, (0, 0, 0)),
], ids=["whittaker", "spherical", "generic", "demazure_variant", "weyl_character", "cs_rhs"])
def test_a_weyl_group_of_another_cartan_datum_is_rejected(build):
    # unchecked, W(C2) with the A2 datum would build a C2 instance, or one that fails its own checks
    with pytest.raises(ValueError, match="the Weyl group of C2 does not fit Cartan type A2"):
        build(build_cartan("A2"), weyl_group(build_cartan("C2")))


def test_weyl_group_of_builds_the_group_for_none_and_takes_one_of_an_equal_datum():
    a2 = build_cartan("A2")
    assert weyl_group_of(a2).cartan is a2
    group = weyl_group(build_cartan("A2"))
    assert weyl_group_of(a2, group) is group


def test_unsupported_type():
    with pytest.raises(ValueError):
        build_cartan("E8")


def test_weyl_group_a1():
    W = weyl_group(build_cartan("A1"))
    assert len(W) == 2
    assert {w.name() for w in W} == {"e", "1"}


def test_longest_lengths_and_words():
    W = weyl_group(build_cartan("A2"))
    assert W.longest().length == 3
    assert W.longest().word == (0, 1, 0)  # "121"
    Wg = weyl_group(build_cartan("G2"))
    assert Wg.longest().length == 6
    assert Wg.longest().word == (1, 0, 1, 0, 1, 0)  # "212121"
    Wc = weyl_group(build_cartan("C2"))
    assert Wc.longest().word == (1, 0, 1, 0)  # "2121"


def test_words_multiply_to_matrix():
    for name in ALL_TYPES:
        W = weyl_group(build_cartan(name))
        for w in W:
            product = W.identity
            for i in w.word:
                product = W.mul(product, W.simple(i))
            # left-to-right product of the word letters reproduces w
            assert product.scaled == w.scaled
            assert W.mul(w, W.inverse(w)) is W.identity


def test_simple_reflection_permutes_other_positives():
    for name in ALL_TYPES:
        cartan = build_cartan(name)
        W = weyl_group(cartan)
        positives = set(cartan.positive_coroots)
        for i in range(cartan.rank):
            s = W.simple(i)
            alpha = cartan.simple_coroots[i]
            assert s.act(alpha) == tuple(-a for a in alpha)
            others = positives - {alpha}
            assert {s.act(b) for b in others} == others


def test_bruhat_order():
    W = weyl_group(build_cartan("A2"))
    s1, s2 = W.simple(0), W.simple(1)
    w0 = W.longest()
    for w in W:
        assert bruhat_le(W, W.identity, w)
    assert not bruhat_le(W, s1, s2)
    assert bruhat_le(W, s1, w0)
    assert bruhat_le(W, W.mul(s1, s2), w0)
    assert not bruhat_le(W, w0, s1)


def test_act_examples():
    a2 = build_cartan("A2")
    W = weyl_group(a2)
    assert W.simple(0).act((1, 0, 0)) == (0, 1, 0)
    w0 = W.longest()
    # w0 rho = -rho + fixed-vector shift in type A ambient coordinates
    assert w0.act(a2.rho) == (0, 1, 2)
    a1 = build_cartan("A1")
    W1 = weyl_group(a1)
    assert W1.act_fn(W1.simple(0), P.symbol("z1")) == P.symbol("z2")


def test_act_fn_is_group_action():
    cartan = build_cartan("C2")
    W = weyl_group(cartan)
    f = P.one() + coroot_monomial(cartan.simple_coroots[0]) * 3
    for a in W:
        for b in W:
            lhs = W.act_fn(W.mul(a, b), f)
            rhs = W.act_fn(a, W.act_fn(b, f))
            assert lhs == rhs


def test_act_fn_keeps_the_rules_of_each_factor():
    # one group serves rule-free and Gauss-ruled functions alike; its factor images must not mix them
    cartan = build_cartan("A2")
    W = weyl_group(cartan)
    w = W.simple(0)
    for rules in (None, GaussRules.standard(2), GaussRules.standard(3), None):
        x = coroot_monomial(cartan.simple_coroots[0])
        image = W.act_fn(w, RationalFunction(P.one(rules), (P.one(rules) - x,)))
        assert image.num.rules is rules and all(f.rules is rules for f in image.den)
        assert image == RationalFunction(P.one(rules), (P.one(rules) - x.monomial_inverse(),))


def test_act_fn_serves_two_moduli_in_turn():
    # a factor image kept under one modulus is looked up again under the next
    cartan = build_cartan("A2")
    W = WeylGroup(cartan)
    x = coroot_monomial(cartan.simple_coroots[0])
    for rules in (GaussRules.standard(2), GaussRules.standard(3)):
        image = W.act_fn(W.simple(0), RationalFunction(P.one(rules), (P.one(rules) - x,)))
        assert image == RationalFunction(P.one(rules), (P.one(rules) - x.monomial_inverse(),))


def test_rho_pairings():
    for name in ALL_TYPES:
        cartan = build_cartan(name)
        for i in range(cartan.rank):
            assert cartan.pairing_int(i, cartan.rho) == 1


def test_weyl_character_trivial():
    for name in ["A1", "A2", "C2", "G2"]:
        cartan = build_cartan(name)
        W = weyl_group(cartan)
        zero = tuple(0 for _ in range(cartan.dim))
        assert weyl_character(cartan, W, zero) == P.one()


def test_weyl_character_standard_reps():
    a1 = build_cartan("A1")
    assert weyl_character(a1, weyl_group(a1), (1, 0)) == P.symbol("z1") + P.symbol("z2")
    a2 = build_cartan("A2")
    chi = weyl_character(a2, weyl_group(a2), (1, 0, 0))
    assert chi == P.symbol("z1") + P.symbol("z2") + P.symbol("z3")


def test_weyl_character_matches_rational_sum_form():
    for name, lam in [("A1", (2, 0)), ("A2", (1, 1, 0)), ("C2", (1, 1)), ("G2", (1, 0, -1))]:
        cartan = build_cartan(name)
        W = weyl_group(cartan)
        chi = weyl_character(cartan, W, lam)
        assert rf_equal(weyl_character_sum_form(cartan, W, lam), RationalFunction.from_poly(chi))


def test_weyl_character_invariant_nonneg():
    cartan = build_cartan("C2")
    W = weyl_group(cartan)
    chi = weyl_character(cartan, W, (2, 1))
    for w in W:
        assert W.act_fn(w, chi) == chi
    assert all(c > 0 and c.denominator == 1 for c in chi.terms.values())


def test_dominance():
    c2 = build_cartan("C2")
    assert c2.is_dominant((2, 1))
    assert not c2.is_dominant((1, 2))
    g2 = build_cartan("G2")
    assert g2.in_lattice((1, 0, -1))
    assert not g2.in_lattice((1, 0, 0))
    assert not build_cartan("A2").in_lattice((0.5, 0.5, 0.5))  # integer pairings, but no lattice vector


def test_fundamental_weights():
    g2 = build_cartan("G2")
    w1, w2 = g2.fundamental_weights()
    for i, w in enumerate((w1, w2)):
        assert g2.pairing_int(i, w) == 1
        assert g2.pairing_int(1 - i, w) == 0


@pytest.mark.parametrize("name", ["A3", "B2", "C2", "G2"])
def test_integer_action_matches_the_matrix(name):
    cartan = build_cartan(name)
    W = weyl_group(cartan)
    lattice = [mu for mu in product(range(-2, 3), repeat=cartan.dim) if cartan.in_lattice(mu)]
    for w in W:
        rows, den = w.scaled
        matrix = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
        for mu in lattice[::7]:
            exact = tuple(sum(Fraction(a) * b for a, b in zip(row, mu)) for row in matrix)
            assert w.act(mu) == exact


@pytest.mark.parametrize("name", ["A3", "G2"])
def test_rows_are_one_matrix_in_lowest_terms(name):
    from math import gcd

    W = weyl_group(build_cartan(name))
    denominators = set()
    for w in W:
        rows, den = w.scaled
        assert gcd(den, *(x for row in rows for x in row)) == 1
        denominators.add(den)
    assert denominators == ({1} if name == "A3" else {1, 3})


def test_non_integral_image_raises():
    W = weyl_group(build_cartan("G2"))
    with pytest.raises(ValueError, match="non-integral"):
        W.simple(1).act((1, 0, 0))


def test_g2_pairings_are_integer_rows_over_one_denominator():
    assert build_cartan("G2").pairings == (((0, 3, -3), (1, -2, 1)), 3)
    assert build_cartan("A2").pairings == (((1, -1, 0), (0, 1, -1)), 1)


@pytest.mark.parametrize("name", SUPPORTED)
def test_integer_pairings_match_the_rational_reference(name):
    cartan = build_cartan(name)
    functionals = RATIONAL_PAIRINGS.get(name, cartan.simple_coroots)
    for mu in product(range(-2, 3), repeat=cartan.dim):
        exact = [sum((Fraction(p) * m for p, m in zip(f, mu)), Fraction(0)) for f in functionals]
        integral = all(x.denominator == 1 for x in exact)
        assert cartan.in_lattice(mu) == integral
        if integral:
            assert [cartan.pairing_int(i, mu) for i in range(cartan.rank)] == exact
            assert cartan.is_dominant(mu) == all(x >= 0 for x in exact)
        else:
            with pytest.raises(ValueError, match="not in the lattice"):
                cartan.pairing_int(0, mu)
            with pytest.raises(ValueError, match="not in the lattice"):
                cartan.is_dominant(mu)


def test_wrong_length_weights_raise():
    # A2 lives in Z^3; a shorter or longer vector must not be truncated
    a2 = build_cartan("A2")
    for call in (
        lambda: a2.in_lattice((1, 0)),
        lambda: a2.is_dominant((1, 0)),
        lambda: a2.in_lattice((1, 0, 0, 5)),
        lambda: a2.pairing_int(0, (1, 0)),
        lambda: weyl_group(a2).simple(0).act((1, 0)),
        lambda: idempotent_apply(demazure_variant("whittaker", a2), (1, 0)),
    ):
        with pytest.raises(ValueError, match="coordinates"):
            call()


def reflected(group: WeylGroup, i: int, f: LaurentPoly) -> LaurentPoly:
    """f with s_i applied to each packed monomial, as a Demazure step applies it: one twist 1 - t over 1 - t."""
    one_minus_t = P.one() - P.symbol("t")
    return divided_difference(f, P.zero(), (one_minus_t,), group.reflection(i), one_minus_t)


def carried(cartan, rules) -> LaurentPoly:
    """A sum of lattice monomials, each times its own u, Gauss symbols and coefficient."""
    weights = [mu for mu in product(range(-2, 3), repeat=cartan.dim) if cartan.in_lattice(mu)][::7][:6]
    f = P.zero(rules)
    for k, mu in enumerate(weights):
        f = f + weight_monomial(mu) * P.monomial({"u": k - 2, "g1": k % 3, "g2": -(k % 2)}, k + 1, rules)
    return f


@pytest.mark.parametrize("name", ALL_TYPES)
def test_the_step_reflection_agrees_with_act_fn_on_the_rest_of_a_monomial(name):
    # u and the Gauss symbols ride along untouched, rule-free and under even and odd moduli alike
    cartan = build_cartan(name)
    group = weyl_group(cartan)
    for rules in (None, GaussRules.standard(2), GaussRules.standard(3)):
        f = carried(cartan, rules)
        for i in range(cartan.rank):
            reference = weyl_act(group.simple(i), f)
            assert reflected(group, i, f) == reference and group.act_fn(group.simple(i), f) == reference


@pytest.mark.parametrize("name", SUPPORTED)
def test_act_fn_is_the_term_by_term_action_of_every_element(name):
    # the reduced word's packed reflections against WeylElement.act, with u and Gauss symbols carried along
    cartan = build_cartan(name)
    group = weyl_group(cartan)
    for rules in (None, GaussRules.standard(2), GaussRules.standard(3)):
        f = carried(cartan, rules)
        den = P.one(rules) - coroot_monomial(cartan.positive_coroots[-1]) * P.symbol("u", rules)
        for w in group:
            image = group.act_fn(w, f)
            assert image == weyl_act(w, f) and image.rules is rules
            assert group.act_fn(w, RationalFunction(f, (den,))) == weyl_act(w, RationalFunction(f, (den,)))


def test_act_fn_applies_one_reflection_per_letter_right_to_left(monkeypatch):
    group = weyl_group(build_cartan("G2"))
    calls, apply = [], Reflection.apply
    monkeypatch.setattr(Reflection, "apply", lambda self, f: calls.append(self) or apply(self, f))
    w0 = group.longest()
    f = RationalFunction(weight_monomial((1, 0, -1)), (P.one() - weight_monomial((0, 1, -1)),))
    assert group.act_fn(w0, f) == weyl_act(w0, f)
    assert calls == [group.reflection(i) for i in reversed(w0.word)] * 2  # the numerator, then the one factor


def test_act_fn_is_defined_on_the_lattice():
    # off the G2 lattice a letter's pairing is 1/3, even where the whole element maps mu to a lattice vector
    group = weyl_group(build_cartan("G2"))
    mu, f = (1, 0, 0), weight_monomial((1, 0, 0)) * P.symbol("u")
    w = next(w for w in group if w.name() == "212")
    assert w.act(mu) == (0, 1, 0)
    with pytest.raises(ValueError, match="non-integral"):
        group.act_fn(w, f)


@pytest.mark.parametrize("name, i, mu", [
    ("C2", 1, (0, -2 ** 14)),  # s_2 negates the second coordinate: -2^14 -> 2^14, with k = -2^14
    ("G2", 1, (16000, 10000, 16000)),  # k = 4000, small: the image's second exponent 18000 >= 2^14
], ids=["C2-large-pairing", "G2-small-pairing"])
def test_an_image_exponent_out_of_range_raises_overflow(name, i, mu):
    group = weyl_group(build_cartan(name))
    f = weight_monomial(mu) * P.symbol("u")
    with pytest.raises(OverflowError):
        group.act_fn(group.simple(i), f)
    with pytest.raises(OverflowError):
        reflected(group, i, f)


@pytest.mark.parametrize("name, i, mu", [
    ("A1", 0, (2 ** 14 - 1, -2 ** 14)),  # a swap of the extreme exponents, k = 2^15 - 1
    ("G2", 1, (14383, 8383, 14383)),  # k = 4000: the image's second exponent is 2^14 - 1
], ids=["A1-extreme-swap", "G2-edge"])
def test_an_image_at_the_edge_of_the_range_is_exact(name, i, mu):
    # no exponent carries into a neighbouring lane: the u beside the z lanes is kept as it was
    group = weyl_group(build_cartan(name))
    f = weight_monomial(mu) * P.monomial({"u": -3})
    image = group.simple(i).act(mu)
    assert reflected(group, i, f) == group.act_fn(group.simple(i), f) == weight_monomial(image) * P.monomial({"u": -3})
