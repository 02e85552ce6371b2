import random

import pytest

from heckekit.algebra import LaurentPoly, RationalFunction, v
from heckekit.roots import build_cartan, coroot_monomial, weight_monomial, weyl_group
from heckekit.schema import verify_instance
from heckekit.whittaker import (
    apply_demazure,
    check_demazure_relations,
    cs_product,
    cs_rhs,
    demazure_polynomial,
    demazure_variant,
    group_element,
    idempotent_apply,
    idempotent_element,
    spherical_schema_instance,
    to_element,
    whittaker_schema_instance,
)
from oracles import apply_demazure_word, modified_theta

P = LaurentPoly
RF = RationalFunction


@pytest.fixture(scope="module")
def a2():
    cartan = build_cartan("A2")
    return cartan, weyl_group(cartan)


def small_monomials(dim, bound=2, count=12, seed=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(tuple(rng.randint(-bound, bound) for _ in range(dim)))
    return out


def test_whittaker_instance_a_entry():
    cartan = build_cartan("A1")
    inst = whittaker_schema_instance(cartan)
    W = inst.group
    x = coroot_monomial(cartan.simple_coroots[0])  # z1/z2
    expected = RF(P.one() - v() * x.monomial_inverse(), (P.one() - x,))
    assert inst.A(W.identity, 0)[0][0] == expected


def test_whittaker_generator_block_matrix():
    # the 2x2 block of T_1 for A1: diag D(z), D(sz); off-diagonal the A entries
    from heckekit.schema import build_T, d_function

    cartan = build_cartan("A1")
    inst = whittaker_schema_instance(cartan)
    W = inst.group
    e, s = W.identity, W.simple(0)
    t = build_T(inst, 0)
    assert t.block(e, e)[0][0] == d_function(inst.x_monomial(e, 0))
    assert t.block(s, s)[0][0] == d_function(inst.x_monomial(s, 0))
    assert t.block(e, s)[0][0] == inst.A(s, 0)[0][0]
    assert t.block(s, e)[0][0] == inst.A(e, 0)[0][0]


def test_demazure_numerator_division():
    # numerator of T_1 z^(1,0) divides by 1 - z^alpha: quotient recovers -z1
    from heckekit.algebra import exact_divide

    cartan = build_cartan("A1")
    W = weyl_group(cartan)
    var = demazure_variant("whittaker", cartan, W, modified=False)
    x = coroot_monomial(cartan.simple_coroots[0])
    f = P.symbol("z1")
    numerator = (P.one() - v()) * x * f - x * (P.one() - v() * x) * P.symbol("z2")
    quotient = exact_divide(numerator, P.one() - x)
    assert quotient == -P.symbol("z1")
    assert apply_demazure(var, 0, f) == RF.from_poly(quotient)


def test_whittaker_passes_schema_a2(a2):
    cartan, W = a2
    inst = whittaker_schema_instance(cartan, W)
    rep = verify_instance(inst, lambdas=[(1, 0, 0), (0, 1, 0), (0, 0, 1)], spherical=True)
    assert rep.passed, rep.render_text()


def test_spherical_passes_schema_c2():
    cartan = build_cartan("C2")
    inst = spherical_schema_instance(cartan)
    assert verify_instance(inst, lambdas=[(1, 0), (0, 1)]).passed


def test_spherical_trivial_module_identities():
    # T_i 1 = v, hence I 1 = sum_w v^{l(w)} for the spherical action
    cartan = build_cartan("A2")
    W = weyl_group(cartan)
    var = demazure_variant("lusztig", cartan, W, modified=False)
    for i in range(2):
        assert apply_demazure(var, i, P.one()) == RF.from_poly(v())
    total = RF.zero()
    for w in W:
        total = total + apply_demazure_word(var, w, P.one())
    poincare = sum((v() ** w.length for w in W), P.zero())
    assert total == RF.from_poly(poincare)


def test_lusztig_one_maps_to_v(a2):
    cartan, W = a2
    var = demazure_variant("lusztig", cartan, W, modified=True)
    assert apply_demazure(var, 0, P.one()) == RF.from_poly(v())


def test_whittaker_one_maps_to_minus_v(a2):
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W, modified=True)
    out = apply_demazure(var, 0, P.one())
    assert out == RF.from_poly(-v() * coroot_monomial(cartan.simple_coroots[0], -1))


def test_antispherical_all_types():
    for name in ["A1", "A2", "A3", "C2", "B2", "G2"]:
        cartan = build_cartan(name)
        W = weyl_group(cartan)
        plain = demazure_variant("whittaker", cartan, W, modified=False)
        modified = demazure_variant("whittaker", cartan, W, modified=True)
        zrho = weight_monomial(cartan.rho)
        zmrho = weight_monomial(tuple(-r for r in cartan.rho))
        for i in range(cartan.rank):
            assert apply_demazure(plain, i, zrho) == RF.from_poly(-zrho)
            assert apply_demazure(modified, i, zmrho) == RF.from_poly(-zmrho)


def test_antispherical_a1_value():
    # direct expansion: T z1 = -z1 for rho = (1, 0)
    cartan = build_cartan("A1")
    var = demazure_variant("whittaker", cartan, weyl_group(cartan), modified=False)
    assert apply_demazure(var, 0, P.symbol("z1")) == RF.from_poly(-P.symbol("z1"))


def test_polynomial_stability(a2):
    cartan, W = a2
    rng = random.Random(11)
    for kind in ("whittaker", "lusztig"):
        for modified in (True, False):
            var = demazure_variant(kind, cartan, W, modified)
            for _ in range(10):
                lam = tuple(rng.randint(-3, 3) for _ in range(3))
                out = demazure_polynomial(var, rng.randrange(2), weight_monomial(lam))
                assert isinstance(out, P)


def test_demazure_relations_rank_two():
    weights = small_monomials(3, bound=2, count=6)
    for name in ["A2"]:
        cartan = build_cartan(name)
        W = weyl_group(cartan)
        for kind in ("whittaker", "lusztig"):
            rep = check_demazure_relations(demazure_variant(kind, cartan, W), weights)
            assert rep.passed, rep.render_text()


def test_modified_theta():
    f = P.one()
    assert modified_theta((0, 0), f) == f
    assert modified_theta((1, 0), f) == P.monomial({"z1": -1})
    g = modified_theta((1, 0), modified_theta((0, 1), f))
    assert g == modified_theta((1, 1), f)


def test_idempotent_a1_values():
    cartan = build_cartan("A1")
    W = weyl_group(cartan)
    var = demazure_variant("whittaker", cartan, W)
    alpha = cartan.simple_coroots[0]
    assert idempotent_apply(var, (0, 0)) == P.one() - v() * coroot_monomial(alpha, -1)
    lhs = idempotent_apply(var, (1, 0))
    rhs = (P.one() - v() * coroot_monomial(alpha, -1)) * (P.symbol("z1") + P.symbol("z2"))
    assert lhs == rhs


def test_cs_a2_standard(a2):
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    want = cs_product(cartan) * (P.symbol("z1") + P.symbol("z2") + P.symbol("z3"))
    assert idempotent_apply(var, (1, 0, 0)) == want
    assert idempotent_apply(var, (2, 1, 0)) == cs_rhs(cartan, W, (2, 1, 0))


def test_twisted_ring_associativity(a2):
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    a = to_element(var, 0)
    b = to_element(var, 1)
    c = group_element(W, W.simple(0)).scale(RF.from_poly(P.symbol("z1")))
    assert a.mul(b).mul(c).equals(a.mul(b.mul(c)))


def test_transposition_identity(a2):
    # s_i (1 + T_i) = ((1 - v z^a)/(1 - v z^-a)) (1 + T_i)
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    for i in range(2):
        x = coroot_monomial(cartan.simple_coroots[i])
        s = group_element(W, W.simple(i))
        one_plus = group_element(W, W.identity).add(to_element(var, i))
        scalar = RF(P.one() - v() * x, (P.one() - v() * x.monomial_inverse(),))
        assert s.mul(one_plus).equals(one_plus.scale(scalar))


def test_idempotent_element_w_invariance(a2):
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    element = idempotent_element(var)
    prefactor = RF.one()
    for beta in cartan.positive_coroots:
        prefactor = prefactor / RF.from_poly(P.one() - v() * coroot_monomial(beta, -1))
    itilde = element.scale(prefactor)
    for w in W:
        assert group_element(W, w).mul(itilde).equals(itilde)


def test_idempotent_w0_coefficient(a2):
    # coefficient of w0 in sum_w T_w is prod (1 - v z^-a)/(1 - z^a)
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    coeff = idempotent_element(var).coeff(W.longest())
    expected = RF.one()
    for beta in cartan.positive_coroots:
        expected = expected * RF(
            P.one() - v() * coroot_monomial(beta, -1),
            (P.one() - coroot_monomial(beta),),
        )
    assert coeff == expected


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="^unknown Demazure variant 'foo'$"):
        demazure_variant("foo", build_cartan("A2"))


def test_idempotent_rejects_non_dominant(a2):
    cartan, W = a2
    var = demazure_variant("whittaker", cartan, W)
    with pytest.raises(ValueError):
        idempotent_apply(var, (0, 1, 0))


@pytest.mark.parametrize("name, inputs", [(name, "sum") for name in ("A2", "B2", "C2", "G2")]
                         + [("A2", "monomials"), ("B2", "other symbols"), ("G2", "other symbols")],
                         ids=["A2", "B2", "C2", "G2", "A2-monomials", "B2-other-symbols", "G2-other-symbols"])
def test_polynomial_step_matches_rational_step(name, inputs):
    cartan = build_cartan(name)
    W = weyl_group(cartan)
    rng = random.Random(5)
    if inputs == "monomials":  # 20 seeded monomials, one at a time
        fs = [weight_monomial(tuple(rng.randint(-2, 2) for _ in range(cartan.dim))) for _ in range(20)]
    else:  # one multi-term polynomial
        basis = [lam for lam in (tuple(rng.randint(-2, 2) for _ in range(cartan.dim)) for _ in range(40))
                 if cartan.in_lattice(lam)][:4]
        f = P.zero()
        for k, lam in enumerate(basis):
            term = weight_monomial(lam) * rng.randint(1, 3)
            if inputs == "other symbols":  # the step carries u and a (rule-free) Gauss symbol through s_i
                term = term * P.monomial({"u": k - 1, "g1": k % 2})
            f = f + term
        assert len(f.terms) >= 2
        fs = [f]
    for kind in ("whittaker", "lusztig"):
        for modified in (True, False):
            var = demazure_variant(kind, cartan, W, modified)
            for i in range(cartan.rank):
                for f in fs:
                    assert apply_demazure(var, i, f) == to_element(var, i).act_on(f)


def test_a_perturbed_coefficient_fails_the_demazure_relations_at_its_weight():
    # negative control: T_1 with its twisted numerator c1.num doubled is no Demazure operator
    cartan = build_cartan("A2")
    var = demazure_variant("whittaker", cartan, weyl_group(cartan))
    weights = [(1, 0, 0), (0, 1, -1)]
    assert check_demazure_relations(var, weights).first_failure() is None
    (c0, c1), *rest = var.coefficients
    object.__setattr__(var, "coefficients", ((c0, 2 * c1), *rest))
    failure = check_demazure_relations(var, weights).first_failure()
    assert failure is not None and failure.name.endswith(f"on z^{weights[0]}")


def test_an_off_lattice_monomial_fails_the_step_with_a_value_error():
    # (1, 0, 0) pairs to 1/3 with alpha_2 of G2: its image under s_2 is not a lattice vector
    cartan = build_cartan("G2")
    var = demazure_variant("whittaker", cartan, weyl_group(cartan))
    apply_demazure(var, 0, weight_monomial((1, 0, 0)))  # <alpha_1, (1, 0, 0)> = 0
    with pytest.raises(ValueError, match="non-integral"):
        apply_demazure(var, 1, weight_monomial((1, 0, 0)))


def test_cs_a4_in_polynomial_steps():
    import time

    cartan = build_cartan("A4")
    W = weyl_group(cartan)
    lam = (3, 2, 1, 0, 0)
    start = time.perf_counter()
    assert idempotent_apply(demazure_variant("whittaker", cartan, W), lam) == cs_rhs(cartan, W, lam)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2"])
def test_demazure_coefficients_closed_forms(cartan_type):
    # T_i f = c0 f + c1 f(s_i z) with x = z^alpha_i; the modified pairs are the plain ones at z^-alpha_i
    cartan = build_cartan(cartan_type)
    group = weyl_group(cartan)
    one, vv = P.one(), v()
    for i in range(cartan.rank):
        x = coroot_monomial(cartan.simple_coroots[i])
        xinv = x.monomial_inverse()
        expected = {
            ("whittaker", False): (RF((one - vv) * x, (one - x,)), RF(one - vv * x, (one - xinv,))),
            ("lusztig", False): (RF((one - vv) * x, (one - x,)), RF(one - vv * xinv, (one - xinv,))),
            ("whittaker", True): (RF(one - vv, (x - one,)), RF(vv * xinv - one, (x - one,))),
            ("lusztig", True): (RF(one - vv, (x - one,)), RF(vv * x - one, (x - one,))),
        }
        for (kind, modified), (c0, c1) in expected.items():
            got = demazure_variant(kind, cartan, group, modified).coefficients[i]
            assert got[0] == c0 and got[1] == c1, (kind, modified, i)
