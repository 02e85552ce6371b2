import json
import re
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckekit.algebra import (
    GaussRules,
    LaurentPoly,
    NotDivisible,
    RationalFunction,
    exact_divide,
    gauss_symbol,
    v,
)
from heckekit.linalg import Matrix, is_scalar_matrix, mat_mul
from heckekit.metaplectic import (
    MetaplecticDatum,
    MetaplecticError,
    RootData,
    _diagonalize,
    _root_residues,
    rmatrix_dictionary_check,
    build_datum,
    cg_action,
    cg_scaled,
    check_met_demazure_match,
    check_met_demazure_relations,
    check_representative_independence,
    met_demazure,
    met_demazure_act,
    metaplectic_schema_instance,
    scattering_block,
    whittaker_base,
    whittaker_value,
)
from heckekit.reports import Report
from heckekit.rmatrix import tensor_block, tensor_schema_instance
from heckekit.roots import build_cartan, coroot_monomial, weight_monomial, weyl_group
from heckekit.schema import (
    BlockOperator,
    build_T,
    c_function,
    check_bernstein,
    check_composition,
    check_quadratic,
    check_spherical_idempotent,
    verify_instance,
)
from heckekit.whittaker import apply_demazure, cs_rhs, demazure_variant, idempotent_apply, whittaker_schema_instance
from oracles import (
    cg_scaled_by_coset,
    conjugate_gauss,
    met_demazure_rational,
    met_demazure_word,
    rem_identity_check,
    substitute,
    tau1,
    tau2,
    whittaker_aggregate,
)

P = LaurentPoly
RF = RationalFunction


@pytest.fixture(scope="module")
def gl2_n2():
    return build_datum("A1", 2)


def test_datum_gl2_n2(gl2_n2):
    d = gl2_n2
    assert d.k == 4
    assert d.n_alpha(0) == 2
    assert set(d.lattice_basis) == {(2, 0), (0, 2)}
    # paper's representatives: rho + [0, n)^r
    assert set(d.coset_reps) == {(1, 0), (1, 1), (2, 0), (2, 1)}


def test_datum_n1_trivial():
    for ct in ("A1", "A2", "C2"):
        d = build_datum(ct, 1)
        assert d.k == 1
        assert all(d.n_alpha(i) == 1 for i in range(d.cartan.rank))


def test_n_alpha_formula():
    # n = 4 with Q(alpha) = 2: n_alpha = 4/gcd(4,2) = 2 (C2 long root, B = 2*dot)
    d = build_datum("C2", 4, tuple(tuple(2 * (1 if r == c else 0) for c in range(2)) for r in range(2)))
    long_root = d.cartan.simple_coroots[1]  # (0, 2)
    assert d.q_value(long_root) == 4
    short = d.cartan.simple_coroots[0]
    assert d.q_value(short) == 2
    assert d.n_alpha(0) == 4 // 2


def test_invalid_B_rejected():
    with pytest.raises(MetaplecticError):
        build_datum("A1", 2, ((1, 2), (0, 1)))  # not symmetric
    with pytest.raises(MetaplecticError, match=re.escape("B is not W-invariant (fails at s_1)")):
        build_datum("A1", 2, ((1, 0), (0, 2)))
    with pytest.raises(MetaplecticError, match=re.escape("B is not W-invariant (fails at s_2)")):
        build_datum("A2", 2, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))  # s_1 swaps z1 and z2 and keeps it; s_2 does not
    with pytest.raises(MetaplecticError):
        build_datum("A1", 2, ((1, 0, 0), (0, 1, 0)))  # not d x d
    with pytest.raises(MetaplecticError, match="unknown form 'foo'"):
        build_datum("A1", 2, "foo")  # a string other than "dot"


def test_c_factor_values(gl2_n2):
    d1 = build_datum("A1", 1)
    x = coroot_monomial(d1.cartan.simple_coroots[0], 1)
    assert c_function(d1.roots[0].x) == RF(P.one(d1.rules) - v(d1.rules) * x, (P.one(d1.rules) - x,))
    x2 = coroot_monomial(gl2_n2.cartan.simple_coroots[0], 2)
    assert c_function(gl2_n2.roots[0].x) == RF(P.one(gl2_n2.rules) - v(gl2_n2.rules) * x2, (P.one(gl2_n2.rules) - x2,))


SCATTERING_COVERS = [(t, n) for t in ("A1", "A2", "A3", "B2", "C2") for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("cartan_type, n", SCATTERING_COVERS)
def test_scattering_columns_are_c_s_times_the_paper_coefficients(cartan_type, n):
    """Column mu of scattering_block is c_s tau^1 on the diagonal plus c_s tau^2 at the coset of s_i(mu) + alpha."""
    d = build_datum(cartan_type, n)
    for i in range(d.cartan.rank):
        c = c_function(d.roots[i].x)
        columns: dict[int, dict[int, RF]] = {col: {} for col in range(d.k)}
        for (row, col), x in scattering_block(d, i).entries.items():
            columns[col][row] = x
        for col, mu in enumerate(d.coset_reps):
            target, t2 = tau2(d, i, mu)
            expected = {col: c * tau1(d, i, mu)}
            expected[target] = expected.get(target, RF.zero()) + c * t2
            assert columns[col].keys() == expected.keys(), (i, mu)
            assert all(columns[col][row] == x for row, x in expected.items()), (i, mu)


def _reducible(x: RF) -> bool:
    """True if some denominator factor of x exactly divides its numerator."""
    for f in x.den:
        try:
            exact_divide(x.num, f)
        except NotDivisible:
            continue
        return True
    return False


@pytest.mark.parametrize(
    "cartan_type, n", [(t, n) for t in ("A1", "A2", "B2", "C2") for n in (1, 2, 3)] + [("A3", 2)]
)
def test_metaplectic_entries_are_in_lowest_terms(cartan_type, n):
    inst = metaplectic_schema_instance(build_datum(cartan_type, n))
    reducible = [
        (w.name(), i + 1, key, x.render())
        for (w, i), block in inst.a_matrices.items()
        for key, x in block.entries.items()
        if _reducible(x)
    ]
    assert not reducible


@pytest.mark.parametrize("n, r", [(2, 2), (2, 3), (3, 3)])
def test_gauss_tensor_entries_carry_only_one_minus_x(n, r):
    """The Gauss blocks at power n keep no (1 - v X): an entry's denominator is empty or the one factor 1 - X."""
    coroots = build_cartan(f"A{r - 1}").simple_coroots
    for alpha, block in zip(coroots, tensor_block(n, r, "gauss", n)):
        one_minus_x = RF(LaurentPoly.one(), (LaurentPoly.one() - coroot_monomial(alpha, n),)).den
        assert block.entries
        assert all(x.den in ((), one_minus_x) for x in block.entries.values())
        assert any(x.den == one_minus_x for x in block.entries.values())


@pytest.mark.parametrize(
    "n, r, twist, power", [(2, 2, "none", 1), (2, 3, "none", 1), (2, 2, "gauss", 1), (2, 3, "gauss", 2), (3, 3, "gauss", 3)]
)
def test_tensor_entries_are_in_lowest_terms(n, r, twist, power):
    """No gamma^{-1}(1 - X)/(1 - X) survives: no A(w, i) entry's factor divides its numerator."""
    inst = tensor_schema_instance(n, r, twist, power)
    reducible = [
        (w.name(), i + 1, key, x.render())
        for (w, i), block in inst.a_matrices.items()
        for key, x in block.entries.items()
        if _reducible(x)
    ]
    assert not reducible


EVERY_TYPE = ["A1", "A2", "A3", "A4", "B2", "C2", "G2"]


def _weight_box(cartan):
    """The lattice weights of [-1, 1]^d."""
    return [mu for mu in iproduct(range(-1, 2), repeat=cartan.dim) if cartan.in_lattice(mu)]


@pytest.mark.parametrize("cartan_type", EVERY_TYPE)
def test_scattering_n1_is_whittaker_entry(cartan_type):
    d = build_datum(cartan_type, 1)
    inst = metaplectic_schema_instance(d)
    winst = whittaker_schema_instance(d.cartan, d.group)
    for w in d.group:
        for i in range(d.cartan.rank):
            assert inst.A(w, i) == winst.A(w, i), (w.name(), i)


def test_scattering_sparsity(gl2_n2):
    block = scattering_block(gl2_n2, 0)
    for row in block:
        assert sum(0 if x.is_zero() else 1 for x in row) <= 2
    for col in zip(*block):
        assert sum(0 if x.is_zero() else 1 for x in col) <= 2


def test_scattering_composition_scalar(gl2_n2):
    d = gl2_n2
    inst = metaplectic_schema_instance(d)
    w = d.group.identity
    s = d.group.simple(0)
    product = mat_mul(inst.A(s, 0), inst.A(w, 0))
    scalar = is_scalar_matrix(product)
    assert scalar is not None
    assert scalar == inst.composition_scalar(w, 0)


def test_diagonal_scalars_through_scaled_root(gl2_n2):
    inst = metaplectic_schema_instance(gl2_n2)
    mono = inst.x_monomial(gl2_n2.group.identity, 0)
    (exps, _), = mono.terms.items()
    assert all(e % 2 == 0 for _, e in exps)


def test_schema_gl2_gl3():
    for ct, ns in [("A1", (1, 2, 3)), ("A2", (1, 2))]:
        for n in ns:
            d = build_datum(ct, n)
            inst = metaplectic_schema_instance(d)
            rep = verify_instance(inst, lambdas=d.lattice_basis)
            assert rep.passed, rep.render_text()


def _gauss_carriers(inst):
    """Every numerator and denominator factor that carries a Gauss symbol, in the A blocks and the T_i."""
    matrices = list(inst.a_matrices.values())
    for i in range(inst.cartan.rank):
        matrices += build_T(inst, i).blocks.values()
    polys = [p for m in matrices for x in m.entries.values() for p in (x.num, *x.den)]
    return [p for p in polys if any(s[0] == "g" and s[1:].isdigit() for s in p.symbols())]


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: metaplectic_schema_instance(build_datum("A2", 2)), 2),
        (lambda: metaplectic_schema_instance(build_datum("A2", 3)), 3),
        (lambda: tensor_schema_instance(2, 3, "gauss", 2), 2),
    ],
    ids=["metaplectic A2 n=2", "metaplectic A2 n=3", "tensor n=2 r=3 gauss power=2"],
)
def test_every_gauss_symbol_carries_the_standard_rules(build, n):
    """The modulus is decided where a Gauss symbol is made; no container passes it along."""
    carriers = _gauss_carriers(build())
    assert carriers
    assert all(p.rules is GaussRules.standard(n) for p in carriers)


def test_perturbed_tau_fails(gl2_n2):
    d = gl2_n2
    good = scattering_block(d, 0)
    with pytest.raises(ValueError, match="not 'tau3'"):
        scattering_block(d, 0, perturb="tau3")  # a mistyped control must not return the unperturbed block
    for which in ("tau1", "tau2"):
        bad = scattering_block(d, 0, perturb=which)
        s_bad = [
            [d.group.at_point(d.group.simple(0), x) for x in row]
            for row in scattering_block(d, 0, perturb=which)
        ]
        product = mat_mul(tuple(tuple(r) for r in s_bad), bad)
        scalar = is_scalar_matrix(product)
        inst = metaplectic_schema_instance(d)
        expected = inst.composition_scalar(d.group.identity, 0)
        assert scalar is None or not (scalar == expected)


def test_cg_action_two_term_value(gl2_n2):
    d = gl2_n2
    rules = d.rules
    alpha = d.cartan.simple_coroots[0]
    # f = z1 (mu = e1): B = 1, Q = 1, rem_2(-1) = 1, index B - Q = 0
    f = P.symbol("z1", rules)
    got = cg_action(d, 0, f)
    x = coroot_monomial(alpha, 1)
    bracket = RF(
        x ** (-1) * (P.one(rules) - v(rules)), (P.one(rules) - x ** 2,)
    ) - RF.from_poly(gauss_symbol(0, rules) * x ** (1 - 2))
    expected = RF.from_poly(P.symbol("z2", rules)) * bracket / c_function(d.roots[0].x)
    assert got == expected


def test_cg_additivity(gl2_n2):
    d = gl2_n2
    f = P.symbol("z1", d.rules)
    g = P.monomial({"z2": 2}, rules=d.rules)
    assert cg_action(d, 0, f + g) == cg_action(d, 0, f) + cg_action(d, 0, g)


def test_representative_independence(gl2_n2):
    for mu in [(1, 0), (0, 1), (1, 1)]:
        assert check_representative_independence(gl2_n2, 0, mu).passed


@pytest.mark.parametrize("cartan_type", EVERY_TYPE)
def test_met_demazure_n1_reduces_to_plain_whittaker(cartan_type):
    d = build_datum(cartan_type, 1)
    var = demazure_variant("whittaker", d.cartan, d.group, modified=False)
    weights = _weight_box(d.cartan) + ([(0, 2)] if cartan_type == "A1" else [])
    for mu in weights:
        for i in range(d.cartan.rank):
            assert met_demazure(d, i, weight_monomial(mu)) == apply_demazure(var, i, weight_monomial(mu)), (mu, i)


def test_met_demazure_antispherical_n1():
    d = build_datum("A1", 1)
    zrho = weight_monomial(d.cartan.rho)
    assert met_demazure(d, 0, zrho) == RF.from_poly(-zrho)


def test_met_demazure_polynomial_stability(gl2_n2):
    for mu in [(1, 0), (-2, 1), (0, 0)]:
        out = met_demazure(gl2_n2, 0, weight_monomial(mu))
        assert isinstance(out, P)


def test_met_demazure_relations():
    weights2 = [(a, b) for a in (-2, 0, 1, 2) for b in (-1, 0, 2)]
    for n in (2, 3):
        d = build_datum("A1", n)
        assert check_met_demazure_relations(d, weights2).passed
    d3 = build_datum("A2", 2)
    weights3 = [(1, 0, 0), (0, 1, -1), (2, -1, 0)]
    assert check_met_demazure_relations(d3, weights3).passed


def test_met_demazure_match():
    weights2 = [(a, b) for a in (-2, -1, 0, 1, 2) for b in (-2, 0, 1)]
    for n in (2, 3):
        assert check_met_demazure_match(build_datum("A1", n), weights2).passed
    weights3 = [(1, 0, 0), (0, -1, 1), (2, 1, -1)]
    for n in (2, 3):
        assert check_met_demazure_match(build_datum("A2", n), weights3).passed


@pytest.mark.parametrize("n", [3, 4])
def test_conjugate_embedding_preserves_relations(n):
    d = build_datum("A1", n)
    vv = RF.from_poly(v(d.rules))

    def conjugated(f):  # T_1 under the conjugate embedding g_a -> g_{-a}
        return conjugate_gauss(met_demazure(d, 0, conjugate_gauss(f)))

    for mu in [(2, 0), (1, 1)]:  # Gauss indices 1 and -1, which the conjugation swaps
        f = weight_monomial(mu)
        once = conjugated(f)
        assert not (once == met_demazure(d, 0, f))
        twice = conjugated(once)
        assert twice == (vv - 1) * once + vv * RF.from_poly(f)


@pytest.mark.parametrize("n", [3, 4])
def test_conjugated_scattering_satisfies_the_quadratic_relation(n):
    inst = metaplectic_schema_instance(build_datum("A1", n))
    a = {key: Matrix(m.shape, {rc: conjugate_gauss(x) for rc, x in m.entries.items()}) for key, m in inst.a_matrices.items()}
    assert a != inst.a_matrices
    assert check_quadratic(inst.replace(a_matrices=a), 0).passed


def test_whittaker_base_support(gl2_n2):
    d = gl2_n2
    base = whittaker_base(d, (0, 0))
    idx = d.coset_index((0, 0))
    for w in d.group:
        column = base.block(w, d.group.identity)
        assert column.shape == (d.k, 1) and list(column.entries) == [(idx, 0)]
    image = build_T(metaplectic_schema_instance(d), 0).compose(base)  # a block vector again
    assert isinstance(image, BlockOperator) and image.shape == (d.k, 1)
    assert {source for _, source in image.blocks} == {d.group.identity}


def test_whittaker_value_lambda_zero(gl2_n2):
    d = gl2_n2
    vals = whittaker_value(d, (0, 0))
    active = d.coset_index((0, 0))
    assert not vals[active].is_zero()
    total = whittaker_aggregate(d, (0, 0))
    expected = RF.zero(d.rules)
    for w in d.group:
        expected = expected + met_demazure_word(d, w.word, P.one(d.rules))
    assert RF.from_poly(total) == expected


@pytest.mark.parametrize("weight, probe", [
    ((0.5, 0), weight_monomial),
    ((1.5, 0, 0), lambda w: check_bernstein(whittaker_schema_instance(build_cartan("A2")), w, 0)),
    ((0.7, 0), lambda w: check_met_demazure_match(build_datum("A1", 2), [w])),
    ((0.5, 0.5, 0.5), lambda w: idempotent_apply(demazure_variant("whittaker", build_cartan("A2")), w)),
    ((0.5, 0.5), lambda w: whittaker_value(build_datum("A1", 2), w)),
    ((0.5, 0), lambda w: build_datum("A1", 2).coset_index(w)),
], ids=["weight_monomial", "check_bernstein", "check_met_demazure_match", "in_lattice-idempotent_apply",
        "whittaker_value", "coset_index"])
def test_a_weight_off_the_lattice_never_passes(weight, probe):
    # truncating each weight to integers would test a lattice vector other than the one named
    try:
        got = probe(weight)
    except ValueError:
        return
    assert isinstance(got, Report) and not got.passed and str(weight) in got.first_failure().name, got


def test_whittaker_value_rejects_non_dominant(gl2_n2):
    with pytest.raises(MetaplecticError):
        whittaker_value(gl2_n2, (0, 1))


def test_whittaker_aggregate_matches_demazure_sum(gl2_n2):
    d = gl2_n2
    lam = (2, 0)  # inside Lambda^(2)
    agg = whittaker_aggregate(d, lam)
    total = RF.zero(d.rules)
    mono = weight_monomial((-2, 0))
    for w in d.group:
        total = total + met_demazure_word(d, w.word, mono)
    assert RF.from_poly(agg) == total


def test_whittaker_n1_matches_cs_under_inversion():
    d = build_datum("A1", 1)
    lam = (1, 0)
    agg = whittaker_aggregate(d, lam)
    cs = cs_rhs(d.cartan, d.group, lam)
    inverted = substitute(cs, {f"z{i + 1}": {f"z{i + 1}": -1} for i in range(d.cartan.dim)})
    assert agg == inverted.with_rules(d.rules)


def test_rmatrix_dictionary():
    for (r, n) in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        assert rmatrix_dictionary_check(r, n).passed


# the covers on which cg_scaled, read off the Demazure step, is checked against the coset-wise sum: the dot form at
# n = 2..4, and twice the dot form, whose Gauss indices B - Q differ, at n = 4
CG_COVERS = [(t, n, "dot") for t in ("A1", "A2", "A3", "B2", "C2") for n in (2, 3, 4)] + [
    ("A2", 4, "2dot"), ("C2", 4, "2dot")]


def _cover(cartan_type, n, form):
    if form == "dot":
        return build_datum(cartan_type, n)
    dim = build_cartan(cartan_type).dim
    return build_datum(cartan_type, n, tuple(tuple(2 * (r == c) for c in range(dim)) for r in range(dim)))


@pytest.mark.parametrize("cartan_type, n, form", CG_COVERS)
def test_cg_scaled_equals_the_coset_wise_sum(cartan_type, n, form):
    d = _cover(cartan_type, n, form)
    box = _weight_box(d.cartan)
    monomials = [weight_monomial(mu) for mu in box]
    words = [w.word for w in d.group if 2 <= w.length <= 3]
    spread = [sum(monomials, P.zero())] + [met_demazure_act(d, f)(word) for f in monomials[:2] for word in words]
    for f in monomials + spread:
        for i in range(d.cartan.rank):
            assert cg_scaled(d, i, f) == cg_scaled_by_coset(d, i, f), (f.render(), i)
    assert len({d.coset_index(mu) for mu in box}) > 1  # spread[0] meets several cosets


@pytest.mark.parametrize("cartan_type, n, form", CG_COVERS)
def test_pairing_is_q_times_the_cartan_pairing(cartan_type, n, form):
    d = _cover(cartan_type, n, form)
    for mu in _weight_box(d.cartan):
        for i, alpha in enumerate(d.cartan.simple_coroots):
            assert d.bilinear(alpha, mu) == d.q_value(alpha) * d.cartan.pairing_int(i, mu)


@pytest.mark.parametrize("form, n", [("dot", 3), ("2dot", 4)])
def test_cg_scaled_takes_one_demazure_pass(monkeypatch, form, n):
    # the Chinta-Gunnells sum is read off one met_demazure call, with no act_fn pass of its own
    import heckekit.metaplectic as met

    d = _cover("A2", n, form)
    f = sum((weight_monomial(mu) for mu in iproduct(range(-2, 3), repeat=3)), P.zero())  # the criterion-8 box
    step, act_fn, calls = met.met_demazure, d.group.act_fn, []
    monkeypatch.setattr(met, "met_demazure", lambda *a: calls.append("met_demazure") or step(*a))
    monkeypatch.setattr(d.group, "act_fn", lambda w, g: calls.append("act_fn") or act_fn(w, g))
    for i in range(d.cartan.rank):
        calls.clear()
        cg_scaled(d, i, f)
        assert calls == ["met_demazure"], (i, calls)


def test_q_not_dividing_the_pairing_is_a_metaplectic_error():
    d = build_datum("G2", 1)  # Q(alpha_2) = 3, so b = 1 is the pairing of no lattice weight
    assert _root_residues(d, 1, 3) == (-1) % d.n_alpha(1)
    with pytest.raises(MetaplecticError, match=re.escape("Q(alpha_2) = 3 does not divide B(alpha_2, mu) = 1")):
        _root_residues(d, 1, 1)


def test_a_built_datum_is_frozen():
    d = build_datum("A1", 2)
    with pytest.raises(AttributeError):
        d.n = 3
    with pytest.raises(AttributeError):
        d.roots = ()


@pytest.mark.parametrize("n, message", [(0, "n = 0 is not a positive integer"), (-2, "n = -2 is not a positive integer"),
                                        (1.5, "n = 1.5 is not a positive integer")])
def test_a_degree_that_is_not_a_positive_integer_is_rejected(n, message):
    with pytest.raises(MetaplecticError, match=re.escape(message)):
        build_datum("A2", n)


@pytest.mark.parametrize("n, B, message", [
    ("a", None, "n = 'a' is not a positive integer"),
    (None, None, "n = None is not a positive integer"),
    (float("nan"), None, "n = nan is not a positive integer"),
    (float("inf"), None, "n = inf is not a positive integer"),
    (2, (("a", 0), (0, 1)), "B entry (row 1, column 1) = 'a' is not an integer"),
], ids=["n-str", "n-None", "n-nan", "n-inf", "B-str"])
def test_a_value_int_cannot_read_is_a_metaplectic_error(n, B, message):
    # int() itself raises on each: ValueError, TypeError, ValueError, OverflowError, ValueError
    with pytest.raises(MetaplecticError, match=re.escape(message)):
        build_datum("A1", n, B)


def test_an_integral_degree_is_taken_as_an_int():
    for n in (3.0, Fraction(3)):
        d = build_datum("A2", n)
        assert type(d.n) is int and d.rules is GaussRules.standard(3) and d.moduli == build_datum("A2", 3).moduli


def test_q_not_dividing_the_pairing_names_the_root_and_b():
    d = build_datum("G2", 1)  # (1, 0, 0) is off the G2 lattice: B(alpha_2, mu) = 1, Q(alpha_2) = 3
    with pytest.raises(ValueError, match=re.escape("non-integral image of (1, 0, 0): <a, mu> = 1/3")):
        cg_scaled(d, 1, weight_monomial((1, 0, 0)))


def test_rem_identity():
    assert rem_identity_check(3, 4)
    assert rem_identity_check(1, 7)
    assert rem_identity_check(2, -3)
    assert all(rem_identity_check(na, m) for na in (1, 2, 3, 4) for m in range(-8, 9))


@pytest.mark.parametrize("cartan_type, n", [("A1", 2), ("A1", 3), ("A1", 4), ("A2", 2), ("A2", 3), ("A2", 4)])
def test_met_polynomial_step_matches_rational_step(cartan_type, n):
    d = build_datum(cartan_type, n)
    weights = [(1, 0, 0), (0, 1, -1), (2, -1, 0), (-2, 0, 1)] if cartan_type == "A2" else [(1, 0), (-2, 1), (0, 3)]
    f = P.zero(d.rules)
    for k, mu in enumerate(weights):  # several cosets at once
        f = f + weight_monomial(mu) * (k + 1)
    # the step carries u and the Gauss symbols through s_i; for even n, g_{n/2} times a twist's g_{n/2} folds to u^2
    symbols = [P.monomial({"u": k - 1}, rules=d.rules) * gauss_symbol(k, d.rules) for k in range(len(weights))]
    half = gauss_symbol(n // 2, d.rules)
    g = sum((weight_monomial(mu) * s for mu, s in zip(weights, symbols)), half * weight_monomial(weights[0]))
    # a rule-free input carrying Gauss symbols, brought under the datum's rules by the step
    free = weight_monomial(weights[1]) * P.monomial({"g1": 3, "u": -1}) - weight_monomial(weights[2]) * P.symbol("g2")
    for i in range(d.cartan.rank):
        for h in (f, g, free):
            assert met_demazure(d, i, h) == met_demazure_rational(d, i, h)


def test_a_perturbed_twist_fails_the_met_demazure_relations_at_its_weight():
    # negative control: T_1 of the A2 double cover with one twisted numerator doubled
    d = build_datum("A2", 2)
    weights = [(1, 0, 0), (2, 1, 0)]
    assert check_met_demazure_relations(d, weights).first_failure() is None
    r = d.roots[0]
    root = RootData(r.alpha, r.q, r.n_alpha, r.row, r.x, r.d, r.tau1, r.tau2, (2 * r.twists[0], *r.twists[1:]))
    perturbed = MetaplecticDatum(d.cartan, d.group, d.n, d.B, d.rules, d.moduli, d.to_snf, d.coset_reps,
                                 d.lattice_basis, d.origin, (root, *d.roots[1:]))
    failure = check_met_demazure_relations(perturbed, weights).first_failure()
    assert failure is not None and failure.name.endswith(f"on z^{weights[0]}")


def test_an_off_lattice_monomial_fails_the_met_step_with_a_value_error():
    d = build_datum("G2", 1)  # (1, 0, 0) is off the G2 lattice: <alpha_2, (1, 0, 0)> = 1/3
    met_demazure(d, 0, weight_monomial((1, 0, 0)))
    with pytest.raises(ValueError, match="non-integral"):
        met_demazure(d, 1, weight_monomial((1, 0, 0)))


def _symmetric(d, upper):
    B = [[0] * d for _ in range(d)]
    cells = iter(upper)
    for r in range(d):
        for c in range(r, d):
            B[r][c] = B[c][r] = next(cells)
    return tuple(tuple(row) for row in B)


symmetric_forms = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(st.integers(min_value=-6, max_value=6), min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2)
    .map(lambda upper: _symmetric(d, upper))
)


@settings(max_examples=120, deadline=None)
@given(symmetric_forms)
def test_diagonalize_returns_an_inverse_pair_that_cuts_out_the_sublattice(B):
    d = len(B)
    diagonal, Vp, Vp_inv = _diagonalize(B)
    identity = [[int(r == c) for c in range(d)] for r in range(d)]
    for M in (Vp, Vp_inv):
        assert all(type(x) is int for row in M for x in row)
    assert [[sum(Vp[r][a] * Vp_inv[a][c] for a in range(d)) for c in range(d)] for r in range(d)] == identity
    assert [[sum(Vp_inv[r][a] * Vp[a][c] for a in range(d)) for c in range(d)] for r in range(d)] == identity
    # what build_datum relies on: B mu = 0 mod n for mu = Vp y exactly when d_i y_i = 0 mod n for every i
    span = range(-2, 3) if d <= 3 else range(-1, 2)
    for n in range(2, 7):
        for y in iproduct(span, repeat=d):
            mu = [sum(Vp[r][c] * y[c] for c in range(d)) for r in range(d)]
            in_sublattice = all(sum(B[r][c] * mu[c] for c in range(d)) % n == 0 for r in range(d))
            assert in_sublattice == all(s * t % n == 0 for s, t in zip(diagonal, y))


def test_lattice_setup_builds_no_fraction(monkeypatch):
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for name in ("A1", "A2", "A3", "A4", "B2", "C2", "G2"):
        weyl_group(build_cartan(name))
    for n in (2, 3):
        build_datum("A2", n)
    assert calls == []


@pytest.mark.parametrize("cartan_type, n", [("A1", 2), ("A2", 3), ("B2", 2)])
def test_coset_index_numbers_the_representatives_and_scales_are_n_alpha(cartan_type, n):
    d = build_datum(cartan_type, n)
    assert [d.coset_index(mu) for mu in d.coset_reps] == list(range(d.k))
    for mu, xi in iproduct(d.coset_reps, d.lattice_basis):
        assert d.coset_index([a + b for a, b in zip(mu, xi)]) == d.coset_index(mu)
    for wrong in (d.coset_reps[0][:-1], d.coset_reps[0] + (0,)):  # a weight of the wrong length
        with pytest.raises(ValueError):
            d.coset_index(wrong)
    inst = metaplectic_schema_instance(d)
    assert inst.root_scale == tuple(d.n_alpha(i) for i in range(d.cartan.rank))


def test_perturbed_dictionary_names_an_entry_by_coset_index(monkeypatch):
    import heckekit.metaplectic as met

    plain = met.scattering_block
    monkeypatch.setattr(met, "scattering_block", lambda d, i, normalized=True: plain(d, i, normalized, "tau2"))
    check = rmatrix_dictionary_check(2, 2).checks[0]
    assert not check.passed
    assert check.lhs.startswith("entry (") and check.rhs


def test_spherical_idempotent_on_the_degree_3_gl3_cover():
    assert check_spherical_idempotent(metaplectic_schema_instance(build_datum("A2", 3))).passed


def test_perturbed_spherical_idempotent_names_an_entry():
    d = build_datum("A2", 2)
    check = check_spherical_idempotent(metaplectic_schema_instance(d).perturbed(d.group.simple(0), 0)).checks[0]
    assert not check.passed
    assert check.lhs.startswith("block (e, e) entry (") and check.rhs


def test_perturbed_metaplectic_composition_names_an_entry():
    d = build_datum("A2", 2)
    inst = metaplectic_schema_instance(d)
    failure = check_composition(inst.perturbed(d.group.simple(0), 0)).first_failure()
    assert failure.name == "composition scalar (w=e, i=1)"  # A(s_1, 1) A(e, 1) meets the doubled entry first
    assert failure.lhs.startswith("entry (") and failure.rhs


# Every cover datum of the dot form on A1..A4, B2 and C2 at n = 1..4, and of C2 with B = 2 dot at
# n = 4, as build_datum returned it before its lattice data were restructured; a refactor of the
# lattice setup (a Y basis, say) must leave each one as it is.
COVER_DATA = json.loads((Path(__file__).parent / "cover_data.json").read_text())


@pytest.mark.parametrize("pinned", COVER_DATA, ids=lambda c: f"{c['type']}-n{c['n']}-{'dot' if c['B'] == 'dot' else '2dot'}")
def test_cover_datum_is_pinned(pinned):
    B = pinned["B"] if pinned["B"] == "dot" else tuple(map(tuple, pinned["B"]))
    d = build_datum(pinned["type"], pinned["n"], B)
    assert list(d.moduli) == pinned["moduli"]
    assert [d.n_alpha(i) for i in range(d.cartan.rank)] == pinned["n_alpha"]
    assert [list(row) for row in d.to_snf] == pinned["to_snf"]
    assert [list(mu) for mu in d.lattice_basis] == pinned["lattice_basis"]
    assert [list(mu) for mu in d.coset_reps] == pinned["coset_reps"]


def _invariant_under_every_w(group, B):
    """w^T B w = B for every w, from each w's rows over its denominator: rows^T B rows = den^2 B."""
    d = len(B)
    for w in group:
        rows, den = w.scaled
        BW = [[sum(B[r][k] * rows[k][c] for k in range(d)) for c in range(d)] for r in range(d)]
        if any(sum(rows[k][r] * BW[k][c] for k in range(d)) != den * den * B[r][c] for r in range(d) for c in range(d)):
            return False
    return True


@pytest.mark.parametrize("cartan_type", ["A1", "C2", "A2"])
def test_build_datum_decides_w_invariance_as_every_element_of_w_does(cartan_type):
    # every symmetric integer form with entries in [-1, 1]; checking B on the simple reflections is the whole test
    cartan = build_cartan(cartan_type)
    group = weyl_group(cartan)
    d = cartan.dim
    seen = set()
    for upper in iproduct((-1, 0, 1), repeat=d * (d + 1) // 2):
        B = _symmetric(d, upper)
        try:
            build_datum(cartan, 1, B)
            rejection = ""
        except MetaplecticError as err:
            rejection = str(err)
        invariant = _invariant_under_every_w(group, B)
        # a form is refused at its first failing simple root, so a moved form may meet Q(alpha_i) = 0 first
        assert ("not W-invariant" not in rejection) if invariant else rejection, (B, rejection)
        seen.add((invariant, rejection == ""))
    assert {(True, True), (False, False)} <= seen  # both kinds occur: some invariant forms build


@pytest.mark.parametrize("n, message", [
    (2, "coset representative (0, 0, 1) is off the lattice of G2"),
    (4, "coset representative (0, 0, 1) is off the lattice of G2"),
    (3, "n_alpha * alpha is not in L^(n)"),
    (6, "n_alpha * alpha is not in L^(n)"),
])
def test_a_g2_cover_of_the_dot_form_beyond_n_1_is_rejected(n, message):
    # the dot form's box [0, n)^3 leaves the G2 lattice at n = 2 and 4; at n = 3 and 6, n_alpha alpha_2 is off L^(n)
    with pytest.raises(MetaplecticError, match=re.escape(message)):
        build_datum("G2", n)
    assert build_datum("G2", 1).coset_reps == ((0, 0, 0),)


@pytest.mark.parametrize("B", [((1, 1), (1, 1)), ((0, 0), (0, 0))], ids=["all-ones", "zero"])
def test_form_with_a_null_simple_coroot_is_rejected(B):
    # W-invariant and even, but Q(alpha_1) = 0: no n_alpha, and B(alpha, mu)/Q(alpha) is undefined
    with pytest.raises(MetaplecticError, match=r"Q\(alpha_1\) = 0 .*\(1, -1\)"):
        build_datum("A1", 2, B)


def test_bernstein_weight_off_the_root_scale_names_weight_index_and_scale():
    # <alpha_1, (1, 0, 0)> = 1 is not a multiple of n_alpha = 2; <alpha_2, (1, 0, 0)> = 0 is
    inst = metaplectic_schema_instance(build_datum("A2", 2))
    off, on = check_bernstein(inst, (1, 0, 0), 0).checks[0], check_bernstein(inst, (1, 0, 0), 1).checks[0]
    assert not off.passed
    assert off.lhs == "lambda=(1, 0, 0), i=1: <alpha_1, lambda> is not a multiple of the root scale 2"
    assert on.passed


@pytest.mark.parametrize("B, message", [
    (((1.5, 0), (0, 1.5)), "B entry (row 1, column 1) = 1.5 is not an integer"),
    (((0.5, 0), (0, 0.5)), "B entry (row 1, column 1) = 0.5 is not an integer"),
    (((2, 0), (0, 0.5)), "B entry (row 2, column 2) = 0.5 is not an integer"),
], ids=["1.5-dot", "0.5-dot", "one-entry-0.5"])
def test_form_with_a_non_integer_entry_is_rejected(B, message):
    # int() would have truncated the first two to the dot form and to the zero form
    with pytest.raises(MetaplecticError, match=re.escape(message)):
        build_datum("A1", 2, B)


def test_form_with_integer_valued_entries_is_accepted():
    # 2.0 and Fraction(2) are integers in value: the same cover as B = 2 dot
    for B in (((2.0, 0), (0, 2.0)), ((Fraction(2), 0), (0, Fraction(2)))):
        d = build_datum("A1", 4, B)
        assert d.B == ((2, 0), (0, 2)) and all(type(x) is int for row in d.B for x in row)
        assert d.moduli == build_datum("A1", 4, ((2, 0), (0, 2))).moduli
