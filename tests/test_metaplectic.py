import json
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckekit.algebra import (
    GaussRules,
    LaurentPoly,
    RationalFunction,
    gauss_symbol,
    v,
)
from heckekit.linalg import Matrix, is_scalar_matrix, mat_mul
from heckekit.metaplectic import (
    MetaplecticError,
    _diagonalize,
    rmatrix_dictionary_check,
    build_datum,
    c_factor,
    cg_action,
    check_met_demazure_match,
    check_met_demazure_relations,
    check_representative_independence,
    met_demazure,
    met_demazure_poly,
    metaplectic_schema_instance,
    scattering_block,
    tau1,
    tau2,
    whittaker_base,
    whittaker_value,
)
from heckekit.rmatrix import tensor_schema_instance
from heckekit.roots import build_cartan, coroot_monomial, weight_monomial, weyl_group
from heckekit.schema import BlockOperator, build_T, check_bernstein, check_composition, check_quadratic, verify_instance
from heckekit.whittaker import apply_demazure, cs_rhs, demazure_variant, whittaker_schema_instance
from oracles import conjugate_gauss, met_demazure_word, rem_identity_check, whittaker_aggregate

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
    with pytest.raises(MetaplecticError):
        build_datum("A1", 2, ((1, 0), (0, 2)))  # not W-invariant


def test_c_factor_values(gl2_n2):
    d1 = build_datum("A1", 1)
    x = coroot_monomial(d1.cartan.simple_coroots[0], 1)
    assert c_factor(d1, 0) == RF(P.one(d1.rules) - v(d1.rules) * x, (P.one(d1.rules) - x,))
    x2 = coroot_monomial(gl2_n2.cartan.simple_coroots[0], 2)
    assert c_factor(gl2_n2, 0) == RF(P.one(gl2_n2.rules) - v(gl2_n2.rules) * x2, (P.one(gl2_n2.rules) - x2,))


def test_tau1_values(gl2_n2):
    d = gl2_n2
    rules = d.rules
    alpha = d.cartan.simple_coroots[0]
    den = P.one(rules) - v(rules) * coroot_monomial(alpha, 2)
    # B(alpha, mu) = 0: exponent 0
    assert tau1(d, 0, (1, 1)) == RF(P.one(rules) - v(rules), (den,))
    # B(alpha, mu) = 1 (mu = rho): exponent rem_2(-1) = 1
    assert tau1(d, 0, (1, 0)) == RF((P.one(rules) - v(rules)) * coroot_monomial(alpha, 1), (den,))


def test_tau2_carries_gauss_symbol(gl2_n2):
    d = gl2_n2
    target, value = tau2(d, 0, (1, 1))  # B - Q = -1, index mod 2 = 1
    assert target == d.coset_index((2, 0))
    assert "g1" in value.num.symbols()


def test_tau1_n1_specialization():
    d = build_datum("A1", 1)
    rules = d.rules
    alpha = d.cartan.simple_coroots[0]
    assert tau1(d, 0, (0, 0)) == RF(
        P.one(rules) - v(rules), (P.one(rules) - v(rules) * coroot_monomial(alpha, 1),)
    )


def test_scattering_n1_is_whittaker_entry():
    d = build_datum("A1", 1)
    block = scattering_block(d, 0)
    winst = whittaker_schema_instance(d.cartan, d.group)
    expected = winst.A(d.group.identity, 0)[0][0]
    assert block[0][0] == RF(
        expected.num.with_rules(d.rules), tuple(f.with_rules(d.rules) for f in expected.den)
    )


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
    expected = RF.from_poly(P.symbol("z2", rules)) * bracket / c_factor(d, 0)
    assert got == expected


def test_cg_additivity(gl2_n2):
    d = gl2_n2
    f = P.symbol("z1", d.rules)
    g = P.monomial({"z2": 2}, rules=d.rules)
    assert cg_action(d, 0, f + g) == cg_action(d, 0, f) + cg_action(d, 0, g)


def test_representative_independence(gl2_n2):
    for mu in [(1, 0), (0, 1), (1, 1)]:
        assert check_representative_independence(gl2_n2, 0, mu).passed


def test_met_demazure_n1_reduces_to_plain_whittaker():
    d = build_datum("A1", 1)
    cartan = d.cartan
    var = demazure_variant("whittaker", cartan, d.group, modified=False)
    for mu in [(1, 0), (0, 2), (-1, 1)]:
        f = weight_monomial(mu)
        got = met_demazure(d, 0, f)
        expected = apply_demazure(var, 0, weight_monomial(mu))
        assert got == RF(
            expected.num.with_rules(d.rules), tuple(x.with_rules(d.rules) for x in expected.den)
        )


def test_met_demazure_antispherical_n1():
    d = build_datum("A1", 1)
    zrho = weight_monomial(d.cartan.rho)
    assert met_demazure(d, 0, zrho) == RF.from_poly(-zrho)


def test_met_demazure_polynomial_stability(gl2_n2):
    for mu in [(1, 0), (-2, 1), (0, 0)]:
        out = met_demazure_poly(gl2_n2, 0, weight_monomial(mu))
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
        twice = conjugated(once.as_poly())
        assert twice == (vv - 1) * once + vv * RF.from_poly(f)


@pytest.mark.parametrize("n", [3, 4])
def test_conjugated_scattering_satisfies_the_quadratic_relation(n):
    inst = metaplectic_schema_instance(build_datum("A1", n))
    a = {key: Matrix(m.shape, {rc: conjugate_gauss(x) for rc, x in m.entries.items()}) for key, m in inst.a_matrices.items()}
    assert a != inst.a_matrices
    assert check_quadratic(replace(inst, a_matrices=a), 0).passed


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
    inverted = cs.substitute_monomials({f"z{i + 1}": {f"z{i + 1}": -1} for i in range(d.cartan.dim)})
    assert agg == inverted.with_rules(d.rules)


def test_rmatrix_dictionary():
    for (r, n) in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        assert rmatrix_dictionary_check(r, n).passed


def test_rem_identity():
    assert rem_identity_check(3, 4)
    assert rem_identity_check(1, 7)
    assert rem_identity_check(2, -3)
    assert all(rem_identity_check(na, m) for na in (1, 2, 3, 4) for m in range(-8, 9))


@pytest.mark.parametrize("cartan_type, n", [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3)])
def test_met_polynomial_step_matches_rational_step(cartan_type, n):
    d = build_datum(cartan_type, n)
    weights = [(1, 0, 0), (0, 1, -1), (2, -1, 0), (-2, 0, 1)] if cartan_type == "A2" else [(1, 0), (-2, 1), (0, 3)]
    f = P.zero(d.rules)
    for k, mu in enumerate(weights):  # several cosets at once
        f = f + weight_monomial(mu) * (k + 1)
    for i in range(d.cartan.rank):
        assert RF.from_poly(met_demazure_poly(d, i, f)) == met_demazure(d, i, f)


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
    inst = metaplectic_schema_instance(d)
    assert inst.root_scale == tuple(d.n_alpha(i) for i in range(d.cartan.rank))


def test_perturbed_dictionary_names_an_entry_by_coset_index(monkeypatch):
    import heckekit.metaplectic as met

    plain = met.scattering_block
    monkeypatch.setattr(met, "scattering_block", lambda d, i, normalized=True: plain(d, i, normalized, "tau2"))
    check = rmatrix_dictionary_check(2, 2).checks[0]
    assert not check.passed
    assert check.lhs.startswith("entry (") and check.rhs


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
