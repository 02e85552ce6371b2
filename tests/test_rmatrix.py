import re

import pytest

from heckekit.algebra import GaussRules, LaurentPoly, RationalFunction, v
from heckekit.linalg import Matrix, first_difference, identity_matrix, mat_inverse
from heckekit.rmatrix import (
    check_content_preservation,
    check_finite_hecke,
    check_hecke,
    check_parametrized_ybe,
    check_star_word_identity,
    check_triangularity,
    check_wreath_intertwining,
    check_wreath_star,
    check_ybe,
    doubler_scalar,
    free_gamma_spec,
    gauss_gamma_spec,
    jimbo_t_matrix,
    limit_instance,
    r_affine,
    r_gl,
    r_tilde,
    RMatrixSpec,
    star_matrix,
    TensorOperator,
    tau_operator,
    tensor_base,
    tensor_block,
    tensor_schema_instance,
    untwisted_spec,
    wreath_operator,
)
from heckekit.roots import build_cartan, coroot_monomial, WeylGroup
from heckekit.schema import BlockOperator, check_bernstein, transported_instance, verify_instance
from oracles import r_affine_linear

P = LaurentPoly
RF = RationalFunction


def test_r_gl_n2_explicit():
    r = r_gl(untwisted_spec(2))
    u = P.symbol("u")
    uinv = P.monomial({"u": -1})
    expected = [
        [u, 0, 0, 0],
        [0, 1, 0, 0],
        [0, u - uinv, 1, 0],
        [0, 0, 0, u],
    ]
    for i, row in enumerate(expected):
        for j, e in enumerate(row):
            want = RF.from_poly(P.const(e) if isinstance(e, int) else e)
            assert r[i][j] == want


def test_r_gl_n1():
    assert r_gl(untwisted_spec(1))[0][0] == RF.from_poly(P.symbol("u"))


def test_r_gl_twisted_entry():
    spec = free_gamma_spec(2)
    assert r_gl(spec)[1][1] == RF.from_poly(P.monomial({"gam12": -1}))


def test_r_affine_n1_and_diagonal():
    x = P.symbol("x")
    u = P.symbol("u")
    uinv = P.monomial({"u": -1})
    assert r_affine(untwisted_spec(1), x)[0][0] == RF.from_poly(u - x * uinv)
    r = r_affine(free_gamma_spec(2), x)
    assert r[0][0] == RF.from_poly(u - x * uinv)


def test_r_affine_zero_equals_r_gl():
    for spec in (untwisted_spec(2), free_gamma_spec(2), free_gamma_spec(3), gauss_gamma_spec(3)):
        assert r_affine(spec, P.zero()).equals(r_gl(spec))


def test_r_affine_matches_linear_form():
    x = P.symbol("x")
    for n in (2, 3):
        assert r_affine_linear(untwisted_spec(n), x).equals(r_affine(untwisted_spec(n), x))


def test_r_tilde_entries():
    rules = GaussRules.standard(2)
    x = P.symbol("x", rules)
    r = r_tilde(2, x, rules)
    one = P.one(rules)
    den = one - v(rules) * x
    assert r[1][1] == RF(P.symbol("g1", rules) * (one - x), (den,))
    assert r[0][0] == RF(x - v(rules), (den,))
    assert r[0][0] == r[3][3]


def test_r_tilde_n1():
    rules = GaussRules.standard(1)
    x = P.symbol("x", rules)
    r = r_tilde(1, x, rules)
    assert r[0][0] == RF(x - v(rules), (P.one(rules) - v(rules) * x,))


def test_r_tilde_decides_its_own_modulus():
    x = P.symbol("x")
    assert r_tilde(3, x, GaussRules.standard(3)).equals(r_tilde(3, x))
    with pytest.raises(ValueError):
        r_tilde(3, x, GaussRules.standard(2))


def test_constant_ybe():
    for n in (2, 3):
        assert check_ybe(r_gl(untwisted_spec(n))).passed


def test_parametrized_ybe_untwisted_and_twisted():
    for n in (2, 3):
        assert check_parametrized_ybe(lambda x, n=n: r_affine(untwisted_spec(n), x)).passed
        assert check_parametrized_ybe(lambda x, n=n: r_affine(free_gamma_spec(n), x)).passed


def test_parametrized_ybe_gauss():
    for n in (2, 3):
        rules = GaussRules.standard(n)
        assert check_parametrized_ybe(lambda x, n=n, rules=rules: r_tilde(n, x.with_rules(rules), rules)).passed


def test_hecke_relations():
    assert check_hecke(untwisted_spec(2)).passed
    assert check_hecke(untwisted_spec(3)).passed
    assert check_hecke(free_gamma_spec(2)).passed  # gamma_12 gamma_21 = 1 imposed


def test_hecke_fails_without_pairing():
    # gamma_12 and gamma_21 independent symbols: gamma_12 gamma_21 = 1 does not hold
    gamma = lambda a, b: RF.one() if a == b else RF.from_poly(P.symbol(f"gam{a + 1}{b + 1}"))
    assert not check_hecke(RMatrixSpec(tuple(tuple(gamma(a, b) for b in range(2)) for a in range(2)))).passed


def test_triangularity_scalars():
    assert check_triangularity(lambda x: r_affine(untwisted_spec(2), x), doubler_scalar()).passed
    assert check_triangularity(lambda x: r_affine(free_gamma_spec(2), x), doubler_scalar()).passed
    for n in (2, 3):
        rules = GaussRules.standard(n)
        assert check_triangularity(
            lambda x, n=n, rules=rules: r_tilde(n, x.with_rules(rules), rules), RF.one(rules)
        ).passed


def test_triangularity_fails_with_perturbed_gamma():
    spec = free_gamma_spec(2).perturbed(0, 1, 2)
    assert not check_triangularity(lambda x: r_affine(spec, x), doubler_scalar()).passed


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (0, 2), (2, 0), (-1, 0)],
                         ids=["diagonal-0", "diagonal-1", "column-out", "row-out", "negative"])
def test_perturbing_a_diagonal_or_out_of_range_twist_is_refused(a, b):
    # r_affine never reads the diagonal, so perturbing it would build a negative control that passes
    message = rf"^gamma\[{a}\]\[{b}\] is not an off-diagonal entry of the 2 x 2 twist table$"
    with pytest.raises(ValueError, match=message):
        free_gamma_spec(2).perturbed(a, b, 2)


def test_tensor_operators_stay_tensor_operators():
    x = P.symbol("x")
    r, tau = r_affine(untwisted_spec(2), x), tau_operator(2)
    u = RF.from_poly(P.symbol("u"))
    results = [tau.compose(r), r + tau, r - tau, u * r, mat_inverse(tau), r.compose(identity_matrix(4))]
    assert all(type(op) is TensorOperator for op in results)
    scaled = (u * r).embed((1, 2), 3)
    assert type(scaled) is TensorOperator and len(scaled) == 8
    assert scaled.equals(u * r.embed((1, 2), 3))
    assert not hasattr(scaled, "__dict__")  # no fields beside the Matrix slots


def test_tensor_operator_defines_only_compose_and_embed():
    own = {name for name in vars(TensorOperator) if not name.startswith("__")}
    assert own == {"compose", "embed"} and TensorOperator.__slots__ == ()


def test_tensor_base():
    cases = ((1, 2), (4, 2), (27, 3), (64, 3), (1024, 5))
    assert [tensor_base(size, arity) for size, arity in cases] == [1, 2, 3, 4, 4]
    for size, arity in ((8, 2), (9, 3), (63, 3)):
        with pytest.raises(ValueError, match="not an exact power"):
            tensor_base(size, arity)


@pytest.mark.parametrize("twist, power, message", [
    ("other", 1, "twist must be 'none' or 'gauss'"),
    ("none", 3, "power must be 1 or n"),
], ids=["twist", "power"])
def test_tensor_block_rejects_unknown_twist_and_power(twist, power, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tensor_block(2, 2, twist, power)


def test_size_that_is_no_tensor_power_raises():
    with pytest.raises(ValueError):
        TensorOperator((8, 8), {}).embed((0, 1), 3)
    inst = tensor_schema_instance(2, 2, "none", 1)
    odd = inst.replace(block_dim=5, a_matrices={key: Matrix((5, 5), {}) for key in inst.a_matrices})
    failure = check_content_preservation(odd).first_failure()
    assert failure is not None and failure.lhs.startswith("ValueError: size 5 is not an exact power")


def test_tau_is_involution():
    tau = tau_operator(3)
    assert tau.compose(tau).equals(
        tau.compose(tau).compose(tau).compose(tau)
    )
    r = r_gl(untwisted_spec(3))
    assert first_difference(tau.compose(tau), r.compose(mat_inverse(r))) is None


def test_tensor_schema_instances():
    inst = tensor_schema_instance(2, 2, "none", 1)
    assert verify_instance(inst, lambdas=[(1, 0), (0, 1)]).passed
    assert check_content_preservation(inst).passed
    inst23 = tensor_schema_instance(2, 3, "none", 1)
    assert verify_instance(inst23).passed
    inst32 = tensor_schema_instance(3, 2, "none", 1)
    assert verify_instance(inst32, lambdas=[(1, 0)]).passed


def test_tensor_schema_gauss_power():
    inst = tensor_schema_instance(2, 2, "gauss", 2)
    assert verify_instance(inst, lambdas=[(2, 0), (0, 2)]).passed
    assert check_content_preservation(inst).passed
    # entries depend on z only through z^{n alpha}: x-monomials are squares
    w = inst.group.identity
    mono = inst.x_monomial(w, 0)
    (exps, _), = mono.terms.items()
    assert all(e % 2 == 0 for _, e in exps)


def test_tensor_schema_gauss_power_one():
    inst = tensor_schema_instance(2, 2, "gauss", 1)
    assert verify_instance(inst, lambdas=[(1, 0)]).passed


def test_bernstein_tensor_instance():
    inst = tensor_schema_instance(2, 2, "none", 1)
    for i in range(1):
        for lam in [(1, 0), (0, 1)]:
            assert check_bernstein(inst, lam, i).passed


def test_xi_multiplier_preserves_relations():
    # any xi with xi(x) xi(1/x) = 1 may scale the A entries; xi(x) = -x here
    cartan = build_cartan("A1")
    xi = RF.from_poly(-coroot_monomial(cartan.simple_coroots[0]))
    inst = transported_instance(WeylGroup(cartan), [xi * block for block in tensor_block(2, 2)], (1,), "tensor xi")
    assert verify_instance(inst, lambdas=[(1, 0)]).passed
    plain = tensor_schema_instance(2, 2, "none", 1)
    w = inst.group.identity
    assert first_difference(inst.A(w, 0), plain.A(w, 0)) is not None


def test_limit_equals_wreath():
    for (n, r) in [(2, 2), (2, 3)]:
        space, ops = limit_instance(n, r)
        assert check_finite_hecke(space, ops).passed
        for i in range(r - 1):
            wo = wreath_operator(space, jimbo_t_matrix(n, r, i), i)
            assert ops[i].equals(wo)


def test_limit_diagonal_blocks():
    group, ops = limit_instance(2, 2)
    op = ops[0]
    e, s = group.identity, group.simple(0)
    # ascent block carries v - 1 on the diagonal, descent block has no diagonal
    diag = op.blocks.get((e, e))
    assert diag is not None and diag[0][0] == RF.from_poly(v() - 1)
    assert (s, s) not in op.blocks


def test_trivial_module_wreath():
    cartan = build_cartan("A1")
    group = WeylGroup(cartan)
    t = Matrix((1, 1), {(0, 0): RF.from_poly(v())})
    op = wreath_operator(group, t, 0)
    assert check_finite_hecke(group, [op]).passed


def test_wreath_delta_and_star():
    space, ops = limit_instance(2, 2)
    t = jimbo_t_matrix(2, 2, 0)
    assert check_wreath_intertwining(space, ops[0], t).passed
    assert check_wreath_star(space, ops[0], t).passed
    assert check_star_word_identity(space, [t]).passed


def test_perturbed_wreath_star_names_a_block_entry():
    space, ops = limit_instance(2, 2)
    t, op = jimbo_t_matrix(2, 2, 0), ops[0]
    key = (space.simple(0), space.identity)
    bad = BlockOperator(op.shape, {**op.blocks, key: RF.const(2) * op.blocks[key]})
    check = check_wreath_star(space, bad, t).checks[0]
    assert not check.passed
    assert check.lhs.startswith("v-eigenline block (1, e) entry (") and check.rhs


def test_wreath_s3():
    space, ops = limit_instance(2, 3)
    ts = [jimbo_t_matrix(2, 3, i) for i in range(2)]
    assert check_star_word_identity(space, ts).passed
    for i in range(2):
        assert check_wreath_intertwining(space, ops[i], ts[i]).passed
        assert check_wreath_star(space, ops[i], ts[i]).passed


def test_a_doubled_wreath_block_fails_finite_hecke_at_a_block_entry():
    space, ops = limit_instance(2, 3)
    assert check_finite_hecke(space, ops).passed
    key = (space.simple(0), space.identity)
    bad = BlockOperator(ops[0].shape, {**ops[0].blocks, key: RF.const(2) * ops[0].blocks[key]})
    failure = check_finite_hecke(space, [bad, ops[1]]).first_failure()
    assert failure is not None and failure.name == "quadratic T_1"
    assert re.match(r"block \([^,]+, [^)]+\) entry \(\d+,\d+\)", failure.lhs), failure.lhs


def test_a_doubled_entry_fails_the_star_word_identity_at_a_named_w():
    space, _ = limit_instance(2, 3)
    ts = [jimbo_t_matrix(2, 3, i) for i in range(2)]
    assert check_star_word_identity(space, ts).passed
    key, x = next(iter(ts[0].entries.items()))
    bad = Matrix(ts[0].shape, {**ts[0].entries, key: RF.const(2) * x})
    check = check_star_word_identity(space, [bad, ts[1]]).checks[0]
    assert not check.passed and check.lhs.startswith("w="), check.lhs


def test_hecke_inverse_agrees_with_gaussian_inverse():
    # the wreath's ascent block: v T^-1 = T - (v - 1) = -T*
    t = jimbo_t_matrix(2, 2, 0)
    assert first_difference(-star_matrix(t), v() * mat_inverse(t)) is None


def test_triangularity_failure_names_an_entry():
    check = check_triangularity(lambda x: r_tilde(2, x), RF.const(2)).checks[0]
    assert not check.passed
    assert check.lhs.startswith("entry (0,0): ") and check.rhs == "2"


def test_tensor_operator_keeps_its_rows():
    t = tau_operator(2)
    assert len(t) == 4 and t[1] == tuple(t[1, c] for c in range(4)) and list(t)[2] == t.row(2)


def test_spec_reads_n_from_its_table_and_rejects_a_table_that_is_not_square():
    from heckekit.rmatrix import RMatrixSpec

    assert untwisted_spec(3).n == 3 and gauss_gamma_spec(2).n == 2
    assert untwisted_spec(3).perturbed(0, 1).n == 3
    rows_of_two = untwisted_spec(2).gamma + (untwisted_spec(2).gamma[0],)  # three rows of length 2
    with pytest.raises(ValueError, match="not n x n"):
        RMatrixSpec(rows_of_two)
    with pytest.raises(ValueError, match="not n x n"):
        RMatrixSpec((untwisted_spec(3).gamma[0], untwisted_spec(3).gamma[1][:2], untwisted_spec(3).gamma[2]))
