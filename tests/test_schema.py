from fractions import Fraction

import pytest

from heckekit.algebra import LaurentPoly, RationalFunction, rf_equal, v
from heckekit.linalg import Matrix, is_scalar_matrix, mat_mul
from heckekit.metaplectic import build_datum, metaplectic_schema_instance
from heckekit.relations import weyl_sum
from heckekit.reports import Report
from heckekit.rmatrix import tensor_schema_instance
from heckekit.roots import WeylGroup, build_cartan
from heckekit.schema import (
    BlockOperator,
    block_action,
    build_T,
    build_theta,
    check_bernstein,
    check_braid,
    check_composition,
    check_quadratic,
    check_spherical_idempotent,
    d_function,
    generic_instance,
    identity_operator,
    intertwiner_symbol,
    poincare_polynomial,
    verify_instance,
)
from oracles import apply_Tw, chain_identity

P = LaurentPoly


@pytest.fixture(scope="module")
def a2():
    cartan = build_cartan("A2")
    return cartan, generic_instance(cartan)


def test_generic_a1_single_symbol():
    cartan = build_cartan("A1")
    inst = generic_instance(cartan)
    W = inst.group
    s1 = W.simple(0)
    assert inst.A(s1, 0) == ((RationalFunction.from_poly(P.symbol("a1_1")),),)
    assert verify_instance(inst, lambdas=[(1, 0)]).passed


def test_generic_a2_symbols_and_elimination(a2):
    cartan, inst = a2
    W = inst.group
    descents = {(w, i) for w in W for i in range(2) if W.is_left_descent(i, w)}
    assert len(descents) == 6
    # a2_121 = a1_121*a2_21*a1_1/(a1_12*a2_2), as in the top-cell elimination
    w0 = W.longest()
    sym = lambda name: RationalFunction.from_poly(P.symbol(name))
    expected = sym("a1_121") * sym("a2_21") * sym("a1_1") / (sym("a1_12") * sym("a2_2"))
    value = inst.A(w0, 1)[0][0]
    assert rf_equal(value, expected)
    assert intertwiner_symbol(1, w0) == "a2_121"


def free_symbols(inst) -> set[str]:
    return {s for x in inst.a_matrices.values() for f in x.entries.values()
            for p in (f.num, *f.den) for s in p.symbols() if s.startswith("a")}


@pytest.mark.parametrize("cartan_type", ["A1", "A2", "A3", "A4", "B2", "C2", "G2"])
def test_generic_instance_at_every_rank(cartan_type):
    inst = generic_instance(build_cartan(cartan_type))
    W = inst.group
    first_descent = {w: next(i for i in range(W.cartan.rank) if W.is_left_descent(i, w)) for w in W if w != W.identity}
    assert free_symbols(inst) == {intertwiner_symbol(i, w) for w, i in first_descent.items()}
    assert len(free_symbols(inst)) == len(W) - 1
    assert verify_instance(inst).passed


@pytest.mark.parametrize("cartan_type", ["A3", "A4", "B2", "G2"])
def test_generic_chains_agree_on_every_rank_2_coset(cartan_type):
    inst = generic_instance(build_cartan(cartan_type))
    W, rank = inst.group, inst.cartan.rank
    for i in range(rank):
        for j in range(i + 1, rank):
            bottoms = [u for u in W if not (W.is_left_descent(i, u) or W.is_left_descent(j, u))]
            assert len(bottoms) * 2 * inst.cartan.braid_orders[i][j] == len(W)
            for u in bottoms:
                left, right = chain_identity(inst, i, j, u)
                assert rf_equal(left, right), (i, j, u)


def _forced_descents(cartan_type):
    """(w, j) for every descent j of w but the first, the entries generic_instance forces."""
    W = WeylGroup(build_cartan(cartan_type))
    return [pytest.param(w.name(), j, id=f"w={w.name()},j={j + 1}")
            for w in W for j in [j for j in range(W.cartan.rank) if W.is_left_descent(j, w)][1:]]


@pytest.mark.parametrize("w_name, j", _forced_descents("A3"))
def test_a_wrong_forced_descent_fails_only_its_braids(w_name, j):
    # A(w, j) doubled and its ascent partner halved: every composition scalar still holds
    inst = generic_instance(build_cartan("A3"))
    W = inst.group
    w = next(x for x in W if x.name() == w_name)
    broken = inst.perturbed(w, j).perturbed(W.left_mul_simple(j, w), j, Fraction(1, 2))
    assert check_composition(broken).passed
    assert all(check_quadratic(broken, i).passed for i in range(3))
    for i in range(3):
        for k in range(i + 1, 3):
            failure = check_braid(broken, i, k).first_failure()
            assert (failure is not None) == (j in (i, k)), (i, k)
            assert failure is None or failure.lhs.startswith("block (")


def test_generic_a2_relations(a2):
    _, inst = a2
    assert check_composition(inst).passed
    assert check_quadratic(inst, 0).passed
    assert check_quadratic(inst, 1).passed
    assert check_braid(inst, 0, 1).passed


def test_block_sparsity(a2):
    _, inst = a2
    W = inst.group
    t = build_T(inst, 0)
    for (target, source) in t.blocks:
        assert target == source or target == W.left_mul_simple(0, source)


def test_block_operator_defines_only_the_block_sparse_parts():
    own = {name for name in vars(BlockOperator) if not name.startswith("__")}
    assert own == {"block", "block_dim", "blocks", "compose", "difference"} and BlockOperator.__slots__ == ()
    assert issubclass(BlockOperator, Matrix)


def test_block_operator_algebra_returns_block_operators(a2):
    _, inst = a2
    t, one = build_T(inst, 0), identity_operator(inst.group, inst.block_dim)
    two = RationalFunction.const(2)
    for op in (t.compose(one), t + one, t - one, -t, two * t):
        assert isinstance(op, BlockOperator) and op.block_dim == inst.block_dim
    assert (t - t).is_zero() and (t - t).blocks == {}
    assert (-t).block(inst.group.identity, inst.group.identity) == -t.block(inst.group.identity, inst.group.identity)


def test_block_operator_eq_and_equals_agree(a2):
    _, inst = a2
    t, u = build_T(inst, 0), build_T(inst, 1)
    one = identity_operator(inst.group, inst.block_dim)
    pairs = [(t, t.compose(one)), (t, t + u - u), (t, RationalFunction.const(2) * t), (t, u), (t, -t), (t, t - t)]
    verdicts = [(left == right, left.equals(right)) for left, right in pairs]
    assert [a for a, _ in verdicts] == [b for _, b in verdicts] == [True, True, False, False, False, False]


def test_theta_laws(a2):
    cartan, inst = a2
    lam, mu = (1, 0, 0), (0, 2, 1)
    th_lam, th_mu = build_theta(inst, lam), build_theta(inst, mu)
    th_sum = build_theta(inst, tuple(a + b for a, b in zip(lam, mu)))
    assert th_lam.compose(th_mu).equals(th_sum)
    neg = build_theta(inst, tuple(-a for a in lam))
    assert th_lam.compose(neg).equals(identity_operator(inst.group, inst.block_dim))
    assert build_theta(inst, (0, 0, 0)).equals(identity_operator(inst.group, inst.block_dim))


def test_theta_block_values():
    cartan = build_cartan("A1")
    inst = generic_instance(cartan)
    W = inst.group
    th = build_theta(inst, (1, 0))
    assert th.block(W.identity, W.identity)[0][0] == RationalFunction.from_poly(P.symbol("z1"))
    s1 = W.simple(0)
    assert th.block(s1, s1)[0][0] == RationalFunction.from_poly(P.symbol("z2"))


def test_bernstein_zero_weight(a2):
    _, inst = a2
    # lambda = 0: both sides vanish
    assert check_bernstein(inst, (0, 0, 0), 0).passed


def test_bernstein_generic_a2(a2):
    _, inst = a2
    assert check_bernstein(inst, (1, 0, 0), 0).passed
    assert check_bernstein(inst, (1, 0, 0), 1).passed


def test_perturbed_instance_fails_quadratic(a2):
    _, inst = a2
    W = inst.group
    bad = inst.perturbed(W.simple(0), 0, 2)
    rep = check_quadratic(bad, 0)
    assert not rep.passed
    failure = rep.first_failure()
    assert failure is not None and failure.lhs  # localized failing entry


def test_perturbed_braid_fails(a2):
    _, inst = a2
    W = inst.group
    bad = inst.perturbed(W.longest(), 0, 2)
    assert not (check_braid(bad, 0, 1).passed and check_quadratic(bad, 0).passed)


def test_composition_scalar_value(a2):
    _, inst = a2
    W = inst.group
    w, i = W.simple(1), 0
    sw = W.left_mul_simple(i, w)
    product = mat_mul(inst.A(sw, i), inst.A(w, i))
    scalar = is_scalar_matrix(product)
    assert scalar is not None and scalar == inst.composition_scalar(w, i)


def test_d_identity_all_pairs(a2):
    _, inst = a2
    for w in inst.group:
        for i in range(2):
            sw = inst.group.left_mul_simple(i, w)
            d = d_function(inst.x_monomial(w, i)) + d_function(inst.x_monomial(sw, i))
            assert d == RationalFunction.from_poly(v() - 1)


def test_apply_Tw_identity_word(a2):
    _, inst = a2
    assert apply_Tw(inst, inst.group.identity).equals(identity_operator(inst.group, inst.block_dim))


def test_spherical_idempotent_a1():
    inst = generic_instance(build_cartan("A1"))
    total = weyl_sum(block_action(inst, identity_operator(inst.group, inst.block_dim)), inst.group)
    expected = identity_operator(inst.group, inst.block_dim) + build_T(inst, 0)
    assert total.equals(expected)
    assert check_spherical_idempotent(inst).passed


def test_poincare_polynomial_a2(a2):
    _, inst = a2
    p = poincare_polynomial(inst.group)
    expected = P.one() + 2 * v() + 2 * v() ** 2 + v() ** 3
    assert p == expected


def test_missing_entry_fails_the_composition_check():
    inst = generic_instance(build_cartan("A1"))
    a = dict(inst.a_matrices)
    del a[(inst.group.identity, 0)]
    report = verify_instance(inst.replace(a_matrices=a))
    assert report.status == "fail"
    check = next(c for c in report.checks if c.name == "composition scalar (w=e, i=1)")
    assert not check.passed
    assert "missing A entry for (w=e, i=1)" in check.lhs


@pytest.mark.parametrize("cartan_type", ["A1", "A2"])
def test_perturbed_composition_names_an_entry(cartan_type):
    inst = generic_instance(build_cartan(cartan_type))
    w = inst.group.simple(0)
    failure = check_composition(inst.perturbed(w, 0)).first_failure()
    assert failure.name == "composition scalar (w=e, i=1)"  # A(s_1, 1) A(e, 1) meets the doubled entry first
    assert failure.lhs.startswith("entry (0,0): ") and failure.rhs


def test_block_operator_compose_rejects_block_shapes_that_do_not_fit(a2):
    with pytest.raises(ValueError, match=r"^product of shapes \(2, 2\) and \(3, 3\)$"):
        BlockOperator((2, 2), {}).compose(BlockOperator((3, 3), {}))  # no blocks meet: mat_mul never runs
    _, inst = a2  # k = 1
    with pytest.raises(ValueError, match=r"^product of shapes \(1, 1\) and \(2, 2\)$"):
        build_T(inst, 0).compose(BlockOperator((2, 2), {}))


def test_block_operator_reads_blocks_not_rows(a2):
    _, inst = a2
    W = inst.group
    e, s1, s2 = W.identity, W.simple(0), W.simple(1)
    t = build_T(inst, 0)
    assert t[s1, e] is t.block(s1, e) and t[s1, e] == inst.A(e, 0)
    absent = t[e, s2]
    assert (e, s2) not in t.blocks and absent.shape == (1, 1) and absent.is_zero() and absent == t.block(e, s2)
    for read in (lambda: t[0], lambda: t.row(0), lambda: len(t), lambda: iter(t), lambda: list(t)):
        with pytest.raises(TypeError):
            read()
    block = t.block(s1, e)  # a Matrix keeps its rows
    assert len(block) == 1 and block[0] == (block[0, 0],) and list(block) == [block.row(0)]


def relation_sequence(inst, lambdas=(), spherical=False) -> Report:
    """verify_instance's report as a sequence of single checks: composition, each quadratic, each braid, then the rest."""
    rank = inst.cartan.rank
    report = Report(f"{inst.name} ({inst.cartan.cartan_type})")
    check_composition(inst, report)
    for i in range(rank):
        check_quadratic(inst, i, report)
    for i in range(rank):
        for j in range(i + 1, rank):
            check_braid(inst, i, j, report)
    for lam in lambdas:
        for i in range(rank):
            check_bernstein(inst, lam, i, report)
    if spherical:
        check_spherical_idempotent(inst, report)
    return report


def doubled(inst):
    return inst.perturbed(inst.group.longest(), 0, 2)


VERIFIED = {
    "generic-A2": lambda: (generic_instance(build_cartan("A2")), [(1, 0, 0), (1, 1, 0)], True),
    "generic-G2": lambda: (generic_instance(build_cartan("G2")), [], True),
    "cover-A2-n2": lambda: (lambda d: (metaplectic_schema_instance(d), d.lattice_basis, True))(build_datum("A2", 2)),
    "tensor-n2-r3": lambda: (tensor_schema_instance(2, 3, "none", 1), [(1, 0, 0)], False),
    "doubled-generic-A2": lambda: (doubled(generic_instance(build_cartan("A2"))), [(1, 0, 0)], True),
    "doubled-cover-A2-n2": lambda: (lambda d: (doubled(metaplectic_schema_instance(d)), d.lattice_basis, True))(
        build_datum("A2", 2)),
}


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_verify_instance_reports_as_single_checks_do(name):
    inst, lambdas, spherical = VERIFIED[name]()
    twin, _, _ = VERIFIED[name]()
    got = verify_instance(inst, lambdas, spherical=spherical)
    want = relation_sequence(twin, lambdas, spherical)
    assert [(c.name, c.passed, c.lhs, c.rhs) for c in got.checks] == [(c.name, c.passed, c.lhs, c.rhs) for c in want.checks]
    assert got.passed == (not name.startswith("doubled"))
    if name.startswith("doubled"):
        assert inst.checked_on is None and not got.passed


def test_verify_instance_composes_on_one_act(monkeypatch):
    calls = []
    compose = BlockOperator.compose
    monkeypatch.setattr(BlockOperator, "compose", lambda self, other: calls.append(1) or compose(self, other))
    group = WeylGroup(build_cartan("A3"))
    report = verify_instance(generic_instance(group.cartan, group).perturbed(group.longest(), 0, 2))
    assert not report.passed
    assert len(calls) == 16


def test_perturbing_a_missing_entry_names_it():
    inst = generic_instance(build_cartan("A1"))
    e = inst.group.identity
    sparse = inst.replace(a_matrices={key: a for key, a in inst.a_matrices.items() if key != (e, 0)})
    with pytest.raises(KeyError, match=r"missing A entry for \(w=e, i=1\)"):
        sparse.perturbed(e, 0)
    assert verify_instance(inst.perturbed(e, 0, factor=1)).passed
