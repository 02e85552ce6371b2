"""Instances carried from their identity blocks: A(w, i) against a direct formula at X = (wz)^{power alpha_i}.

The formulas below are written out at X itself, with X computed from the
Weyl action on the simple coroot, so they share nothing with the transport
(group.at_point) that builds the instances.  The later sections check the
reduction their equivariance allows: a transported instance's relations
are checked on the block column at source e and its composition products
at e only, with the same code that checks a copy (checked_on None) on
whole operators.  The next checks the gauge that gives the generic
instance the same reduction, and the last that a gauged generic instance
is checked on the spherical instance it is gauged to (its checked_on), with
the spherical idempotent proved by its eigenvector certificate.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest

import heckekit.schema
from heckekit.algebra import LaurentPoly, RationalFunction, v
from heckekit.linalg import Matrix, identity_matrix
from heckekit.metaplectic import build_datum, metaplectic_schema_instance
from heckekit.reports import Report
from heckekit.relations import applied, verdict, weyl_sum
from heckekit.rmatrix import (
    TensorOperator,
    gauss_gamma_spec,
    r_affine,
    r_tilde,
    tau_operator,
    tensor_schema_instance,
    untwisted_spec,
)
from heckekit.roots import build_cartan, coroot_monomial
from heckekit.schema import (
    UNGAUGED,
    BlockOperator,
    SchemaInstance,
    block_action,
    build_T,
    check_bernstein,
    check_braid,
    check_composition,
    check_quadratic,
    check_spherical_idempotent,
    checked_as,
    gauge_certified,
    generator,
    generic_instance,
    identity_operator,
    poincare_polynomial,
    scaled_column,
    theta_scalar,
    transported_instance,
    verify_instance,
)
from heckekit.whittaker import spherical_schema_instance, whittaker_schema_instance
from oracles import apply_word

P = LaurentPoly
RF = RationalFunction


def x_at(inst, w, i, power=1):
    """X = (wz)^{power alpha_i} = z^{power w^{-1} alpha_i}."""
    return coroot_monomial(inst.group.inverse(w).act(inst.cartan.simple_coroots[i]), power)


def assert_pinned(inst, formula, matrix_type, power=1):
    assert set(inst.a_matrices) == {(w, i) for w in inst.group for i in range(inst.cartan.rank)}
    for (w, i), a in inst.a_matrices.items():
        expected = formula(x_at(inst, w, i, power), i)
        assert type(a) is matrix_type and a.shape == expected.shape
        assert a.difference(expected) is None, f"A(w={w.name()}, i={i + 1})"


def assert_entries_shared(inst):
    entries = [x for a in inst.a_matrices.values() for x in a.entries.values()]
    assert len({id(x) for x in entries}) == len({(x.num, x.den) for x in entries})


def scalar(x: RF) -> Matrix:
    return Matrix((1, 1), {(0, 0): x})


CARTAN_TYPES = ["A1", "A2", "B2", "C2", "G2"]


@pytest.mark.parametrize("cartan_type", CARTAN_TYPES)
def test_whittaker_instance_is_pinned(cartan_type):
    inst = whittaker_schema_instance(build_cartan(cartan_type))
    # (1 - v X^{-1}) / (1 - X)
    assert_pinned(inst, lambda x, i: scalar(RF(P.one() - v() * x.monomial_inverse(), (P.one() - x,))), Matrix)
    assert_entries_shared(inst)


@pytest.mark.parametrize("cartan_type", CARTAN_TYPES)
def test_spherical_instance_is_pinned(cartan_type):
    inst = spherical_schema_instance(build_cartan(cartan_type))
    # (1 - v X) / (1 - X)
    assert_pinned(inst, lambda x, i: scalar(RF(P.one() - v() * x, (P.one() - x,))), Matrix)
    assert_entries_shared(inst)


def tensor_formula(n, r, twist, power):
    """u/(1 - X) (tau R(X))_{i,i+1}, or (1 - v X)/(1 - X) (tau r_tilde(X))_{i,i+1} for the Gauss twist at power n."""
    spec = gauss_gamma_spec(n) if twist == "gauss" else untwisted_spec(n)

    def formula(x, i):
        if twist == "gauss" and power == n:
            local, prefactor = r_tilde(n, x), RF(P.one() - v() * x, (P.one() - x,))
        else:
            local, prefactor = r_affine(spec, x), RF(P.symbol("u"), (P.one() - x,))
        return prefactor * tau_operator(n).compose(local).embed((i, i + 1), r)

    return formula


@pytest.mark.parametrize(
    "n, r, twist, power",
    [(2, 2, "none", 1), (2, 3, "none", 1), (3, 2, "none", 1), (2, 3, "gauss", 1), (2, 3, "gauss", 2), (3, 3, "gauss", 3)],
)
def test_tensor_instance_is_pinned(n, r, twist, power):
    inst = tensor_schema_instance(n, r, twist, power)
    assert inst.root_scale == (power,) * (r - 1) and inst.block_dim == n ** r
    assert_pinned(inst, tensor_formula(n, r, twist, power), TensorOperator, power)
    assert_entries_shared(inst)


@pytest.mark.parametrize("cartan_type, n", [("A1", 2), ("A2", 2), ("B2", 2)])
def test_metaplectic_entries_are_shared(cartan_type, n):
    assert_entries_shared(metaplectic_schema_instance(build_datum(cartan_type, n)))


# -- the identity-column reduction ----------------------------------------------------

BUILDERS = {"whittaker": whittaker_schema_instance, "spherical": spherical_schema_instance}
REDUCTION_INSTANCES = {
    **{f"{kind}-{t}": (lambda kind=kind, t=t: BUILDERS[kind](build_cartan(t)))
       for kind in ("whittaker", "spherical") for t in ("A2", "B2", "G2")},
    **{f"cover-{t}-n{n}": (lambda t=t, n=n: metaplectic_schema_instance(build_datum(t, n)))
       for t, n in [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3), ("B2", 2)]},
    "tensor-2-2": lambda: tensor_schema_instance(2, 2),
}


def spy_on(monkeypatch, name):
    """The argument tuples of every call of heckekit.schema.<name>, which still runs."""
    calls, real = [], getattr(heckekit.schema, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heckekit.schema, name, spy)
    return calls


def e_column(op: BlockOperator) -> BlockOperator:
    """The blocks of op at source e."""
    return BlockOperator(op.shape, {(t, s): b for (t, s), b in op.blocks.items() if s.length == 0})


@pytest.mark.parametrize("name", REDUCTION_INSTANCES)
def test_every_short_word_acts_on_the_identity_column_as_its_operator_does(name):
    inst = REDUCTION_INSTANCES[name]()
    on, on_column = checked_as(inst)
    assert on is inst and on_column(()) == e_start(inst)
    letters = range(inst.cartan.rank)
    for word in (w for length in (1, 2, 3) for w in iproduct(letters, repeat=length)):
        assert e_column(apply_word(inst, word)).difference(on_column(word)) is None, word


@pytest.mark.parametrize("name", ["whittaker-A2", "cover-A2-n2", "tensor-2-2"])
def test_an_equivariant_instance_from_doubled_blocks_fails_quadratic_on_both_paths(name):
    good = REDUCTION_INSTANCES[name]()
    e = good.group.identity
    blocks = [2 * good.A(e, i) for i in range(good.cartan.rank)]
    bad = transported_instance(good.group, blocks, good.root_scale, "doubled")
    operator_path = bad.perturbed(e, 0, 1)  # the same values in a copy, checked on whole operators
    assert bad.checked_on is bad and operator_path.checked_on is None
    column_failure = check_quadratic(bad, 0).first_failure()
    operator_failure = check_quadratic(operator_path, 0).first_failure()
    assert column_failure is not None and operator_failure is not None
    assert re.match(r"block \(\w+, e\) entry \(\d+,\d+\): ", column_failure.lhs), column_failure.lhs
    assert re.match(r"block \(\w+, \w+\) entry \(\d+,\d+\): ", operator_failure.lhs), operator_failure.lhs


def _replaced(inst):  # an equal matrix in a new object
    key = next(iter(inst.a_matrices))
    a = inst.a_matrices[key]
    return inst.replace(a_matrices={**inst.a_matrices, key: type(a)(a.shape, a.entries)})


def _deleted(inst):
    return inst.replace(a_matrices=dict(list(inst.a_matrices.items())[1:]))


def _added(inst):
    extra = (inst.group.identity, inst.cartan.rank)
    return inst.replace(a_matrices={**inst.a_matrices, extra: inst.A(inst.group.identity, 0)})


@pytest.mark.parametrize("change, operator_path", [
    (lambda inst: inst, False),
    (lambda inst: inst.replace(a_matrices=dict(inst.a_matrices)), True),  # the same objects, a new instance
    (lambda inst: inst.perturbed(inst.group.identity, 0, 1), True),
    (_replaced, True),
    (_deleted, True),
    (_added, True),
], ids=["transported", "copied", "perturbed", "replaced", "deleted", "added"])
def test_only_a_transported_instance_checks_on_its_identity_column(monkeypatch, change, operator_path):
    inst = change(metaplectic_schema_instance(build_datum("A1", 2)))
    calls = spy_on(monkeypatch, "identity_operator")  # the start of a whole-operator check
    check_quadratic(inst, 0)
    assert (inst.checked_on is None) is operator_path and bool(calls) is operator_path


def test_a_matrices_is_read_only_and_a_copy_of_the_mapping_given():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    key = (inst.group.identity, 0)
    with pytest.raises(TypeError):
        inst.a_matrices[key] = 2 * inst.A(*key)
    with pytest.raises(TypeError):
        del inst.a_matrices[key]
    given = dict(inst.a_matrices)
    made = SchemaInstance(inst.cartan, inst.group, inst.block_dim, given, inst.root_scale, "made")
    given[key] = 2 * inst.A(*key)
    del given[(inst.group.simple(0), 0)]
    assert made.a_matrices == inst.a_matrices and made.A(*key) is inst.A(*key)


@pytest.mark.parametrize("builder", ["transported", "generic"])
def test_replace_and_perturbed_copies_start_with_checked_on_none_and_no_kept_generators(builder):
    inst = metaplectic_schema_instance(build_datum("A1", 2)) if builder == "transported" else generic("A2")
    generator(inst, 0)
    on, _ = checked_as(inst)
    assert inst.checked_on is on and on is not None and inst.generators
    for copy in (inst.replace(), inst.perturbed(inst.group.identity, 0, 1)):
        assert copy.checked_on is None and not copy.generators and checked_as(copy)[0] is copy


def test_the_a2_n3_spherical_check_makes_order_w_compositions_of_block_columns(monkeypatch):
    # on the whole operators: 6 compositions, the last of sum_w T_w with itself, 336 block products
    inst = metaplectic_schema_instance(build_datum("A2", 3))
    size = len(inst.group.elements)
    counts = Counter()
    compose = BlockOperator.compose

    def counting(self, other):
        counts["compose"] += 1
        counts["sources"] = max(counts["sources"], len({s for _, s in other.blocks}))
        counts["block products"] += sum(1 for _, r in self.blocks for t, _ in other.blocks if t == r)
        return compose(self, other)

    monkeypatch.setattr(BlockOperator, "compose", counting)
    assert check_spherical_idempotent(inst).passed
    # two sums over W of T_i applied to a column; T_i has two blocks per source
    assert counts["compose"] <= 2 * size and counts["sources"] == 1
    assert counts["block products"] <= 2 * size * counts["compose"]


def test_no_caller_can_supply_checked_on():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    fields = (inst.cartan, inst.group, inst.block_dim, dict(inst.a_matrices), inst.root_scale, "forged")
    with pytest.raises(TypeError):
        SchemaInstance(*fields, checked_on=inst)
    with pytest.raises(ValueError):
        inst.replace(checked_on=inst)
    assert SchemaInstance(*fields).checked_on is None


# -- composition at e, Bernstein on the column, one T_i per instance ------------------


def rendered(report):
    return [(c.name, c.passed, c.lhs, c.rhs) for c in report.checks]


def test_a_transported_cover_forms_its_composition_products_at_e_only(monkeypatch):
    inst = metaplectic_schema_instance(build_datum("A2", 2))
    copy = inst.perturbed(inst.group.identity, 0, 1)  # the same values in a copy, checked on whole operators
    multiplied = spy_on(monkeypatch, "mat_mul")
    on_column = check_composition(inst)
    rank, size = inst.cartan.rank, len(inst.group.elements)
    assert len(multiplied) == rank
    multiplied.clear()
    on_operators = check_composition(copy)
    assert len(multiplied) == size * rank
    assert on_column.passed and len(on_column.checks) == size * rank
    assert [(c.name, c.passed) for c in on_column.checks] == [(c.name, c.passed) for c in on_operators.checks]


def doubled(good):
    """good's identity blocks doubled and transported: checked on its identity column, and wrong."""
    e = good.group.identity
    blocks = [2 * good.A(e, i) for i in range(good.cartan.rank)]
    return transported_instance(good.group, blocks, good.root_scale, "doubled")


@pytest.mark.parametrize("name", ["whittaker-A2", "cover-A2-n2", "tensor-2-2"])
def test_a_doubled_block_instance_reports_composition_and_bernstein_alike_on_both_paths(name):
    bad = doubled(REDUCTION_INSTANCES[name]())
    operator_path = bad.perturbed(bad.group.identity, 0, 1)
    dim = bad.cartan.dim
    lambdas = [(2,) + (0,) * (dim - 1), tuple(range(dim))]  # the second is off the n = 2 root scale

    def reports(inst):
        report = check_composition(inst)
        for lam in lambdas:
            for i in range(inst.cartan.rank):
                check_bernstein(inst, lam, i, report)
        return rendered(report)

    assert bad.checked_on is bad and operator_path.checked_on is None
    on_column = reports(bad)
    assert on_column == reports(operator_path)
    assert not all(passed for check, passed, _, _ in on_column if check.startswith("composition"))


@pytest.mark.parametrize("name", ["cover-A2-n2", "whittaker-A2"])
@pytest.mark.parametrize("bad", [False, True], ids=["built", "doubled"])
def test_the_spherical_and_bernstein_checks_give_one_verdict_on_both_starts(name, bad):
    inst = REDUCTION_INSTANCES[name]()
    inst = doubled(inst) if bad else inst
    whole = inst.replace()  # checked_on None: its checks start from the identity operator
    dim = inst.cartan.dim
    lambdas = [(2,) + (0,) * (dim - 1), tuple(range(dim))]  # the second is off the n = 2 root scale

    def verdicts(inst):
        report = check_spherical_idempotent(inst)
        for lam in lambdas:
            for i in range(inst.cartan.rank):
                check_bernstein(inst, lam, i, report)
        return [(c.name, c.passed) for c in report.checks]

    assert inst.checked_on is inst and whole.checked_on is None
    on_column = verdicts(inst)
    assert on_column == verdicts(whole)
    assert on_column[0] == ("spherical idempotent", not bad)


def test_a_verify_with_bernstein_and_spherical_builds_each_generator_once(monkeypatch):
    datum = build_datum("A2", 2)
    inst = metaplectic_schema_instance(datum)
    built = spy_on(monkeypatch, "build_T")
    assert verify_instance(inst, datum.lattice_basis, spherical=True).passed
    assert sorted(i for _, i in built) == list(range(inst.cartan.rank))
    assert verify_instance(inst, datum.lattice_basis, spherical=True).passed
    assert len(built) == inst.cartan.rank  # kept on the instance
    copy = inst.replace()  # checked on whole operators, and it builds and keeps its own
    assert not copy.generators and verify_instance(copy, datum.lattice_basis).passed
    assert len(built) == 2 * inst.cartan.rank


def test_a_kept_generator_is_not_read_by_an_edited_copy():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    e, s = inst.group.identity, inst.group.simple(0)
    kept = generator(inst, 0)
    assert generator(inst, 0) is kept and inst.generators == {0: kept}
    edited = inst.perturbed(e, 0)
    fresh = generator(edited, 0)
    assert fresh is not kept and fresh[s, e].difference(edited.A(e, 0)) is None
    assert not check_quadratic(edited, 0).passed
    assert generator(inst, 0) is kept and check_quadratic(inst, 0).passed


# -- the generic instance, checked on the spherical instance a diagonal gauge takes it to ----

def generic(cartan_type):
    return generic_instance(build_cartan(cartan_type))


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "C2", "G2", "A3"])
def test_a_generic_instance_is_gauged_and_reports_as_its_copy_on_whole_operators(monkeypatch, cartan_type):
    inst = generic(cartan_type)
    copy = inst.replace(a_matrices=dict(inst.a_matrices))  # the same objects, a new instance
    assert inst.checked_on is UNGAUGED  # nothing is checked while the instance is built
    assert checked_as(inst)[0] is inst.checked_on is not None and copy.checked_on is None
    lambdas = inst.cartan.fundamental_weights()
    whole = spy_on(monkeypatch, "identity_operator")  # the start of a whole-operator check
    on_column = verify_instance(inst, lambdas, spherical=True)  # on the spherical instance it is gauged to
    assert not whole  # every relation on the identity column
    on_operators = verify_instance(copy, lambdas, spherical=True)
    assert whole
    assert on_column.passed and len(on_column.checks) == len(on_operators.checks)
    assert [(c.name, c.passed) for c in on_column.checks] == [(c.name, c.passed) for c in on_operators.checks]
    assert on_column.title == on_operators.title == f"generic ({cartan_type})"
    assert any(c.name.startswith("bernstein") for c in on_column.checks)


def test_a_doubled_generic_entry_offered_to_the_gauge_is_refused_and_fails_as_on_the_operator_path():
    inst = generic("A2")
    for w, i in inst.a_matrices:
        expected = rendered(verify_instance(inst.perturbed(w, i, 2)))
        offered = inst.perturbed(w, i, 2)
        offered.checked_on = UNGAUGED  # gauge-checked on first use, as generic_instance builds
        got = rendered(verify_instance(offered))
        assert offered.checked_on is None, (w.name(), i)
        assert got == expected and not all(passed for _, passed, _, _ in got), (w.name(), i)
    assert verify_instance(inst).passed and inst.checked_on is not None


def _off_tree_edges(group):
    """(w, j) for every descent j of w but the first (a forced entry), and one ascent edge (u, i)."""
    rank = group.cartan.rank
    descents = {w: [j for j in range(rank) if group.is_left_descent(j, w)] for w in group}
    forced = [(w, j) for w in group for j in descents[w][1:]]
    ascent = next((u, i) for u in group for i in range(rank) if i not in descents[u])
    return forced + [ascent]


@pytest.mark.parametrize("cartan_type", ["A2", "A3"])
def test_a_recorded_instance_wrong_on_an_edge_off_the_first_descent_tree_is_refused(cartan_type):
    generic_a = generic_instance(build_cartan(cartan_type))
    group = generic_a.group
    for w, j in _off_tree_edges(group):
        a = dict(generic_a.a_matrices)
        a[(w, j)] = 2 * a[(w, j)]
        if group.is_left_descent(j, w):  # its ascent partner halved: every composition scalar still holds
            partner = (group.left_mul_simple(j, w), j)
            a[partner] = Fraction(1, 2) * a[partner]
        inst = generic_a.replace(a_matrices=a)
        inst.checked_on = UNGAUGED  # gauge-checked on first use, as generic_instance builds
        assert not gauge_certified(inst) and checked_as(inst)[0] is inst and inst.checked_on is None
        assert not verify_instance(inst).passed, (w.name(), j)


@pytest.mark.parametrize("cartan_type, compared", [("A2", 7), ("B2", 9), ("A3", 49)])
def test_gauge_certified_compares_only_the_edges_off_the_first_descent_tree(monkeypatch, cartan_type, compared):
    inst = generic(cartan_type)
    size, rank = len(inst.group.elements), inst.cartan.rank
    assert compared == size * (rank - 1) + 1  # of size * rank edges; the size - 1 tree edges hold as h is built
    calls, eq = [], RF.__eq__
    monkeypatch.setattr(RF, "__eq__", lambda x, y: calls.append(1) or eq(x, y))
    assert gauge_certified(inst) and len(calls) == compared


def test_gauge_certified_refuses_blocks_of_more_than_one_dimension():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    assert inst.checked_on is inst and not gauge_certified(inst)  # transported, and k = 2


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "A3"])
def test_the_spherical_idempotent_holds_on_a_generic_instance(monkeypatch, cartan_type):
    inst = generic(cartan_type)
    whole = spy_on(monkeypatch, "identity_operator")  # the start of sum_w T_w on whole operators
    report = check_spherical_idempotent(inst)
    assert inst.checked_on is not None and report.passed and not whole


def test_a_doubled_generic_entry_fails_the_spherical_idempotent_on_the_operator_path(monkeypatch):
    inst = generic("A2")
    inst = inst.perturbed(inst.group.longest(), 0, 2)
    whole = spy_on(monkeypatch, "identity_operator")
    failure = check_spherical_idempotent(inst).first_failure()
    assert inst.checked_on is None and whole and failure is not None
    assert re.match(r"block \(\w+, \w+\) entry \(0,0\): ", failure.lhs), failure.lhs
    assert not check_braid(inst, 0, 1).passed


# -- a gauged generic instance checked on the spherical instance it is gauged to -------


@pytest.mark.parametrize(
    "cartan_type, spherical", [("A2", True), ("B2", True), ("C2", True), ("G2", True), ("A3", False)]
)
def test_a_doubled_generic_entry_reports_the_checks_of_its_whole_operators(cartan_type, spherical):
    # the doubled A3 copy fails the spherical idempotent in about 6 s, on the identity column;
    # its certificate is compared with the identity there below
    inst = generic(cartan_type)
    lambdas = inst.cartan.fundamental_weights()
    offered = inst.perturbed(inst.group.longest(), 0, 2)
    offered.checked_on = UNGAUGED  # gauge-checked on first use, as generic_instance builds
    expected = verify_instance(offered.perturbed(inst.group.identity, 0, 1), lambdas, spherical=spherical)
    got = verify_instance(offered, lambdas, spherical=spherical)
    assert offered.checked_on is None
    assert rendered(got) == rendered(expected) and not got.passed


def test_the_gauge_and_the_spherical_instance_each_run_once_on_first_use_and_no_copy_keeps_them(monkeypatch):
    gauged = spy_on(monkeypatch, "gauge_certified")
    built = spy_on(monkeypatch, "spherical_instance")
    inst = generic("A2")
    assert inst.checked_on is UNGAUGED and not gauged and not built  # not while the instance is built
    sph, act = checked_as(inst)
    assert checked_as(inst)[0] is sph and len(gauged) == len(built) == 1
    assert inst.checked_on is sph and sph.checked_on is sph and act(()) == e_start(sph)
    assert sph.a_matrices == spherical_schema_instance(inst.cartan, inst.group).a_matrices
    copy = inst.replace()  # the same values in a new instance, checked on whole operators
    assert copy.checked_on is None and checked_as(copy)[0] is copy and len(gauged) == len(built) == 1
    names = ("cartan", "group", "block_dim", "a_matrices", "root_scale", "name")  # checked_on is not compared
    assert [getattr(inst, name) for name in names] == [getattr(copy, name) for name in names]


@pytest.mark.parametrize("cartan_type", ["A2", "G2", "A3"])
def test_no_relation_check_of_a_certified_generic_instance_builds_or_composes_its_generators(monkeypatch, cartan_type):
    inst = generic(cartan_type)
    built = spy_on(monkeypatch, "build_T")
    composed, compose = [], BlockOperator.compose
    monkeypatch.setattr(BlockOperator, "compose", lambda self, other: composed.append(self) or compose(self, other))
    report = verify_instance(inst, inst.cartan.fundamental_weights(), spherical=True)
    sph = inst.checked_on
    assert report.passed and not inst.generators
    assert built and all(args[0] is sph for args in built)
    assert composed and all(any(op is t for t in sph.generators.values()) for op in composed)


def certificate_and_identity(inst, start):
    """(T_i s = v s for every i, sum_w T_w s = P(v) s) for s = sum_w T_w start."""
    group = inst.group
    s = weyl_sum(block_action(inst, start), group)
    on_s = block_action(inst, s)
    certificate = all(on_s((i,)) == v() * s for i in range(inst.cartan.rank))
    return certificate, weyl_sum(on_s, group) == poincare_polynomial(group) * s


def e_start(inst):
    """E = {(e, e): I_k}, wherever inst is checked."""
    e, ident = inst.group.identity, identity_matrix(inst.block_dim)
    return BlockOperator(ident.shape, {(e, e): ident})


CERTIFICATE_INSTANCES = {
    "cover-A2-n2": lambda: metaplectic_schema_instance(build_datum("A2", 2)),
    **{f"generic-{t}": lambda t=t: generic(t) for t in ("A2", "B2", "G2", "A3")},
}


@pytest.mark.parametrize("name", CERTIFICATE_INSTANCES)
def test_the_eigenvector_certificate_has_the_verdict_of_the_spherical_identity(name):
    inst = CERTIFICATE_INSTANCES[name]()
    doubled = inst.perturbed(inst.group.longest(), 0, 2)
    for x in (inst, doubled):  # each on its own entries at the identity column
        certificate, identity = certificate_and_identity(x, e_start(x))
        assert certificate == identity == (x is inst), x.name
    if name in ("cover-A2-n2", "generic-A2", "generic-B2"):  # the copy's own start: the identity operator
        assert certificate_and_identity(doubled, checked_as(doubled)[1](())) == (False, False)
        assert not check_spherical_idempotent(doubled).passed
    assert check_spherical_idempotent(inst).passed


@pytest.mark.parametrize("name", ["generic-A2", "generic-B2", "generic-C2", "cover-A2-n2"])
def test_a_failing_spherical_check_renders_as_its_whole_operator_identity(name):
    # the whole identity: s = sum_w T_w on the identity operator, then sum_w T_w applied to s letter by
    # letter, with generators built afresh; the check reaches its (e, e) block from E alone
    inst = metaplectic_schema_instance(build_datum("A2", 2)) if name.startswith("cover") else generic(name[-2:])
    group = inst.group
    for where in (group.identity, group.simple(0), group.longest()):
        bad = inst.perturbed(where, 0, 2)
        t = [build_T(bad, i) for i in range(bad.cartan.rank)]
        s = weyl_sum(lambda word: apply_word(bad, word), group)
        on_s = applied(lambda i, rest: t[i].compose(rest), s)
        expected = verdict(weyl_sum(on_s, group), poincare_polynomial(group) * s)
        check = check_spherical_idempotent(bad).checks[0]
        assert (check.passed, check.lhs, check.rhs) == expected, where.name()
        assert not check.passed and check.lhs.startswith("block (e, e) "), where.name()


# -- one kept act per instance: every relation check reads it ------------------------


def counted_compositions(monkeypatch):
    """A list that grows by one for every BlockOperator.compose, which still runs."""
    composed, compose = [], BlockOperator.compose
    monkeypatch.setattr(BlockOperator, "compose", lambda self, other: composed.append(1) or compose(self, other))
    return composed


def cover_a2_n2():
    datum = build_datum("A2", 2)
    return metaplectic_schema_instance(datum), list(datum.lattice_basis)


@pytest.mark.parametrize("name, compositions", [("cover-A2-n2", 8), ("generic-A2", 10), ("generic-G2", 16)])
def test_one_verify_composes_each_word_of_the_kept_act_once(monkeypatch, name, compositions):
    # the relation act composes the words of the quadratic and braid checks: 1, 11, 2, 22, 21, 121, 12, 212
    # on A2; Bernstein reads its words (i,), the Weyl sum reads words it holds, and the certificate
    # composes each T_i once with s
    if name.startswith("cover"):
        (inst, lambdas), spherical = cover_a2_n2(), False
    else:
        inst, lambdas, spherical = generic(name[-2:]), [], True
    composed = counted_compositions(monkeypatch)
    assert verify_instance(inst, lambdas, spherical=spherical).passed
    assert len(composed) == compositions


@pytest.mark.parametrize("builder", ["transported", "generic", "copy"])
def test_checked_as_makes_one_act_per_instance_and_returns_it_again(builder):
    inst, _ = cover_a2_n2()
    inst = {"transported": inst, "generic": generic("A2"), "copy": inst.replace()}[builder]
    assert inst.checked is None
    on, act = checked_as(inst)
    again = checked_as(inst)
    assert again[0] is on and again[1] is act and inst.checked is again
    start = e_start(on) if inst.checked_on is not None else identity_operator(inst.group, inst.block_dim)
    assert (on is inst) is (builder != "generic") and act(()) == start


def test_a_copy_starts_without_the_kept_act_and_replace_refuses_it_by_name():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    _, act = checked_as(inst)
    for copy in (inst.replace(), inst.perturbed(inst.group.identity, 0, 1)):
        assert copy.checked is None
        on, copied = checked_as(copy)
        assert on is copy and copied is not act and copied(()) != act(())
    with pytest.raises(ValueError, match=r"^checked cannot be replaced"):
        inst.replace(checked=inst.checked)


@pytest.mark.parametrize("copy", [False, True], ids=["E", "identity"])
def test_bernstein_composes_nothing_once_the_act_holds_t_i_start(monkeypatch, copy):
    inst, lambdas = cover_a2_n2()
    inst = inst.replace() if copy else inst
    _, act = checked_as(inst)
    for i in range(inst.cartan.rank):
        act((i,))
    composed = counted_compositions(monkeypatch)
    report = Report(inst.name)
    for lam in lambdas:
        for i in range(inst.cartan.rank):
            check_bernstein(inst, lam, i, report)
    assert report.passed and not composed


def perturbed_cover_a2_n2():
    inst, lambdas = cover_a2_n2()
    return inst.perturbed(inst.group.simple(0), 1), lambdas


BERNSTEIN_STARTS = {
    "cover-A2-n2 on E": cover_a2_n2,
    "tensor n=2 r=3 on E": lambda: (tensor_schema_instance(2, 3), [(1, 0, 0), (1, 1, 0), (2, -1, 0)]),
    "perturbed cover-A2-n2 on the identity": perturbed_cover_a2_n2,
}


@pytest.mark.parametrize("name", BERNSTEIN_STARTS)
def test_bernstein_scales_t_i_start_to_the_composed_left_side(monkeypatch, name):
    inst, lambdas = BERNSTEIN_STARTS[name]()
    on, act = checked_as(inst)
    start = act(())
    assert (len(start.blocks) == 1) is (on.checked_on is on)
    compared = spy_on(monkeypatch, "verdict")
    for lam in lambdas:
        for i in range(inst.cartan.rank):
            compared.clear()
            assert check_bernstein(inst, lam, i).passed
            (lhs, _), = compared
            slam = on.group.simple(i).act(lam)
            t = generator(on, i)
            composed = scaled_column(theta_scalar(on, lam), t.compose(start)) - t.compose(
                scaled_column(theta_scalar(on, slam), start))
            assert lhs.difference(composed) is None and composed.blocks.keys() == lhs.blocks.keys(), (lam, i)


def test_bernstein_never_reads_a_so_no_perturbed_copy_fails_it():
    # off the diagonal, on block (w, s_i w), (wz)^lam = (s_i w z)^{s_i lam}: the scaling factor is 0
    inst, lambdas = cover_a2_n2()
    gen = generic("A2")
    copies = [(inst.perturbed(w, i), lambdas) for w, i in inst.a_matrices]
    copies.append((gen.perturbed(gen.group.longest(), 0, 2), gen.cartan.fundamental_weights()))
    for copy, weights in copies:
        report = check_composition(copy)
        assert not report.passed and copy.checked_on is None, copy.name  # each copy is wrong
        bernstein = Report(copy.name)
        for lam in weights:
            for i in range(copy.cartan.rank):
                check_bernstein(copy, lam, i, bernstein)
        assert bernstein.passed and len(bernstein.checks) == len(weights) * copy.cartan.rank
