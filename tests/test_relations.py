from collections import Counter
from functools import reduce

import pytest

import heckekit.metaplectic
import heckekit.roots
import heckekit.whittaker
from heckekit.algebra import LaurentPoly, v
from heckekit.metaplectic import build_datum, check_met_demazure_relations, metaplectic_schema_instance
from heckekit.relations import applied, first_failing, hecke_relations, monomial_relations, verdict, weyl_sum
from heckekit.reports import Report
from heckekit.roots import build_cartan, weight_monomial, weyl_group
from heckekit.schema import BlockOperator, build_T, check_braid, checked_as, generic_instance
from heckekit.whittaker import check_demazure_relations, demazure_variant, idempotent_apply, idempotent_element

P = LaurentPoly


def test_toy_scalar_generators_fail_only_the_braid():
    # T_1 = v and T_2 = -1 each satisfy the quadratic relation, but v(-1)v != (-1)v(-1)
    generators = [v(), P.const(-1)]
    act = applied(lambda i, f: generators[i] * f, P.one())
    report = hecke_relations(Report("toy A2"), act, build_cartan("A2").braid_orders)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("quadratic T_1", True),
        ("quadratic T_2", True),
        ("braid T_1 T_2 (order 3)", False),
    ]
    failure = report.first_failure()
    assert failure.lhs == (-(v() ** 2)).render() and failure.rhs == v().render()


@pytest.mark.parametrize("kind", ["whittaker", "lusztig"])
@pytest.mark.parametrize("modified", [True, False], ids=["modified", "plain"])
@pytest.mark.parametrize("cartan_type", ["A2", "B2"])
def test_idempotent_apply_matches_twisted_group_ring(cartan_type, kind, modified):
    cartan = build_cartan(cartan_type)
    var = demazure_variant(kind, cartan, weyl_group(cartan), modified)
    element = idempotent_element(var)
    for lam in [(0,) * cartan.dim, *cartan.fundamental_weights()]:
        assert idempotent_apply(var, lam) == element.act_on(weight_monomial(lam)).as_poly()


def test_first_failing_returns_the_first_failure_and_computes_no_later_member():
    computed = []

    def family():
        for k, passed in enumerate([True, False, False, True]):
            computed.append(k)
            yield (True, None, None) if passed else (False, f"lhs{k}", f"rhs{k}")

    assert first_failing(family()) == (False, "lhs1", "rhs1")
    assert computed == [0, 1]
    assert first_failing([]) == (True, None, None)
    assert first_failing([(True, None, None)] * 3) == (True, None, None)


def test_weyl_sum_reads_each_element_once_along_its_word():
    group = weyl_group(build_cartan("B2"))
    words = []

    def act(word):
        words.append(word)
        return v() ** len(word)

    assert weyl_sum(act, group) == 1 + 2 * v() + 2 * v() ** 2 + 2 * v() ** 3 + v() ** 4  # the B2 Poincare polynomial
    assert words == [w.word for w in group]


def test_demazure_checks_go_through_the_polynomial_steps(monkeypatch):
    # the benchmark tracer wraps the step names; each step is one divided_difference, which reflects
    # the packed monomials itself, so neither act_fn nor the Chinta-Gunnells sum cg_scaled is reached
    calls = Counter()
    for owner, name in [(heckekit.whittaker, "apply_demazure"), (heckekit.metaplectic, "met_demazure"),
                        (heckekit.metaplectic, "cg_scaled"), (heckekit.whittaker, "divided_difference"),
                        (heckekit.metaplectic, "divided_difference"), (heckekit.roots.WeylGroup, "act_fn")]:
        def counting(*args, _step=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(owner, name, counting)
    cartan = build_cartan("A2")
    var = demazure_variant("whittaker", cartan, weyl_group(cartan))
    runs = [
        (lambda: idempotent_apply(var, (1, 0, 0)), {"apply_demazure", "divided_difference"}),
        (lambda: check_demazure_relations(var, [(1, 0, 0)]), {"apply_demazure", "divided_difference"}),
        (lambda: check_met_demazure_relations(build_datum("A1", 2), [(1, 0)]), {"met_demazure", "divided_difference"}),
    ]
    for run, steps in runs:
        calls.clear()
        run()
        assert set(calls) == steps and all(calls.values())
        assert calls["divided_difference"] == sum(calls[step] for step in ("apply_demazure", "met_demazure"))


@pytest.mark.parametrize("probe, weights", [
    (lambda weights: check_met_demazure_relations(build_datum("A1", 2), weights), [(1, 0), (0.5, 0)]),
    (lambda weights: check_demazure_relations(demazure_variant("whittaker", build_cartan("A2")), weights),
     [(1, 0, 0), (0, 0.5, 0)]),
], ids=["met-demazure-A1", "demazure-A2"])
def test_a_weight_off_the_lattice_fails_each_of_its_checks(probe, weights):
    # z^mu used to be made outside any check, so the suite raised after the checks of the earlier weights
    on, off = weights
    report = probe(weights)
    lattice = [c for c in report.checks if str(on) in c.name]
    failed = [c for c in report.checks if str(off) in c.name]
    assert lattice and all(c.passed for c in lattice)
    assert [c.name.replace(str(off), str(on)) for c in failed] == [c.name for c in lattice]
    assert all(not c.passed and c.lhs.startswith("ValueError: non-integral exponent 0.5") for c in failed)


def test_monomial_relations_makes_one_act_per_weight():
    made = Counter()

    def act_on(f):
        made[f.render()] += 1
        return applied(lambda i, g: v() * g, f)

    weights = [(1, 0, 0), (0, 1, 0)]
    report = monomial_relations(Report("scalar A2"), act_on, weights, build_cartan("A2").braid_orders)
    assert len(report.checks) == 6 and made == Counter({weight_monomial(mu).render(): 1 for mu in weights})


BRAID_INSTANCES = {
    "generic-A2": lambda: generic_instance(build_cartan("A2")),
    "generic-B2": lambda: generic_instance(build_cartan("B2")),
    "generic-G2": lambda: generic_instance(build_cartan("G2")),
    "cover-A2-n2": lambda: metaplectic_schema_instance(build_datum("A2", 2)),
}


def _alternating(m):
    return tuple(t % 2 for t in range(m)), tuple(1 - t % 2 for t in range(m))


def _left_associated(inst, word):
    """T_word as the product (((T_w0 T_w1) T_w2) ...), each generator built afresh."""
    return reduce(lambda out, i: out.compose(build_T(inst, i)), word[1:], build_T(inst, word[0]))


@pytest.mark.parametrize("name", BRAID_INSTANCES)
def test_a_braid_of_order_m_makes_2m_compositions(monkeypatch, name):
    inst = BRAID_INSTANCES[name]()
    m = inst.cartan.braid_orders[0][1]
    composed = Counter()
    compose = BlockOperator.compose

    def counting(self, other):
        composed["compose"] += 1
        return compose(self, other)

    monkeypatch.setattr(BlockOperator, "compose", counting)
    on, _ = checked_as(inst)
    if on.checked_on is on:  # each word applied to the identity column, one letter a step
        assert check_braid(inst, 0, 1).passed
        assert composed["compose"] == 2 * m
        composed.clear()
        inst = inst.perturbed(inst.group.identity, 0, 1)  # the same values in a copy, checked on whole operators
    assert check_braid(inst, 0, 1).passed
    assert composed["compose"] == 2 * m  # each word applied to the identity operator, one letter a step


@pytest.mark.parametrize("name", BRAID_INSTANCES)
def test_a_perturbed_braid_fails_at_the_entry_the_left_associated_words_name(name):
    inst = BRAID_INSTANCES[name]()
    left, right = _alternating(inst.cartan.braid_orders[0][1])
    group = inst.group
    # every A(w, i) doubled in turn; on G2 (0.7 s a check) only at e and the longest element
    where = group.elements if name != "generic-G2" else [group.identity, group.longest()]
    failed = 0
    for w in where:
        for i in range(inst.cartan.rank):
            bad = inst.perturbed(w, i, 2)
            expected = verdict(_left_associated(bad, left), _left_associated(bad, right))
            got = check_braid(bad, 0, 1).checks[0]
            assert got.passed == expected[0], (w.name(), i)
            if not got.passed:
                failed += 1
                assert got.lhs.split(":")[0] == expected[1].split(":")[0], (w.name(), i)  # block (t, s) entry (r,c)
    assert failed
