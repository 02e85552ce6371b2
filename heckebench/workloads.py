"""The benchmark's workloads and their known-answer verdict oracle.

Each workload has a ``setup(rng)`` that builds data and instances (the
part of a run before the first check) and a ``verify(state, oracle)`` that
runs the checks, each with the verdict known in advance: pass for genuine
instances, fail for the seeded negative controls.  The seed picks the
weights and where each perturbation goes; nothing else.

Import this module only after the tracer, if any, is installed: the names
bound below are then the traced entry points.
"""

from __future__ import annotations

import time
from itertools import product

from heckekit import (
    build_cartan,
    build_datum,
    cs_rhs,
    demazure_variant,
    generic_instance,
    idempotent_apply,
    metaplectic_schema_instance,
    r_tilde,
    rmatrix_dictionary_check,
    scattering_block,
    verify_instance,
    weyl_group,
)
from heckekit.algebra import RationalFunction
from heckekit.linalg import is_scalar_matrix, mat_mul
from heckekit.metaplectic import check_met_demazure_relations
from heckekit.reports import Report
from heckekit.rmatrix import check_parametrized_ybe, check_triangularity
from heckekit.schema import check_quadratic
from heckekit.whittaker import check_demazure_relations


class Oracle:
    """Compares every verdict with its known answer; a check that raises is a wrong verdict."""

    def __init__(self):
        self.checks = 0
        self.wrong: list[str] = []
        self.first_check_at: float | None = None
        self.last_verdict_at: float | None = None

    def check(self, label: str, fn, expect: bool = True, localized: bool = False) -> None:
        """Run fn() -> Report or bool and score it against ``expect``.

        A genuine Report (expect=True) scores each of its checks.  A negative
        control (expect=False) is one check; it is right only if the verdict
        is fail and, when ``localized``, the first failure names an entry.
        """
        if self.first_check_at is None:
            self.first_check_at = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising check is scored, not fatal
            self._score(label, False, f"raised {type(exc).__name__}: {exc}")
            return
        if isinstance(result, Report) and expect:
            for c in result.checks:
                self._score(f"{label}: {c.name}", c.passed, "expected pass, got fail")
            return
        if isinstance(result, Report):
            failure = result.first_failure()
            right = failure is not None and (not localized or "entry" in (failure.lhs or ""))
            self._score(label, right, "negative control did not fail with a localized entry")
            return
        self._score(label, bool(result) == expect, f"expected {expect}, got {bool(result)}")

    def _score(self, label: str, right: bool, why: str) -> None:
        self.checks += 1
        if not right:
            self.wrong.append(f"{label}: {why}")
        self.last_verdict_at = time.perf_counter()


def dominant_box(cartan, bound: int):
    return [
        mu for mu in product(range(bound + 1), repeat=cartan.dim)
        if cartan.in_lattice(mu) and cartan.is_dominant(mu)
    ]


def shifted(mu, t: int):
    """mu + t * (1, ..., 1).

    For GL-type and G2 realizations (1, ..., 1) is W-invariant, so the shift
    changes every exponent the program sees but not the work it does.
    """
    return tuple(int(a) + t for a in mu)


def random_weights(rng, cartan, count: int, bound: int):
    out = []
    while len(out) < count:
        mu = tuple(rng.randint(-bound, bound) for _ in range(cartan.dim))
        if cartan.in_lattice(mu):
            out.append(mu)
    return out


def _perturbed_quadratic(rng, inst):
    """A copy of inst with one seeded A entry doubled, and the quadratic check that must catch it."""
    i = rng.randrange(inst.cartan.rank)
    w = rng.choice(inst.group.elements)
    bad = inst.perturbed(w, i, 2)
    return lambda: check_quadratic(bad, i)


def _scattering_control(inst, datum, i: int, which: str):
    """Doubled tau1 or tau2 coefficient: True iff A(s_i, i) A(e, i) still equals the forced scalar."""

    def holds():
        block = scattering_block(datum, i, perturb=which)
        s = datum.group.simple(i)
        at_s = tuple(tuple(datum.group.at_point(s, x) for x in row) for row in block)
        scalar = is_scalar_matrix(mat_mul(at_s, block))
        return scalar is not None and scalar == inst.composition_scalar(datum.group.identity, i)

    return holds


# -- generic_rank2: k = 1, free symbols, no Gauss rules -----------------------------


def generic_setup(rng):
    instances = {}
    for name in ("A2", "B2", "C2", "G2"):
        cartan = build_cartan(name)
        instances[name] = generic_instance(cartan, weyl_group(cartan))
    controls = {name: _perturbed_quadratic(rng, instances[name]) for name in ("A2", "G2")}
    return instances, controls


def generic_verify(state, oracle):
    instances, controls = state
    for name, inst in instances.items():
        oracle.check(f"generic {name}", lambda: verify_instance(inst))
    for name, control in controls.items():
        oracle.check(f"perturbed generic {name} quadratic", control, expect=False, localized=True)


# -- metaplectic_gl3: degree-2 and degree-3 covers of GL_3, k = 8 and 27 ------------


def metaplectic_setup(rng):
    covers = []
    for n in (2, 3):
        datum = build_datum("A2", n)
        covers.append((datum, metaplectic_schema_instance(datum)))
    (d2, i2), (d3, _) = covers
    # the k = 27 Bernstein checks are trimmed to one seeded lattice vector
    lambdas = {2: list(d2.lattice_basis), 3: [rng.choice(d3.lattice_basis)]}
    controls = [("perturbed n=2 quadratic", _perturbed_quadratic(rng, i2), True)]
    for which in ("tau1", "tau2"):
        i = rng.randrange(d2.cartan.rank)
        label = f"scattering n=2 {which} doubled at i={i + 1}"
        controls.append((label, _scattering_control(i2, d2, i, which), False))
    return covers, lambdas, controls


def metaplectic_verify(state, oracle):
    covers, lambdas, controls = state
    for datum, inst in covers:
        oracle.check(f"cover n={datum.n}", lambda: verify_instance(inst, lambdas=lambdas[datum.n]))
    for n in (2, 3):
        oracle.check(f"dictionary GL_3 n={n}", lambda: rmatrix_dictionary_check(3, n))
    rules = covers[1][0].rules

    def build(x):
        return r_tilde(3, x.with_rules(rules), rules)

    oracle.check("r_tilde n=3 parametrized YBE", lambda: check_parametrized_ybe(build))
    oracle.check("r_tilde n=3 triangularity", lambda: check_triangularity(build, RationalFunction.one(rules)))
    for label, control, localized in controls:
        oracle.check(label, control, expect=False, localized=localized)


# -- demazure_cs: operators on Laurent polynomials, no block matrices --------------

# Fixed G2 weights; the seed moves them by a W-invariant shift (see shifted).
G2_WEIGHTS = ((2, -3, 1),)
# Every third point of the box [-2, 2]^3 (42 weights), as in acceptance criterion 8.
MET_BOX = list(product(range(-2, 3), repeat=3))[::3]


def demazure_setup(rng):
    cartans = {name: build_cartan(name) for name in ("A2", "B2", "C2", "G2")}
    groups = {name: weyl_group(c) for name, c in cartans.items()}
    variants = {
        (name, kind): demazure_variant(kind, cartans[name], groups[name])
        for name in cartans for kind in ("whittaker", "lusztig")
    }
    t = rng.randint(-3, 3)
    cs_weights = {name: dominant_box(cartans[name], 2) for name in ("A2", "B2", "C2")}
    cs_weights["A2"] = [shifted(mu, t) for mu in cs_weights["A2"]]
    relation_weights = {name: random_weights(rng, cartans[name], 4, 2) for name in ("A2", "B2", "C2")}
    relation_weights["G2"] = [shifted(mu, t) for mu in G2_WEIGHTS]
    met = [(build_datum("A2", n), [shifted(mu, 6 * t) for mu in MET_BOX]) for n in (2, 3)]
    control_weight = rng.choice(cs_weights["A2"])
    return variants, cs_weights, relation_weights, met, control_weight


def demazure_verify(state, oracle):
    variants, cs_weights, relation_weights, met, control_weight = state
    def cs_holds(var, lam):
        return idempotent_apply(var, lam) == cs_rhs(var.cartan, var.group, lam)

    for name, weights in cs_weights.items():
        for lam in weights:
            oracle.check(f"CS {name} {lam}", lambda: cs_holds(variants[(name, "whittaker")], lam))
    oracle.check(
        f"Lusztig idempotent vs CS A2 {control_weight}",
        lambda: cs_holds(variants[("A2", "lusztig")], control_weight),
        expect=False,
    )
    for name, weights in relation_weights.items():
        for kind in ("whittaker", "lusztig"):
            oracle.check(f"Demazure {kind} {name}", lambda: check_demazure_relations(variants[(name, kind)], weights))
    for datum, weights in met:
        oracle.check(f"metaplectic Demazure n={datum.n}", lambda: check_met_demazure_relations(datum, weights))


# -- smoke: a few seconds over every layer; used by the benchmark's own test -------


def smoke_setup(rng):
    a2 = build_cartan("A2")
    group = weyl_group(a2)
    inst = generic_instance(a2, group)
    datum = build_datum("A1", 2)
    cover = metaplectic_schema_instance(datum)
    variant = demazure_variant("whittaker", a2, group)
    return inst, _perturbed_quadratic(rng, inst), datum, cover, variant, random_weights(rng, a2, 1, 1)


def smoke_verify(state, oracle):
    inst, control, datum, cover, variant, weights = state
    oracle.check("generic A2", lambda: verify_instance(inst))
    oracle.check("perturbed generic A2 quadratic", control, expect=False, localized=True)
    oracle.check("cover A1 n=2", lambda: verify_instance(cover, lambdas=datum.lattice_basis))
    lam = (1, 0, 0)
    oracle.check(f"CS A2 {lam}", lambda: idempotent_apply(variant, lam) == cs_rhs(variant.cartan, variant.group, lam))
    oracle.check("Demazure whittaker A2", lambda: check_demazure_relations(variant, weights))
    oracle.check("metaplectic Demazure A1 n=2", lambda: check_met_demazure_relations(datum, [(1, 0)]))
    rules = datum.rules
    build = lambda x: r_tilde(2, x.with_rules(rules), rules)  # noqa: E731
    oracle.check("r_tilde n=2 triangularity", lambda: check_triangularity(build, RationalFunction.one(rules)))
    oracle.check("dictionary GL_2 n=2", lambda: rmatrix_dictionary_check(2, 2))


WORKLOADS = {
    "generic_rank2": (generic_setup, generic_verify),
    "metaplectic_gl3": (metaplectic_setup, metaplectic_verify),
    "demazure_cs": (demazure_setup, demazure_verify),
    "smoke": (smoke_setup, smoke_verify),
}
