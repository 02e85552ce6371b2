"""Instances carried from their identity blocks: A(w, i) against a direct formula at X = (wz)^{power alpha_i}.

The formulas below are written out at X itself, with X computed from the
Weyl action on the simple coroot, so they share nothing with the transport
(group.at_point) that builds the instances.
"""

import pytest

from heckekit.algebra import LaurentPoly, RationalFunction, v
from heckekit.linalg import Matrix
from heckekit.metaplectic import build_datum, metaplectic_schema_instance
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
from heckekit.whittaker import spherical_schema_instance, whittaker_schema_instance

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
