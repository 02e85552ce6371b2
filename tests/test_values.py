"""Equality, hashing and frozen attributes of the value classes, and SchemaInstance.replace."""

import pytest

from heckekit.algebra import GaussRules
from heckekit.metaplectic import build_datum, metaplectic_schema_instance
from heckekit.roots import WeylGroup, build_cartan, weyl_group_of
from heckekit.whittaker import DemazureVariant


def test_two_builds_of_one_cartan_type_are_equal_and_hash_equal():
    a, b = build_cartan("A2"), build_cartan("A2")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_cartan("A3") and a != "A2"
    group = WeylGroup(a)
    assert weyl_group_of(a, group) is group and weyl_group_of(b, group) is group


def test_gauss_rules_are_equal_by_modulus():
    assert GaussRules(4) == GaussRules.standard(4) != GaussRules(3)
    assert hash(GaussRules(4)) == hash(GaussRules.standard(4))


def test_weyl_elements_of_two_groups_of_one_type_are_equal_and_hash_equal():
    first, second = WeylGroup(build_cartan("G2")), WeylGroup(build_cartan("G2"))
    for x, y in zip(first, second):
        assert x is not y and x == y and hash(x) == hash(y)
    assert first.identity != first.simple(0) and first.simple(0) != first.simple(1)
    assert {(w, 0): w.name() for w in first}[(second.longest(), 0)] == first.longest().name()


def _frozen_values():
    datum = build_datum("A1", 2)
    cartan = datum.cartan
    return [
        (GaussRules(3), "modulus"),
        (cartan, "rho"),
        (datum.group.identity, "word"),
        (datum.roots[0], "twists"),
        (datum, "n"),
        (DemazureVariant("whittaker", cartan), "group"),
    ]


@pytest.mark.parametrize("index", range(6), ids=["GaussRules", "CartanDatum", "WeylElement", "RootData",
                                                 "MetaplecticDatum", "DemazureVariant"])
def test_a_frozen_value_refuses_assignment_and_deletion(index):
    value, name = _frozen_values()[index]
    kept = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, kept)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is kept


def test_schema_instance_replace_copies_the_fields_and_refuses_the_kept_state():
    inst = metaplectic_schema_instance(build_datum("A1", 2))
    copy = inst.replace(name="copy")
    assert copy.name == "copy" and copy.a_matrices == inst.a_matrices and copy.cartan is inst.cartan
    assert copy.checked_on is None and not copy.generators
    for name in ("checked_on", "generators", "checked"):  # test_transport pins the constructor's refusal of checked_on
        with pytest.raises(ValueError, match=name):
            inst.replace(**{name: None})
    with pytest.raises(TypeError):
        inst.replace(unknown=1)
