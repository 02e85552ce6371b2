import pytest
from hypothesis import given, settings, strategies as st

from heckekit.algebra import LaurentPoly, v
from oracles import z_monomial
from parsing import ParseError, parse_poly

P = LaurentPoly


def test_parse_two_term():
    p = parse_poly("1 - u^2*z1*z2^-1")
    assert p == P.one() - v() * z_monomial([1, -1])


def test_parse_monomial_power():
    assert parse_poly("z1^3") == P.monomial({"z1": 3})


def test_parse_rational_coefficient():
    assert parse_poly("3/2*z1 + 2") == P.monomial({"z1": 1}, "3/2") + 2


def test_parse_leading_minus():
    assert parse_poly("-z1 + z2") == -P.symbol("z1") + P.symbol("z2")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("1 + + z1")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_poly("1/0 + x")
    assert err.value.offset == 0


def test_unknown_symbol_rejected():
    with pytest.raises(ParseError):
        parse_poly("z1 + q", symbols={"z1", "z2", "u"})


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
monos = st.dictionaries(st.sampled_from(["z1", "z2", "u"]), st.integers(min_value=-3, max_value=3), max_size=3)


@st.composite
def polys(draw):
    p = P.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        p = p + P.monomial(draw(monos), draw(coeffs))
    return p


@settings(max_examples=200, deadline=None)
@given(polys())
def test_parse_render_roundtrip(p):
    assert parse_poly(p.render()) == p
