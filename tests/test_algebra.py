from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckekit.algebra import (
    _LANE_MASK,
    _WIDTH,
    GaussRules,
    LaurentPoly,
    NotDivisible,
    PoleError,
    RationalFunction,
    _divide_binomial,
    _divide_general,
    _gauss_lanes,
    _lanes,
    exact_divide,
    gauss_symbol,
    rf_equal,
    u,
    v,
)
from heckekit.parsing import parse_poly
from heckekit.relations import verdict
from oracles import conjugate_gauss, z_monomial

P = LaurentPoly


def sym(name):
    return P.symbol(name)


# -- random polynomial strategy ------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
names = st.sampled_from(["x", "y", "u"])
monomials = st.dictionaries(names, st.integers(min_value=-3, max_value=3), max_size=3)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = P.zero()
    for _ in range(n_terms):
        p = p + P.monomial(draw(monomials), draw(coeffs))
    return p


# -- basic arithmetic -----------------------------------------------------------


def test_inverse_monomial_product():
    z1 = sym("z1")
    assert z1 * z1.monomial_inverse() == P.one()


def test_mul_identity():
    p = P.one() - v() * sym("z1")
    assert p * P.one() == p


def test_gauss_pair_rewrite_n3():
    rules = GaussRules.standard(3)
    g1, g2 = gauss_symbol(1, rules), gauss_symbol(2, rules)
    assert g1 * g2 == v(rules)


def test_gauss_zero_value_and_self_pair():
    rules = GaussRules.standard(2)
    assert gauss_symbol(0, rules) == -v(rules)
    g1 = gauss_symbol(1, rules)
    assert g1 * g1 == v(rules)
    assert g1 * g1 * g1 == v(rules) * g1


def test_gauss_index_reduces_mod_n():
    rules = GaussRules.standard(3)
    assert gauss_symbol(4, rules) == gauss_symbol(1, rules)
    assert gauss_symbol(-1, rules) == gauss_symbol(2, rules)


def test_gauss_negative_exponents_reduce():
    # g1 * g3 = u^2 is a unit: g1 is a free Laurent variable and g3 = u^2 g1^-1
    rules = GaussRules.standard(4)
    g1, g3 = gauss_symbol(1, rules), gauss_symbol(3, rules)
    assert g1 * g3 ** -1 == g1 ** 2 * u(rules) ** -2
    assert g3.terms == {(("g1", -1), ("u", 2)): 1}
    assert g3.monomial_inverse().terms == {(("g1", 1), ("u", -2)): 1}
    assert (g1 ** -2 * g3 ** -1).terms == {(("g1", -1), ("u", -2)): 1}
    a = parse_poly("-4*g1^2*u^-4 + g3^-1 - 1 + g3*u^-2*x^2", rules=rules)
    b = parse_poly("1/2*u^-2*x^-1 + 1", rules=rules)
    assert exact_divide(a * b, b) == a


def test_conjugate_gauss_involution():
    rules = GaussRules.standard(3)
    p = gauss_symbol(1, rules) + 2 * gauss_symbol(2, rules)
    assert conjugate_gauss(conjugate_gauss(p)) == p
    assert conjugate_gauss(p) == gauss_symbol(2, rules) + 2 * gauss_symbol(1, rules)


@settings(max_examples=250, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_substitute_respects_multiplication(a, b):
    swap = {"x": {"y": 1}, "y": {"x": 1}}
    assert (a * b).substitute_monomials(swap) == a.substitute_monomials(swap) * b.substitute_monomials(swap)


def test_substitute_simple_reflection_a1():
    # A1 ambient swap z1 <-> z2 on 1 - u^2 z1 z2^{-1}
    p = P.one() - v() * z_monomial([1, -1])
    swapped = p.substitute_monomials({"z1": {"z2": 1}, "z2": {"z1": 1}})
    assert swapped == P.one() - v() * z_monomial([-1, 1])
    assert sym("z1").substitute_monomials({"z1": {"z2": 1}, "z2": {"z1": 1}}) == sym("z2")


def test_identity_substitution():
    p = P.one() - v() * z_monomial([1, -1])
    assert p.substitute_monomials({}) == p


# -- division --------------------------------------------------------------------


def test_exact_divide_basic():
    x = sym("x")
    assert exact_divide(P.one() - x * x, P.one() - x) == P.one() + x


def test_exact_divide_not_divisible():
    x = sym("x")
    with pytest.raises(NotDivisible):
        exact_divide(P.one() - x ** 3, P.one() - x * x)


def test_exact_divide_laurent_shift():
    x = sym("x")
    p = x.monomial_inverse() - x
    q = P.one() - x
    # (x^{-1} - x) = x^{-1}(1-x)(1+x)
    assert exact_divide(p, q) == x.monomial_inverse() + P.one()


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_divide_roundtrip(p, q):
    if q.is_zero():
        return
    assert exact_divide(p * q, q) == p


def test_gauss_rewrite_idempotent():
    rules = GaussRules.standard(4)
    p = gauss_symbol(1, rules) * gauss_symbol(3, rules) * gauss_symbol(2, rules)
    assert LaurentPoly(p.terms, rules) == p


# -- rational functions -----------------------------------------------------------


def test_rf_equal_cancel():
    x = sym("x")
    a = RationalFunction(P.one() - x * x, (P.one() - x,))
    b = RationalFunction(P.one() + x)
    assert rf_equal(a, b)
    assert RationalFunction(x) == RationalFunction(x * x, (x,))


def test_rf_monomial_denominators_fold():
    x = sym("x")
    f = RationalFunction(P.one(), (x,))
    assert not f.den
    assert f.num == x.monomial_inverse()


def test_rf_arithmetic():
    x = sym("x")
    f = RationalFunction(P.one(), (P.one() - x,))
    g = RationalFunction(P.one(), (P.one() + x,))
    s = f + g
    assert s == RationalFunction(P.const(2), (P.one() - x * x,))
    assert f * g == RationalFunction(P.one(), (P.one() - x * x,))
    assert (f / g) == RationalFunction(P.one() + x, (P.one() - x,))


def test_d_identity_a1():
    # D(z) + D(s z) = v - 1 with D(z) = (1-v)x/(1-x), x = z1/z2
    x = z_monomial([1, -1])
    d = RationalFunction((P.one() - v()) * x, (P.one() - x,))
    ds = d.substitute_monomials({"z1": {"z2": 1}, "z2": {"z1": 1}})
    assert d + ds == RationalFunction(v() - 1)


def test_eval_rational():
    x, vv = sym("x"), sym("v")
    f = RationalFunction(P.one() - vv * x, (P.one() - x,))
    assert f.eval({"x": Fraction(2), "v": Fraction(1, 2)}) == 0


def test_eval_rational_pole():
    x = sym("x")
    f = RationalFunction(P.one() - x * x, (P.one() - x,))
    with pytest.raises(PoleError):
        f.eval({"x": Fraction(1)})


def test_eval_d_identity_point():
    # D_1(z) + D_1(s_1 z) at z1=3, z2=5, v=1/7 equals v - 1 = -6/7.
    x = z_monomial([1, -1])
    vv = sym("v")
    d = RationalFunction((P.one() - vv) * x, (P.one() - x,))
    ds = d.substitute_monomials({"z1": {"z2": 1}, "z2": {"z1": 1}})
    total = d + ds
    point = {"z1": Fraction(3), "z2": Fraction(5), "v": Fraction(1, 7)}
    assert total.eval(point) == Fraction(-6, 7)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_rf_equal_is_equivalence(a, b, c):
    den = P.one() + sym("x") ** 2
    fa = RationalFunction(a, (den,))
    fb = RationalFunction(a * den, (den, den))
    fc = RationalFunction(b, (den,))
    assert rf_equal(fa, fa)
    assert rf_equal(fa, fb) and rf_equal(fb, fa)
    if rf_equal(fa, fc):
        assert rf_equal(fc, fa)


def test_rule_free_operand_merges_rules_in_sum_and_equality():
    rules = GaussRules.standard(3)
    g1g2 = sym("g1") * sym("g2")  # no rules: g1*g2 stays a monomial
    u2 = u(rules) ** 2
    one_minus_x = P.one() - sym("x")
    pairs = [
        (RationalFunction(g1g2), RationalFunction(u2)),
        (RationalFunction(g1g2, (one_minus_x,)), RationalFunction(u2, (one_minus_x.with_rules(rules),))),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert rf_equal(a, b) and rf_equal(b, a)
        assert (a - b).is_zero() and (b - a).is_zero()
        assert (a + (-b)).is_zero() and ((-b) + a).is_zero()


def test_equality_brings_a_rule_free_operand_under_the_rules():
    three = GaussRules.standard(3)
    g1g2, u2 = sym("g1") * sym("g2"), u(three) ** 2  # g1*g2 stays a monomial without rules
    assert g1g2 == u2 and u2 == g1g2
    assert verdict(g1g2, u2) == (True, None, None) == verdict(u2, g1g2)
    assert not verdict(g1g2, u2 + 1)[0]
    assert sym("g1") != gauss_symbol(1, GaussRules.standard(2)) * sym("x")


def test_equality_across_moduli_compares_gauss_free_terms():
    two, three = GaussRules.standard(2), GaussRules.standard(3)
    assert P.symbol("z1", two) == P.symbol("z1", three)
    assert P.symbol("z1", two) != P.symbol("z2", three)
    x = sym("x")
    assert RationalFunction(P.one(two), (P.one(two) - x,)) == RationalFunction(P.one(three), (P.one(three) - x,))
    with pytest.raises(ValueError, match="different moduli"):
        P.symbol("g1", two) == P.symbol("g1", three)


def test_rf_equal_answers_identity_without_a_product(monkeypatch):
    import heckekit.algebra as algebra

    x = sym("x")
    a = RationalFunction(P.one() - x * x, (P.one() + x * x, P.one() - x))
    monkeypatch.setattr(algebra, "_times", lambda *args: pytest.fail("cross multiplied"))
    assert rf_equal(a, a) and a == a


def test_gauss_rules_are_one_modulus():
    from dataclasses import fields

    assert [f.name for f in fields(GaussRules) if f.init] == ["modulus"]
    assert GaussRules.standard(4) is GaussRules.standard(4) == GaussRules(4)
    assert GaussRules.standard(3) != GaussRules.standard(4)
    with pytest.raises(ValueError):
        gauss_symbol(1, GaussRules.standard(3)) + gauss_symbol(1, GaussRules.standard(4))


def test_gauss_divisors_divide_exactly():
    three, two = GaussRules.standard(3), GaussRules.standard(2)
    x = sym("x")
    g1, g2 = gauss_symbol(1, three), gauss_symbol(2, three)
    assert exact_divide((x + g1) * (x + g2), x + g1) == x + g2  # raised NotDivisible before
    h = gauss_symbol(1, two)
    assert exact_divide((x + h) ** 2, x + h) == x + h  # raised NotDivisible before
    with pytest.raises(NotDivisible):
        exact_divide(x * x + g1, x + g2)
    for zero_divisor in (h + u(two), 3 * h - 3 * u(two), (h - u(two)) * (x + 1)):
        with pytest.raises(ZeroDivisionError):
            exact_divide(P.zero(two), zero_divisor)


def test_zero_divisor_denominator_raises_under_even_n():
    rules = GaussRules.standard(4)
    g, uu, one = gauss_symbol(2, rules), u(rules), P.one(rules)
    assert ((g - uu) * (g + uu)).is_zero()  # g2^2 = u^2: the ring is no domain
    with pytest.raises(ZeroDivisionError):
        RationalFunction(5 * (g - uu), [g - uu]) == RationalFunction(g + uu, [g + uu])  # was True: "5 == 1"
    for f in (g - uu, g + uu, 3 * uu - 3 * g, (g + uu) * sym("x") + (g + uu) * gauss_symbol(1, rules)):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(one, (f,))
    two = GaussRules.standard(2)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(P.one(two), (gauss_symbol(1, two) + u(two),))
    # not zero divisors: these still build and invert
    for f in (g - 2 * uu, g + gauss_symbol(1, rules), one - g * sym("x")):
        inverse = RationalFunction(one, (f,))
        assert inverse * RationalFunction(f) == RationalFunction.one(rules)
    three = GaussRules.standard(3)  # odd n: a domain, and g1 - u is no zero divisor
    assert RationalFunction(P.one(three), (gauss_symbol(1, three) - u(three),)).den


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]), polys(), polys(), st.data())
def test_product_without_rewrite_keeps_the_normal_form(n, a, b, data):
    rules = GaussRules.standard(n)
    gauss = P.monomial(data.draw(st.dictionaries(st.sampled_from(["g1", "g2", "g3"]),
                                                 st.integers(min_value=-2, max_value=2), max_size=2)))
    a = (a + gauss).with_rules(rules)  # Gauss symbols under the rules
    b = b if data.draw(st.booleans()) else b.with_rules(rules)  # Gauss-free, with or without rules
    rewritten = (a.with_rules(None) * b.with_rules(None)).with_rules(rules)
    assert dict((a * b).terms.items()) == dict(rewritten.terms.items())
    assert dict((b * a).terms.items()) == dict(rewritten.terms.items())
    for p in (a, b, a * b):  # the cached Gauss lanes are those of the symbols, one by one
        lanes = {s for s in ("g1", "g2", "g3") if s in _lanes and _gauss_lanes(p) >> (_WIDTH * _lanes[s]) & _LANE_MASK}
        assert lanes == {s for s in p.symbols() if s.startswith("g")}


# -- normal form of denominator factors -------------------------------------------


def _stored(f):
    return RationalFunction(P.one(f.rules), (f,)).den


@pytest.mark.parametrize("n", [None, 2, 3, 4])
def test_associate_factors_are_stored_as_one(n):
    rules = GaussRules.standard(n) if n else None
    one = P.one(rules)
    x, y, uu, g1 = (P.symbol(s, rules) for s in ("x", "y", "u", "g1"))
    gauss = one - uu * uu * g1 * x
    units = [
        P.monomial({"g1": -1, "x": -1}, -1, rules),
        P.monomial({"u": 3, "g1": 2}, Fraction(1, 2), rules),
        P.monomial({"x": 2, "g2": 1}, 5, rules),
    ]
    families = [
        [one - x, x - one, one - x.monomial_inverse(), 2 - 2 * x],
        [x - y, y - x, one - y * x.monomial_inverse(), 3 * x * y - 3 * y * y],  # lead decided past the degree
        [gauss] + [gauss * w for w in units],
    ]
    for family in families:
        stored = {_stored(f) for f in family}
        assert len(stored) == 1 and len(next(iter(stored))) == 1
        for f in family:
            assert RationalFunction(f) * RationalFunction(one, (f,)) == RationalFunction.one(rules)
    inverse = RationalFunction(one, (one - x,))
    assert (inverse + RationalFunction(one, (x - one,))).is_zero()
    assert len((inverse + RationalFunction(x, (one - x.monomial_inverse(),))).den) == 1
    assert _stored(one - x) == (one - x.monomial_inverse(),)
    assert _stored(x * 7) == ()


def test_associates_by_a_unit_carrying_the_half_gauss_sum_are_stored_as_one():
    rules = GaussRules.standard(2)
    one = P.one(rules)
    x, uu, g1 = (P.symbol(s, rules) for s in ("x", "u", "g1"))
    f = g1 + x
    total = RationalFunction(one, (f,)) + RationalFunction(one, (g1 * f,))
    assert len(total.den) == 1  # kept 1 + g1*u^-2*x and 1 + g1*x^-1
    assert total == RationalFunction(one + g1.monomial_inverse(), (f,))
    unit = (one + x + (x - one) * uu.monomial_inverse() * g1) * Fraction(1, 2)  # halves x and 1
    assert _stored(unit) == () and _stored(unit * f) == _stored(f)
    inverse = RationalFunction(one, (unit,))
    assert inverse.num * unit == one


def _raw_eval(num, den, point):
    value = num.eval(point)
    for f in den:
        value /= f.eval(point)
    return value


def _raw_equal(a, b):
    """Cross multiplication of the factors as given, with no normal form."""
    (na, da), (nb, db) = a, b
    left, right = na, nb
    for f in db:
        left = left * f
    for f in da:
        right = right * f
    return left == right


nonzero_polys = polys().filter(lambda p: not p.is_zero())
unit_monomials = st.builds(
    lambda exps, c: P.monomial(exps, c),
    monomials,
    st.sampled_from([1, -1, 2, -2, Fraction(1, 3)]),
)
points = st.fixed_dictionaries(
    {s: st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool) for s in ("x", "y", "u")}
)


@settings(max_examples=80, deadline=None)
@given(polys(), st.lists(nonzero_polys, max_size=3), st.data())
def test_normal_form_keeps_value_and_verdicts(num, den, data):
    a = (num, den)
    # an equal value with associate factors, or an unrelated one
    if data.draw(st.booleans()):
        w = data.draw(unit_monomials)
        k = data.draw(st.integers(min_value=0, max_value=len(den)))
        if k < len(den):
            b = (num * w, [f * w if j == k else f for j, f in enumerate(den)])
        else:
            b = (num * w, den + [w])
    else:
        b = (data.draw(polys()), data.draw(st.lists(nonzero_polys, max_size=2)))
    ra, rb = RationalFunction(*a), RationalFunction(*b)
    assert rf_equal(ra, rb) == _raw_equal(a, b) == rf_equal(rb, ra)
    point = data.draw(points)
    if all(f.eval(point) for f in a[1] + b[1]):
        va, vb = _raw_eval(*a, point), _raw_eval(*b, point)
        assert ra.eval(point) == va
        assert (ra + rb).eval(point) == va + vb
        assert (ra * rb).eval(point) == va * vb


def test_g2_generic_braid_expression_size():
    from heckekit.relations import products
    from heckekit.roots import build_cartan
    from heckekit.schema import build_T, generic_instance

    inst = generic_instance(build_cartan("G2"))
    for i in (0, 1):  # the W-orbit of alpha_i holds 6 roots, 3 pairs +-beta of associate factors
        generator = build_T(inst, i)
        assert len({f for m in generator.blocks.values() for x in m.entries.values() for f in x.den}) <= 3
    act = products(lambda i: build_T(inst, i))
    for word in ((0, 1) * 3, (1, 0) * 3):
        entries = [x for m in act(word).blocks.values() for x in m.entries.values()]
        assert len({f for x in entries for f in x.den}) <= 6  # one per positive root of G2
        assert max(len(x.den) for x in entries) <= 14
        assert max(len(x.num.terms) for x in entries) <= 683


# -- rendering -------------------------------------------------------------------


def test_render_canonical():
    p = P.one() - v() * z_monomial([1, -1])
    assert p.render() == "1 - u^2*z1*z2^-1"
    assert P.zero().render() == "0"
    assert (-sym("x")).render() == "-x"


# -- packed representation against the original one ----------------------------
#
# The reference keeps monomials as name-sorted (name, exp) tuples with Fraction
# coefficients, and brings Gauss symbols under GaussRules.standard(n) into the
# Laurent normal form one term at a time: g_a free for 0 < a < n/2,
# g_{n-a} -> u^2 g_a^-1, g_0 -> -u^2, and g_{n/2}^2 -> u^2 for even n.
# LaurentPoly must agree with it term for term, whatever lanes its packed
# monomials use.

REF_NAMES = ["x", "y", "u", "g0", "g1", "g2", "g3"]


def _ref_mono(exps):
    return tuple(sorted((s, e) for s, e in exps.items() if e))


def _ref_gauss(mono, n):
    plain, gexp = {}, {}
    for s, e in mono:
        if s.startswith("g") and s[1:].isdigit():
            a = int(s[1:]) % n
            gexp[a] = gexp.get(a, 0) + e
        else:
            plain[s] = e
    sign, u_exp = 1, 0
    for a, e in gexp.items():
        if a == 0:
            sign, u_exp = (-1) ** (e % 2), u_exp + 2 * e
        elif 2 * a > n:
            u_exp += 2 * e
            plain[f"g{n - a}"] = plain.get(f"g{n - a}", 0) - e
        else:
            plain[f"g{a}"] = plain.get(f"g{a}", 0) + e
    if n % 2 == 0:
        half = f"g{n // 2}"
        pairs, plain[half] = divmod(plain.get(half, 0), 2)
        u_exp += 2 * pairs
    plain["u"] = plain.get("u", 0) + u_exp
    return _ref_mono(plain), sign


def ref_poly(terms, n=None):
    out = {}
    for mono, coeff in terms.items():
        sign = 1
        if n is not None:
            mono, sign = _ref_gauss(mono, n)
        out[mono] = out.get(mono, Fraction(0)) + sign * Fraction(coeff)
    return {m: c for m, c in out.items() if c}


def ref_add(a, b, n=None):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_poly(out, n)


def _ref_mono_mul(m1, m2):
    exps = dict(m1)
    for s, e in m2:
        exps[s] = exps.get(s, 0) + e
    return _ref_mono(exps)


def ref_mul(a, b, n=None):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_poly(out, n)


def _ref_order(names):
    index = {s: i for i, s in enumerate(names)}

    def key(mono):
        vec = [0] * len(names)
        for s, e in mono:
            vec[index[s]] = e
        return (sum(vec), vec)

    return key


def ref_render(p):
    if not p:
        return "0"
    key = _ref_order(sorted({s for m in p for s, _ in m}))
    parts = []
    for mono, coeff in sorted(p.items(), key=lambda kv: key(kv[0])):
        factors = [s if e == 1 else f"{s}^{e}" for s, e in mono]
        mag = abs(coeff)
        body = str(mag) if not factors else "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
        parts.append(("-" if coeff < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _ref_at_half(p, n, sign):
    """p at g_{n/2} = sign * u, for even n."""
    half, out = f"g{n // 2}", {}
    for mono, c in p.items():
        exps = dict(mono)
        if exps.pop(half, 0):
            exps["u"] = exps.get("u", 0) + 1
            c = sign * c
        out[_ref_mono(exps)] = out.get(_ref_mono(exps), Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_carries_half(q, n):
    return n is not None and n % 2 == 0 and any(s == f"g{n // 2}" for m in q for s, _ in m)


def ref_divide(p, q, n=None):
    """The quotient by leading-term division, or the name of the exception it raises.

    Under even n a divisor carrying g_h = g_{n/2} is divided at g_h = u and
    at g_h = -u, and the quotient is r = (r+ + r-)/2 + (r+ - r-)/(2u) g_h.
    """
    if _ref_carries_half(q, n):
        halves = [(_ref_at_half(p, n, s), _ref_at_half(q, n, s)) for s in (1, -1)]
        if not all(qs for _, qs in halves):
            return "ZeroDivisionError"
        r_plus, r_minus = (ref_divide(ps, qs, n) for ps, qs in halves)
        if isinstance(r_plus, str) or isinstance(r_minus, str):
            return r_plus if isinstance(r_plus, str) else r_minus
        monos = r_plus.keys() | r_minus.keys()
        even = {m: (r_plus.get(m, 0) + r_minus.get(m, 0)) / 2 for m in monos}
        odd = {m: (r_plus.get(m, 0) - r_minus.get(m, 0)) / 2 for m in monos}
        g_over_u = ref_poly({_ref_mono({f"g{n // 2}": 1, "u": -1}): 1}, n)
        return ref_add(ref_poly(even, n), ref_mul(ref_poly(odd, n), g_over_u, n), n)

    def content(f):
        names = {s for m in f for s, _ in m}
        return {s: min(dict(m).get(s, 0) for m in f) for s in names}

    def shift(f, exps):
        return ref_mul(f, ref_poly({_ref_mono(exps): 1}, n), n) if _ref_mono(exps) else f

    if not p:
        return {}
    cp, cq = content(p), content(q)
    phat = shift(p, {s: -e for s, e in cp.items()})
    qhat = shift(q, {s: -e for s, e in cq.items()})
    order = _ref_order(sorted({s for f in (phat, qhat) for m in f for s, _ in m}))
    lq = max(qhat, key=order)
    quotient, rem = {}, phat
    try:
        while rem:
            lm = max(rem, key=order)
            t = dict(lm)
            for s, e in lq:
                t[s] = t.get(s, 0) - e
            if any(e < 0 for e in t.values()):
                return "NotDivisible"
            term = {_ref_mono(t): rem[lm] / qhat[lq]}
            quotient = ref_add(quotient, term)
            rem = ref_add(rem, ref_mul(ref_poly({m: -c for m, c in term.items()}, n), qhat, n), n)
    except KeyError:
        return "KeyError"
    shift_exps = dict(cp)
    for s, e in cq.items():
        shift_exps[s] = shift_exps.get(s, 0) - e
    return shift(ref_poly(quotient, n), shift_exps)


def divide_outcome(p, q):
    try:
        return dict(exact_divide(p, q).terms.items())
    except (NotDivisible, KeyError, ZeroDivisionError) as exc:
        return type(exc).__name__


raw_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(REF_NAMES), st.integers(min_value=-3, max_value=3), max_size=3).map(_ref_mono),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, 2, 3, 4]), raw_polys, raw_polys)
def test_packed_ring_matches_reference(n, raw_a, raw_b):
    rules = GaussRules.standard(n) if n is not None else None
    a, b = LaurentPoly(raw_a, rules), LaurentPoly(raw_b, rules)
    ra, rb = ref_poly(raw_a, n), ref_poly(raw_b, n)
    assert dict(a.terms.items()) == ra
    assert a.render() == ref_render(ra)
    assert dict((a + b).terms.items()) == ref_add(ra, rb, n)
    product = a * b
    assert dict(product.terms.items()) == ref_mul(ra, rb, n)
    assert product.render() == ref_render(ref_mul(ra, rb, n))
    assert all(type(c) is int or c.denominator != 1 for c in product.terms.values())
    if rb:
        outcome = divide_outcome(product, b)
        assert outcome == ref_divide(ref_mul(ra, rb, n), rb, n)
        zero_divisor = _ref_carries_half(rb, n) and not all(_ref_at_half(rb, n, s) for s in (1, -1))
        assert outcome == ("ZeroDivisionError" if zero_divisor else ra)  # division is complete


def test_exponent_outside_lane_range_raises():
    from heckekit.algebra import _LIMIT

    x, y = sym("x"), sym("y")
    top = P.monomial({"x": _LIMIT - 1})
    bottom = P.monomial({"x": -_LIMIT})
    assert (top * y).terms == {(("x", _LIMIT - 1), ("y", 1)): 1}
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        bottom * x.monomial_inverse()
    with pytest.raises(OverflowError):
        bottom.monomial_inverse()
    with pytest.raises(OverflowError):
        x ** _LIMIT
    with pytest.raises(OverflowError):
        P.monomial({"x": _LIMIT})
    with pytest.raises(OverflowError):
        P({(("y", 1), ("x", -_LIMIT - 1)): 1})


SYMBOL_ORDER_SCRIPT = """
import json, sys
from heckekit.algebra import GaussRules, LaurentPoly as P, NotDivisible, exact_divide
from heckekit.parsing import parse_poly

names = sys.argv[1:]
for name in names:
    P.symbol(name)
p = parse_poly("3/2*x*y^-1 - z + 2*u^2*x^3 - 7")
q = parse_poly("x - y*z^-2")
out = [(p * q).render(), exact_divide(p * q, q).render(), exact_divide(p * q * p, p * q).render()]
try:
    exact_divide(p, q)
except NotDivisible as exc:
    out.append(str(exc))
rules = GaussRules.standard(3)
g = parse_poly("g1*x + g2*y^-1 + u", rules=rules)
out.append((g * g * g).render())
out.append(sorted(map(repr, (p * q).terms.items())))
print(json.dumps(out))
"""


def test_results_do_not_depend_on_lane_order():
    import json
    import os
    import subprocess
    import sys

    import heckekit

    src = os.path.dirname(os.path.dirname(os.path.abspath(heckekit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    order = ["x", "y", "z", "u", "g1", "g2"]
    outputs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", SYMBOL_ORDER_SCRIPT, *names],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
        for names in (order, order[::-1])
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 6


# -- binomial division --------------------------------------------------------------
#
# exact_divide sends a Gauss-free two-term divisor to _divide_binomial and
# every other divisor to _divide_general.  Both must return the same quotient,
# or both raise NotDivisible, on every input either path accepts.

nonzero_coeffs = coeffs.filter(bool)
divisor_monos = st.dictionaries(st.sampled_from(["x", "y", "u"]), st.integers(min_value=-3, max_value=3),
                                max_size=3).map(_ref_mono)
raw_monos = st.dictionaries(st.sampled_from(REF_NAMES), st.integers(min_value=-3, max_value=3),
                            max_size=3).map(_ref_mono)


@st.composite
def binomial_cases(draw, moduli=(None, 2, 3, 4)):
    """(p, q, rules, divisible): q a Gauss-free binomial, p = b q or b q + m for a single term m."""
    n = draw(st.sampled_from(moduli))
    rules = GaussRules.standard(n) if n is not None else None
    a, b = draw(st.lists(divisor_monos, min_size=2, max_size=2, unique=True))
    q = LaurentPoly({a: draw(nonzero_coeffs), b: draw(nonzero_coeffs)}, rules)
    p = LaurentPoly(draw(raw_polys), rules) * q
    divisible = draw(st.booleans())
    if not divisible:
        # a binomial is no unit, so the single term m is not a multiple of q, and neither is b q + m
        p = p + LaurentPoly({draw(raw_monos): draw(nonzero_coeffs)}, rules)
    return p, q, rules, divisible


def _division(divide, p, q, rules):
    try:
        r = divide(p, q, rules)
    except NotDivisible:
        return "NotDivisible"
    assert r * q == p
    return dict(r.terms.items())


@settings(max_examples=300, deadline=None)
@given(binomial_cases())
def test_binomial_division_matches_general_path(case):
    p, q, rules, divisible = case
    outcome = _division(_divide_binomial, p, q, rules)
    assert outcome == _division(_divide_general, p, q, rules)
    assert (outcome != "NotDivisible") == divisible
    assert _division(lambda p, q, rules: exact_divide(p, q), p, q, rules) == outcome


@st.composite
def gauss_division_cases(draw):
    """(rules, a, b) under standard(n), n in 2..6: Gauss symbols of every index (one past n too),
    negative exponents, Fraction coefficients, two-term and longer divisors; under even n,
    b is sometimes a multiple of g_{n/2} -+ u, a zero divisor."""
    n = draw(st.integers(min_value=2, max_value=6))
    rules = GaussRules.standard(n)
    names = st.sampled_from(["x", "u"] + [f"g{a}" for a in range(n + 1)])
    monos = st.dictionaries(names, st.integers(min_value=-2, max_value=2), max_size=3).map(_ref_mono)

    def poly(min_size, max_size):
        terms = st.dictionaries(monos, nonzero_coeffs, min_size=min_size, max_size=max_size)
        return terms.map(lambda t: LaurentPoly(t, rules))

    a = draw(poly(0, 4))
    b = draw(st.one_of(poly(2, 2), poly(3, 5)))
    if n % 2 == 0 and draw(st.integers(min_value=0, max_value=3)) == 0:
        b = b * (gauss_symbol(n // 2, rules) + draw(st.sampled_from([1, -1])) * u(rules))
    assume(len(b.terms) >= 2)
    return rules, a, b


@settings(max_examples=300, deadline=None)
@given(gauss_division_cases())
def test_division_is_complete_under_every_modulus(case):
    rules, a, b = case
    n = rules.modulus
    if n % 2 == 0:
        h, uu = gauss_symbol(n // 2, rules), u(rules)
        if (b * (h - uu)).is_zero() or (b * (h + uu)).is_zero():  # b is a zero divisor
            with pytest.raises(ZeroDivisionError):
                exact_divide(a * b, b)
            return
    assert exact_divide(a * b, b) == a


def _to_sympy(p, sympy):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(sympy.Symbol(s) ** e for s, e in mono))
        for mono, c in p.terms.items()
    ))


@settings(max_examples=60, deadline=None)
@given(binomial_cases(moduli=(None,)))
def test_binomial_quotients_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, q, _, _ = case
    quotient = sympy.cancel(_to_sympy(p, sympy) / _to_sympy(q, sympy))
    _, den = sympy.fraction(quotient)
    gens = sorted(quotient.free_symbols, key=str) or [sympy.Symbol("x")]
    if sympy.Poly(den, *gens).is_monomial:
        assert sympy.cancel(quotient - _to_sympy(exact_divide(p, q), sympy)) == 0
    else:
        with pytest.raises(NotDivisible):
            exact_divide(p, q)


@st.composite
def general_cases(draw):
    """(q, r, m): q a divisor of three or more terms, r any polynomial, m a term whose monomial q r lacks."""
    q = LaurentPoly(draw(st.dictionaries(divisor_monos, nonzero_coeffs, min_size=3, max_size=4)))
    product = q * LaurentPoly(draw(raw_polys))
    m = LaurentPoly({draw(raw_monos.filter(lambda mono: mono not in product.terms)): draw(nonzero_coeffs)})
    return q, product, m


def _sympy_quotient(p, q, sympy):
    """p/q cancelled by sympy, and whether its denominator is a monomial (a Laurent quotient exists)."""
    quotient = sympy.cancel(_to_sympy(p, sympy) / _to_sympy(q, sympy))
    _, den = sympy.fraction(quotient)
    gens = sorted(quotient.free_symbols, key=str) or [sympy.Symbol("x")]
    return quotient, sympy.Poly(den, *gens).is_monomial


@settings(max_examples=60, deadline=None)
@given(general_cases())
def test_general_quotients_match_sympy(case):
    # a divisor of three or more terms takes _divide_general
    sympy = pytest.importorskip("sympy")
    q, product, m = case
    assert len(q.terms) >= 3
    quotient, exists = _sympy_quotient(product, q, sympy)
    assert exists and sympy.cancel(quotient - _to_sympy(exact_divide(product, q), sympy)) == 0
    quotient, exists = _sympy_quotient(product + m, q, sympy)
    if exists:
        assert sympy.cancel(quotient - _to_sympy(exact_divide(product + m, q), sympy)) == 0
    else:
        with pytest.raises(NotDivisible):
            exact_divide(product + m, q)


z_names = st.sampled_from(["z1", "z2", "u"])
z_monos = st.dictionaries(z_names, st.integers(min_value=-2, max_value=2), max_size=2)


@st.composite
def z_polys(draw, max_terms=3):
    p = P.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        p = p + P.monomial(draw(z_monos), draw(coeffs))
    return p


nonzero_z_polys = z_polys(max_terms=2).filter(lambda p: not p.is_zero())
z_units = st.builds(lambda exps, c: P.monomial(exps, c), z_monos, st.sampled_from([1, -1, 2, Fraction(-1, 3)]))


def _product(polys):
    out = P.one()
    for p in polys:
        out = out * p
    return out


@st.composite
def rf_pairs(draw):
    """Two (num, den) pairs over z1, z2, u.  Each shares a's factors D, b's copies as given or
    times a unit, and each has factors of its own: a = n E / (D E), b = n W O / (D W O) is equal, and
    b is made unequal by adding a term to its numerator or drawn at random."""
    n = draw(z_polys())
    shared = draw(st.lists(nonzero_z_polys, max_size=2))
    own_a = draw(st.lists(nonzero_z_polys, max_size=1))
    own_b = draw(st.lists(nonzero_z_polys, max_size=1))
    units = [draw(z_units) if draw(st.booleans()) else P.one() for _ in shared]
    a = (n * _product(own_a), shared + own_a)
    b = (n * _product(units) * _product(own_b), [f * w for f, w in zip(shared, units)] + own_b)
    mode = draw(st.sampled_from(["equal", "perturbed", "random"]))
    if mode == "perturbed":
        b = (b[0] + P.monomial(draw(z_monos), draw(coeffs.filter(bool))), b[1])
    elif mode == "random":
        b = (draw(z_polys()), b[1])
    return a, b


@settings(max_examples=80, deadline=None)
@given(rf_pairs())
def test_rf_equal_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    (na, da), (nb, db) = case

    def value(num, den):
        out = _to_sympy(num, sympy)
        for f in den:
            out = out / _to_sympy(f, sympy)
        return out

    want = sympy.cancel(value(na, da) - value(nb, db)) == 0
    a, b = RationalFunction(na, da), RationalFunction(nb, db)
    assert rf_equal(a, b) == want == rf_equal(b, a)
    assert (a - b).is_zero() == want
