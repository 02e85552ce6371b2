"""Differential test: the sparse Matrix against dense tuple-of-rows loops.

The reference functions below are the dense loops the sparse type replaced,
kept here as an oracle.  Matrices are mostly zero, and their entries include
pairs that cancel (x and -x), with no Gauss rules and under
GaussRules.standard(3), where g1*g2 rewrites to u^2.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from heckekit.algebra import GaussRules, LaurentPoly, RationalFunction, gauss_symbol
from heckekit.linalg import (
    Matrix,
    as_matrix,
    first_difference,
    identity_matrix,
    is_scalar_matrix,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_scalar,
    mat_sub,
    nullspace,
)
from heckekit.relations import verdict
from heckekit.rmatrix import tau_operator
from heckekit.roots import build_cartan, weyl_group
from heckekit.schema import identity_operator

P = LaurentPoly
RF = RationalFunction


# -- dense reference loops ----------------------------------------------------------


def dense_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_scalar(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def dense_mul(a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            total = None
            for x, y in zip(row, col):
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                total = term if total is None else total + term
            out_row.append(total if total is not None else RF.zero(row[0].num.rules))
        out.append(tuple(out_row))
    return tuple(out)


def dense_first_difference(a, b):
    for r, (ra, rb) in enumerate(zip(a, b)):
        for c, (x, y) in enumerate(zip(ra, rb)):
            if not (x == y):
                return r, c, x, y
    return None


def dense_is_scalar(a):
    s = a[0][0]
    for r, row in enumerate(a):
        for c, x in enumerate(row):
            if r == c:
                if not (x == s):
                    return None
            elif not x.is_zero():
                return None
    return s


def dense_apply(a, x):
    out = []
    for row in a:
        total = RF.zero(row[0].num.rules)
        for c, val in zip(row, x):
            if not (c.is_zero() or val.is_zero()):
                total = total + c * val
        out.append(total)
    return tuple(out)


# -- strategies ------------------------------------------------------------------------


def entry_pool(rules):
    x, y, u = P.symbol("x", rules), P.symbol("y", rules), P.symbol("u", rules)
    one = P.one(rules)
    polys = [one, x, x + y, u * y, one - x]
    if rules is not None:
        g1, g2 = gauss_symbol(1, rules), gauss_symbol(2, rules)
        polys += [g1, g2, g1 * x - u]
    nonzero = []
    for p in polys:
        for f in (RF.from_poly(p), RF(p, (one - x * y,))):
            nonzero += [f, -f]  # cancelling pairs
    return [RF.zero(rules)] * len(nonzero) * 2 + nonzero  # two thirds zeros


RULES = [None, GaussRules.standard(3)]
POOLS = {id(r): entry_pool(r) for r in RULES}
dims = st.integers(min_value=1, max_value=5)


def rows_of(draw, rules, n, m):
    pool = st.sampled_from(POOLS[id(rules)])
    return tuple(tuple(draw(pool) for _ in range(m)) for _ in range(n))


@st.composite
def operands(draw):
    """(rules, a, b, c, k) with a and b both n x m and c m x l; b is a near copy of a."""
    rules = draw(st.sampled_from(RULES))
    n, m, l = draw(dims), draw(dims), draw(dims)
    a = rows_of(draw, rules, n, m)
    b = [list(row) for row in a]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        b[r][c] = draw(st.sampled_from(POOLS[id(rules)]))
    c = rows_of(draw, rules, m, l)
    return rules, a, tuple(map(tuple, b)), c


def assert_same(sparse: Matrix, dense) -> None:
    assert sparse.shape == (len(dense), len(dense[0]))
    assert not any(x.is_zero() for x in sparse.entries.values())
    for r, row in enumerate(dense):
        for c, x in enumerate(row):
            assert sparse[r, c] == x
            assert sparse[r][c] == x
    assert sparse == dense


@settings(max_examples=150, deadline=None)
@given(operands())
def test_arithmetic_matches_dense(ops):
    rules, a, b, c = ops
    sa, sb, sc = as_matrix(a), as_matrix(b), as_matrix(c)
    assert_same(mat_add(sa, sb), dense_add(a, b))
    assert_same(mat_sub(sa, sb), dense_sub(a, b))
    assert_same(mat_sub(sa, sa), dense_sub(a, a))
    assert mat_sub(sa, sa).entries == {}
    assert_same(mat_mul(sa, sc), dense_mul(a, c))
    assert_same(mat_mul(a, c), dense_mul(a, c))  # nested rows are accepted
    for scalar in (RF.zero(rules), b[0][0], RF.const(-1, rules)):
        assert_same(mat_scalar(scalar, sa), dense_scalar(scalar, a))
    vec = c[0][: len(a[0])] + (RF.zero(rules),) * max(0, len(a[0]) - len(c[0]))
    got = mat_mul(sa, [(x,) for x in vec])
    want = dense_apply(a, vec)
    assert len(got) == len(want) and all(row[0] == y for row, y in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(operands())
def test_first_difference_and_equality_match_dense(ops):
    _, a, b, _ = ops
    sa, sb = as_matrix(a), as_matrix(b)
    want = dense_first_difference(a, b)
    got = first_difference(sa, sb)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[:2] == want[:2]
        assert got[2] == want[2] and got[3] == want[3]
    assert (sa == b) == (want is None)
    assert sa == a and as_matrix(a) == sa


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(min_value=0, max_value=2))
def test_is_scalar_matrix_matches_dense(ops, kind):
    rules, a, b, _ = ops
    k = len(a)
    if kind == 0:
        square = tuple(tuple(a[r % len(a)][c % len(a[0])] for c in range(k)) for r in range(k))
    else:
        # s * I, perturbed in one entry when kind == 2
        square = [list(row) for row in identity_matrix(k)]
        square = [[b[0][0] * x for x in row] for row in square]
        if kind == 2:
            square[k - 1][0] = a[0][0]
        square = tuple(map(tuple, square))
    want = dense_is_scalar(square)
    got = is_scalar_matrix(as_matrix(square))
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want


def test_zero_matrix_has_zero_scalar():
    zero = Matrix((3, 3), {})
    s = is_scalar_matrix(zero)
    assert s is not None and s.is_zero()


def test_nested_rows_must_not_be_ragged():
    one = RF.one()
    with pytest.raises(ValueError, match=r"ragged rows of lengths \[2, 1\]"):
        as_matrix([(one, one), (one,)])  # was a (2, 2) matrix
    with pytest.raises(ValueError, match="ragged"):
        mat_mul([(one, one), (one,)], identity_matrix(2))


def test_cancelled_sum_is_not_stored():
    x = RF.from_poly(P.symbol("x"))
    a = Matrix((2, 2), {(0, 0): x, (1, 0): x})
    b = Matrix((2, 2), {(0, 0): -x})
    total = mat_add(a, b)
    assert set(total.entries) == {(1, 0)}
    assert total == ((RF.zero(), RF.zero()), (x, RF.zero()))


# -- identity-keyed kernels ----------------------------------------------------------
#
# The kernels compute once per distinct pair of entry objects.  These matrices mix
# entries that are one shared object in several cells, value-equal but distinct
# objects, and values unique to their cell, and every kernel must give what the
# memo-free sparse loops below give, entry for entry and in the same form.


def ref_add(a, b):
    out = dict(a.entries)
    for key, y in b.entries.items():
        out[key] = y if key not in out else out[key] + y
    return Matrix(a.shape, out)


def ref_scalar(c, a):
    return Matrix(a.shape, {key: c * x for key, x in a.entries.items()} if not c.is_zero() else {})


def ref_mul(a, b):
    out = {}
    for (r, j), x in sorted(a.entries.items()):
        for (j2, c), y in sorted(b.entries.items()):
            if j2 == j:
                out[(r, c)] = x * y if (r, c) not in out else out[(r, c)] + x * y
    return Matrix((a.shape[0], b.shape[1]), out)


def ref_first_difference(a, b):
    for r, c in sorted(a.entries.keys() | b.entries.keys()):
        if not (a[r, c] == b[r, c]):
            return r, c, a[r, c], b[r, c]
    return None


def same_form(x, y):
    return x.num == y.num and x.den == y.den


def assert_identical(got, want):
    assert got.shape == want.shape and got.entries.keys() == want.entries.keys()
    assert all(same_form(x, want.entries[key]) for key, x in got.entries.items())


def value_specs(rules):
    one = P.one(rules)
    x, y, uu = P.symbol("x", rules), P.symbol("y", rules), P.symbol("u", rules)
    specs = [(one, ()), (x + y, ()), (one - uu * x, (one - x,)), (-x, (one - x * y,))]
    if rules is not None:
        g1, g2 = gauss_symbol(1, rules), gauss_symbol(2, rules)
        specs += [(g1, (one - x,)), (g2 * y - uu, ())]
    return specs


@st.composite
def shared_matrix(draw, rules, shape, shared):
    """A matrix whose cells hold zero, one of the shared objects, a fresh copy of a shared value, or a unique value."""
    specs = value_specs(rules)
    entries = {}
    for r in range(shape[0]):
        for c in range(shape[1]):
            kind = draw(st.sampled_from(["zero", "zero", "shared", "shared", "copy", "unique"]))
            i = draw(st.integers(0, len(specs) - 1))
            if kind == "shared":
                entries[(r, c)] = shared[i]
            elif kind == "copy":
                entries[(r, c)] = RF(*specs[i])
            elif kind == "unique":
                entries[(r, c)] = RF(*specs[i]) * RF.from_poly(P.monomial({"t": 1 + r * shape[1] + c}, rules=rules))
    return Matrix(shape, entries)


@st.composite
def shared_operands(draw):
    rules = draw(st.sampled_from(RULES))
    shared = [RF(*spec) for spec in value_specs(rules)]
    n, m, l = draw(dims), draw(dims), draw(dims)
    a = draw(shared_matrix(rules, (n, m), shared))
    b = draw(shared_matrix(rules, (n, m), shared))
    c = draw(shared_matrix(rules, (m, l), shared))
    return rules, shared, a, b, c


@settings(max_examples=150, deadline=None)
@given(shared_operands())
def test_kernels_match_memo_free_loops(ops):
    rules, shared, a, b, c = ops
    assert_identical(mat_mul(a, c), ref_mul(a, c))
    assert_identical(mat_add(a, b), ref_add(a, b))
    assert_identical(mat_sub(a, b), ref_add(a, ref_scalar(RF.const(-1, rules), b)))
    for scalar in (shared[0], shared[-1], RF.zero(rules)):
        assert_identical(mat_scalar(scalar, a), ref_scalar(scalar, a))
    for x, y in ((a, b), (a, a), (b, a), (a, Matrix(a.shape, {}))):
        got, want = first_difference(x, y), ref_first_difference(x, y)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[:2] == want[:2] and same_form(got[2], want[2]) and same_form(got[3], want[3])


@pytest.mark.parametrize("rules", RULES, ids=["plain", "standard3"])
def test_first_difference_finds_a_single_late_entry(rules):
    """Every earlier cell pairs one of two shared values with itself or with a value-equal copy, so a
    memo keyed on one side only would pass over the late differing pair."""
    p, q = (RF(*spec) for spec in value_specs(rules)[1:3])
    k = 6
    a = {(r, c): p if (r + c) % 2 else q for r in range(k) for c in range(k)}
    b = {key: x if key[0] % 2 else RF(x.num, x.den) for key, x in a.items()}
    late = (k - 1, k - 2)
    assert a[late] is p
    changed = Matrix((k, k), {**b, late: q})
    got = first_difference(Matrix((k, k), a), changed)
    assert got[:2] == late and got[2] is p and got[3] is q
    absent = Matrix((k, k), {key: x for key, x in b.items() if key != late})
    got = first_difference(Matrix((k, k), a), absent)
    assert got[:2] == late and got[2] is p and got[3].is_zero()
    got = first_difference(absent, Matrix((k, k), a))
    assert got[:2] == late and got[2].is_zero() and got[3] is p
    assert first_difference(Matrix((k, k), a), Matrix((k, k), b)) is None


def test_shared_entries_stay_shared():
    x = RF(P.one() - P.symbol("x"), (P.one() + P.symbol("y"),))
    a = Matrix((3, 3), {(0, 0): x, (1, 1): x, (2, 2): x, (0, 2): x})
    scaled = mat_scalar(RF.from_poly(P.symbol("u")), a)
    assert len({id(v) for v in scaled.entries.values()}) == 1
    square = mat_mul(a, a)
    assert square[1, 1] is square[2, 2] and square[0, 0] is square[1, 1]
    assert len({id(v) for v in mat_add(a, a).entries.values()}) == 1


def test_negation_keeps_sharing_and_the_type():
    x = RF(P.one() - P.symbol("x"), (P.one() + P.symbol("y"),))
    a = Matrix((2, 2), {(0, 0): x, (1, 1): x, (0, 1): RF.const(3)})
    neg = -a
    assert type(neg) is Matrix and neg[0, 0] is neg[1, 1]
    assert neg == mat_scalar(RF.const(-1), a)
    assert (a + neg).is_zero() and not a.is_zero() and Matrix((2, 2), {}).is_zero()


# -- Gauss-Jordan elimination: mat_inverse and nullspace ------------------------------
#
# a = L D U has a known rank r: L and U are unit triangular, so invertible, and D is
# zero but for r nonzero diagonal entries.


@st.composite
def ranked(draw):
    """(a, r) with a = L D U, k x m for k, m <= 3, of rank r; rule-free or under standard(3)."""
    rules = draw(st.sampled_from(RULES))
    pool = POOLS[id(rules)]
    one = RF.one(rules)
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rank = draw(st.integers(0, min(k, m)))
    lower = {(r, c): one if r == c else draw(st.sampled_from(pool)) for r in range(k) for c in range(r + 1)}
    upper = {(r, c): one if r == c else draw(st.sampled_from(pool)) for r in range(m) for c in range(r, m)}
    diagonal = {(t, t): draw(st.sampled_from([x for x in pool if not x.is_zero()])) for t in range(rank)}
    a = mat_mul(mat_mul(Matrix((k, k), lower), Matrix((k, m), diagonal)), Matrix((m, m), upper))
    return a, rank


@settings(max_examples=100, deadline=None)
@given(ranked())
@example((Matrix((2, 3), {(0, 0): RF.one(), (1, 1): RF.one()}), 2))  # was a (2, 2) "inverse" and the scalar 1
@example((Matrix((3, 2), {(0, 0): RF.one(), (1, 1): RF.one()}), 2))  # was "matrix is singular"
@example((Matrix((0, 3), {}), 0))  # the kernel of K^3 -> K^0 is K^3, not empty
def test_gauss_jordan_inverse_and_kernel(case):
    a, rank = case
    k, m = a.shape
    if k == m == rank:
        assert mat_mul(a, mat_inverse(a)) == identity_matrix(k)
    elif k == m:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(a)
    else:
        with pytest.raises(ValueError, match=rf"non-square shape \({k}, {m}\)"):
            mat_inverse(a)
        assert is_scalar_matrix(a) is None
    basis = nullspace(a)
    assert len(basis) == m - rank
    for vec in basis:
        assert all(row[0] == RF.zero() for row in mat_mul(a, [(x,) for x in vec]))


def test_shapes_must_fit():
    one = RF.one()
    i2, i3 = identity_matrix(2), identity_matrix(3)
    padded = Matrix((3, 3), {(0, 0): one, (1, 1): one})
    assert verdict(i2, padded) == (False, "shape (2, 2)", "shape (3, 3)")
    with pytest.raises(ValueError, match=r"\(2, 2\) and \(3, 3\)"):
        first_difference(i2, padded)
    with pytest.raises(ValueError, match=r"product of shapes \(2, 3\) and \(2, 2\)"):
        mat_mul(Matrix((2, 3), {(0, 2): one}), i2)
    with pytest.raises(ValueError, match=r"sum of shapes \(2, 2\) and \(3, 3\)"):
        mat_add(i2, i3)
    with pytest.raises(IndexError):
        i2[5, 5]
    group = weyl_group(build_cartan("A1"))
    assert verdict(identity_operator(group, 2), identity_operator(group, 3)) == (
        False, "block shape (2, 2)", "block shape (3, 3)")


def test_row_outside_the_shape_raises():
    with pytest.raises(IndexError, match="^2$"):
        identity_matrix(2).row(2)


@pytest.mark.parametrize("scalar", [2, Fraction(1, 3), P.symbol("x")], ids=["int", "Fraction", "LaurentPoly"])
def test_scalar_times_matrix_and_block_operator(scalar):
    c = RF.from_poly(scalar if isinstance(scalar, P) else P.const(scalar))
    m = Matrix((2, 2), {(0, 0): RF.from_poly(P.symbol("y")), (1, 0): RF.one()})
    assert scalar * m == mat_scalar(c, m)
    group = weyl_group(build_cartan("A1"))
    op = identity_operator(group, 2)
    scaled = scalar * op
    assert type(scaled) is type(op)
    assert all(scaled.block(w, w) == mat_scalar(c, identity_matrix(2)) for w in group)


@pytest.mark.parametrize("scalar", [2.5, 1j, None], ids=["float", "complex", "None"])
def test_an_unsupported_scalar_times_an_operator_is_a_type_error(scalar):
    operators = [identity_matrix(2), identity_operator(weyl_group(build_cartan("A1")), 2), tau_operator(2)]
    assert [type(op).__name__ for op in operators] == ["Matrix", "BlockOperator", "TensorOperator"]
    for op in operators:
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \*: '{type(scalar).__name__}' and"):
            scalar * op


def three_operators():
    """A Matrix, a BlockOperator and a TensorOperator, each with an entry that is not 1."""
    y = RF.from_poly(P.symbol("y"))
    op = identity_operator(weyl_group(build_cartan("A1")), 2)
    return [Matrix((2, 2), {(0, 0): y, (1, 0): RF.one()}), y * op, y * tau_operator(2)]


@pytest.mark.parametrize("scalar", [2, Fraction(1, 3), P.symbol("x"), RF.from_poly(P.symbol("x"))],
                         ids=["int", "Fraction", "LaurentPoly", "RationalFunction"])
def test_an_operator_times_a_scalar_scales_as_on_the_left(scalar):
    for op in three_operators():
        scaled = op * scalar
        assert type(scaled) is type(op) and scaled == scalar * op


@pytest.mark.parametrize("scalar", [2.5, 1j, None], ids=["float", "complex", "None"])
def test_an_operator_times_an_unsupported_scalar_is_a_type_error(scalar):
    for op in three_operators():
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \*: '{type(op).__name__}' and"):
            op * scalar


def test_a_matrix_times_a_matrix_composes_through_mat_mul(monkeypatch):
    import heckekit.linalg as linalg

    m, op, t = three_operators()
    want = mat_mul(m, m), mat_mul(t, t), op.compose(op)
    calls = []
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert m * m == want[0] and t * t == want[1] and len(calls) == 2
    calls.clear()
    assert op.compose(op) == want[2] and calls  # an entry that is a block multiplies by composing
