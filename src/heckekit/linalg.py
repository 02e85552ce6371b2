"""Sparse exact matrices over the rational-function field.

A Matrix stores its shape, its Gauss rules and a dict from (row, col) to a
nonzero RationalFunction; an entry whose is_zero() is true (a cancelled sum,
say) is never stored.  Operations walk stored entries only, not k^3 cell
visits, and the entries of a metaplectic block repeat (its tau coefficients
depend only on residues mod n), so many entries are one shared object.
mat_mul, mat_add, mat_sub, mat_scalar and first_difference keep a memo for
the length of one call, keyed by the identities of the operand objects: a
product costs one multiply per distinct pair of operand objects, a sum one
add, and first_difference compares each distinct pair once.  A result is
reused as an object, so sharing carries from the inputs into every product
and sum.  Identity keys are valid because the memo holds a reference to
every object it keys, so no id is recycled while it lives.

A Matrix still reads as a sequence of rows: len(m), m[r] (a row tuple with
zeros filled in), m[r][c], `for row in m` and m == ((x,),).  m[r, c] reads one
entry without building its row.  The public functions also accept nested row
sequences and convert them once on entry.
"""

from __future__ import annotations

from operator import add, mul, neg
from typing import Mapping, Sequence

from .algebra import GaussRules, RationalFunction

Key = tuple[int, int]


class Matrix:
    """shape, rules and the nonzero entries keyed (row, col)."""

    __slots__ = ("shape", "rules", "entries")

    def __init__(self, shape: Key, entries: Mapping[Key, RationalFunction], rules: GaussRules | None = None):
        self.shape = shape
        self.rules = rules
        self.entries = {key: x for key, x in entries.items() if not x.is_zero()}

    def zero(self) -> RationalFunction:
        return RationalFunction.zero(self.rules)

    def row(self, r: int) -> tuple[RationalFunction, ...]:
        if not 0 <= r < self.shape[0]:
            raise IndexError(r)
        zero = self.zero()
        get = self.entries.get
        return tuple(get((r, c), zero) for c in range(self.shape[1]))

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        if isinstance(key, tuple):
            got = self.entries.get(key)
            return got if got is not None else self.zero()
        return self.row(key)

    def __iter__(self):
        return (self.row(r) for r in range(self.shape[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Matrix, tuple, list)):
            return NotImplemented
        other = as_matrix(other)
        return self.shape == other.shape and first_difference(self, other) is None

    def difference(self, other: "Matrix") -> tuple[str, str] | None:
        """None if equal, else renderings of the first differing entry, the left one naming it."""
        diff = first_difference(self, other)
        if diff is None:
            return None
        r, c, x, y = diff
        return f"entry ({r},{c}): {x.render()}", y.render()

    __hash__ = None  # entries compare by cross multiplication


def as_matrix(a: Matrix | Sequence[Sequence[RationalFunction]]) -> Matrix:
    """a itself if it is a Matrix, else the Matrix of a nested row sequence."""
    if isinstance(a, Matrix):
        return a
    rows = [tuple(row) for row in a]
    cols = len(rows[0]) if rows else 0
    entries = {(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)}
    return Matrix((len(rows), cols), entries, rows[0][0].num.rules if cols else None)


def identity_matrix(k: int, rules: GaussRules | None = None) -> Matrix:
    one = RationalFunction.one(rules)
    return Matrix((k, k), {(r, r): one for r in range(k)}, rules)


def _memoized(op):
    """op(x, y), computed once per pair of operand objects while the returned function lives.

    The memo keys (id(x), id(y)) and keeps x, y and the result, so no keyed
    object dies and no id is reused during its life.
    """
    memo: dict[Key, tuple] = {}

    def apply(x, y):
        hit = memo.get((id(x), id(y)))
        if hit is None:
            hit = memo[(id(x), id(y))] = (x, y, op(x, y))
        return hit[2]

    return apply


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    plus = _memoized(add)
    out = dict(a.entries)
    for key, y in b.entries.items():
        x = out.get(key)
        out[key] = y if x is None else plus(x, y)
    return Matrix(a.shape, out, a.rules)


def _map_entries(op, a: Matrix) -> dict[Key, RationalFunction]:
    """op(x) for every entry x of a, computed once per entry object (a holds every keyed object)."""
    distinct = {id(x): x for x in a.entries.values()}
    image = {key: op(x) for key, x in distinct.items()}
    return {key: image[id(x)] for key, x in a.entries.items()}


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    b = as_matrix(b)
    return mat_add(a, Matrix(b.shape, _map_entries(neg, b), b.rules))


def mat_scalar(c, a: Matrix) -> Matrix:
    a = as_matrix(a)
    if c.is_zero():
        return Matrix(a.shape, {}, a.rules)
    return Matrix(a.shape, _map_entries(lambda x: c * x, a), a.rules)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Sum over matching nonzeros; each cell is summed in ascending inner index."""
    a, b = as_matrix(a), as_matrix(b)
    b_rows: dict[int, list[tuple[int, RationalFunction]]] = {}
    for (j, c), y in b.entries.items():
        b_rows.setdefault(j, []).append((c, y))
    times, plus = _memoized(mul), _memoized(add)
    out: dict[Key, RationalFunction] = {}
    for (r, j), x in sorted(a.entries.items()):
        for c, y in b_rows.get(j, ()):
            term = times(x, y)
            total = out.get((r, c))
            out[(r, c)] = term if total is None else plus(total, term)
    return Matrix((a.shape[0], b.shape[1]), out, a.rules)


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int, RationalFunction, RationalFunction] | None:
    """The first (row-major) differing entry, or None if a == b.

    A pair of entry objects already found equal is not compared again.
    """
    a, b = as_matrix(a), as_matrix(b)
    zero_a, zero_b = a.zero(), b.zero()
    equal: dict[Key, tuple] = {}  # (id(x), id(y)) -> (x, y), for pairs found equal
    for r, c in sorted(a.entries.keys() | b.entries.keys()):
        x, y = a.entries.get((r, c), zero_a), b.entries.get((r, c), zero_b)
        key = (id(x), id(y))
        if key in equal:
            continue
        if not (x == y):
            return r, c, x, y
        equal[key] = (x, y)
    return None


def is_scalar_matrix(a: Matrix) -> RationalFunction | None:
    """The scalar s if a == s*I, else None (the zero scalar for the zero matrix)."""
    a = as_matrix(a)
    if any(r != c for r, c in a.entries):
        return None
    s = a[0, 0]
    for r in range(1, a.shape[0]):
        if not (a[r, r] == s):
            return None
    return s


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the function field."""
    a = as_matrix(a)
    k = len(a)
    work = [list(row) for row in a]
    inv = [list(row) for row in identity_matrix(k, a.rules)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(k):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return Matrix((k, k), {(r, c): x for r, row in enumerate(inv) for c, x in enumerate(row)}, a.rules)


def nullspace(a: Matrix) -> list[tuple[RationalFunction, ...]]:
    """Exact basis of the kernel, by Gaussian elimination over the function field."""
    a = as_matrix(a)
    if not len(a):
        return []
    k, m = a.shape
    rules = a.rules
    work = [list(row) for row in a]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, k) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        p = work[row][col]
        work[row] = [x / p for x in work[row]]
        for r in range(k):
            if r == row or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == k:
            break
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [RationalFunction.zero(rules)] * m
        vec[free] = RationalFunction.one(rules)
        for r, col in enumerate(pivots):
            vec[col] = RationalFunction.zero(rules) - work[r][free]
        basis.append(tuple(vec))
    return basis


def apply_matrix(a: Matrix, x: Sequence[RationalFunction]) -> tuple[RationalFunction, ...]:
    a = as_matrix(a)
    out: list[RationalFunction | None] = [None] * a.shape[0]
    for (r, c), m in sorted(a.entries.items()):
        val = x[c]
        if val.is_zero():
            continue
        term = m * val
        out[r] = term if out[r] is None else out[r] + term
    zero = a.zero()
    return tuple(zero if total is None else total for total in out)
