"""Sparse exact matrices over the rational-function field.

A Matrix stores its shape and a dict from (row, col) to a nonzero
RationalFunction; an entry whose is_zero() is true (a cancelled sum, say) is
never stored, and an absent entry reads as the one shared ZERO.  A Matrix
has no Gauss rules of its own: an entry that carries a Gauss symbol carries
them.  Operations walk stored entries only, not k^3 cell visits, and the
entries of a metaplectic block repeat (its tau coefficients depend only on
residues mod n), so many entries are one shared object.
sparse_product (when an operand stores one object at two keys), mat_add,
mat_sub, mat_scalar and first_difference keep a memo for the length of one
call, keyed by the identities of the operand objects: a product costs one
multiply per distinct pair of operand objects, a sum one add, and
first_difference compares each distinct pair once.  A result is reused as
an object, so sharing carries from the inputs into every product and sum.
Identity keys are valid because the memo holds a reference to every object
it keys, so no id is recycled while it lives.

Matrix carries the one operator algebra (compose, +, -, scalar *, equals) over
these kernels, each returning the type of its first matrix operand.  The
kernels ask of an entry only +, unary -, *, == and is_zero, which a Matrix
has too (its * composes), so an entry may itself be a Matrix:
schema.BlockOperator is a Matrix of k x k blocks keyed by Weyl elements, and
its compose and difference are sparse_product and first_difference over
blocks.  A scalar may be an int, a Fraction, a LaurentPoly or a
RationalFunction; times any other, a Matrix raises TypeError.

A Matrix still reads as a sequence of rows: len(m), m[r] (a row tuple with
zeros filled in), m[r][c] and `for row in m`.  m[r, c] reads one entry
without building its row; m[r] and m[r, c] outside the shape raise
IndexError.  The kernels take Matrix operands; only mat_mul and == also
accept nested row sequences (m == ((x,),)), converted once on entry.
Shapes must fit: mat_add, mat_mul and first_difference raise ValueError
naming both shapes, mat_inverse names a shape that is not square, and
difference reports two shapes that differ as its failure.
"""

from __future__ import annotations

from operator import add, eq, mul, neg
from typing import Mapping, Sequence

from .algebra import RationalFunction

Key = tuple[int, int]

ZERO = RationalFunction.zero()  # every absent entry of every Matrix


class Matrix:
    """shape and the nonzero entries keyed (row, col)."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: Key, entries: Mapping[Key, RationalFunction]):
        self.shape = shape
        self.entries = {key: x for key, x in entries.items() if not x.is_zero()}

    def row(self, r: int) -> tuple[RationalFunction, ...]:
        if not 0 <= r < len(self):
            raise IndexError(r)
        get = self.entries.get
        return tuple(get((r, c), ZERO) for c in range(self.shape[1]))

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        if isinstance(key, tuple):
            if not (0 <= key[0] < self.shape[0] and 0 <= key[1] < self.shape[1]):
                raise IndexError(key)
            got = self.entries.get(key)
            return got if got is not None else ZERO
        return self.row(key)

    def __iter__(self):
        return (self.row(r) for r in range(self.shape[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Matrix, tuple, list)):
            return NotImplemented
        other = as_matrix(other)
        return self.shape == other.shape and first_difference(self, other) is None

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __mul__(self, other) -> "Matrix":  # a block entry composes; any other factor scales, as on the left
        return mat_mul(self, other) if isinstance(other, (Matrix, tuple, list)) else self.__rmul__(other)

    def __add__(self, other: "Matrix") -> "Matrix":
        return mat_add(self, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return mat_sub(self, other)

    def __neg__(self) -> "Matrix":
        return type(self)(self.shape, _map_entries(neg, self))

    def __rmul__(self, c) -> "Matrix":
        c = ZERO._coerce(c)  # None unless c is an int, Fraction, LaurentPoly or RationalFunction
        return NotImplemented if c is None else mat_scalar(c, self)

    def equals(self, other: "Matrix") -> bool:
        return self.difference(other) is None

    def difference(self, other: "Matrix") -> tuple[str, str] | None:
        """None if equal, else renderings of the two shapes or of the first differing entry (left names it)."""
        if self.shape != other.shape:
            return f"shape {self.shape}", f"shape {other.shape}"
        diff = first_difference(self, other)
        if diff is None:
            return None
        r, c, x, y = diff
        return f"entry ({r},{c}): {x.render()}", y.render()

    __hash__ = None  # entries compare by cross multiplication


def as_matrix(a: Matrix | Sequence[Sequence[RationalFunction]]) -> Matrix:
    """a itself if it is a Matrix, else the Matrix of a nested row sequence; ValueError if its rows are ragged."""
    if isinstance(a, Matrix):
        return a
    rows = [tuple(row) for row in a]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError(f"ragged rows of lengths {[len(row) for row in rows]}")
    entries = {(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)}
    return Matrix((len(rows), cols), entries)


def identity_matrix(k: int) -> Matrix:
    one = RationalFunction.one()
    return Matrix((k, k), {(r, r): one for r in range(k)})


def _check_shapes(ok: bool, op: str, a: Matrix, b: Matrix) -> None:
    """Raise ValueError naming op and both shapes unless ok."""
    if not ok:
        raise ValueError(f"{op} of shapes {a.shape} and {b.shape}")


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
    _check_shapes(a.shape == b.shape, "sum", a, b)
    plus = _memoized(add)
    out = dict(a.entries)
    for key, y in b.entries.items():
        x = out.get(key)
        out[key] = y if x is None else plus(x, y)
    return type(a)(a.shape, out)


def _map_entries(op, a: Matrix) -> dict[Key, RationalFunction]:
    """op(x) for every entry x of a, computed once per entry object (a holds every keyed object)."""
    distinct = {id(x): x for x in a.entries.values()}
    image = {key: op(x) for key, x in distinct.items()}
    return {key: image[id(x)] for key, x in a.entries.items()}


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(a, -b)


def mat_scalar(c, a: Matrix) -> Matrix:
    if c.is_zero():
        return type(a)(a.shape, {})
    return type(a)(a.shape, _map_entries(lambda x: c * x, a))


def mat_mul(a: Matrix | Sequence, b: Matrix | Sequence) -> Matrix:
    """The sparse_product of two matrices, either of which may be given as nested rows."""
    return sparse_product(as_matrix(a), as_matrix(b))


def sparse_product(a: Matrix, b: Matrix) -> Matrix:
    """Sum over matching nonzeros; each cell is summed in ascending inner index.

    Only the entries of a whose column is a stored row of b are sorted and
    walked, so an operator applied to a block column costs the blocks the
    column reads, not a sort of the whole operator.  An entry product is
    x * y, so two blocks compose through mat_mul.  A pair of entry objects,
    and so a term or a sum, can recur only if an object is stored at two
    keys of a or of b; without one there is no memo, which would only keep
    every term alive until the product is built.
    """
    _check_shapes(a.shape[1] == b.shape[0], "product", a, b)
    b_rows: dict[int, list[tuple[int, RationalFunction]]] = {}
    for (j, c), y in b.entries.items():
        b_rows.setdefault(j, []).append((c, y))
    shared = any(len({id(x) for x in m.entries.values()}) < len(m.entries) for m in (a, b))
    times, plus = (_memoized(mul), _memoized(add)) if shared else (mul, add)
    out: dict[Key, RationalFunction] = {}
    for (r, j), x in sorted(item for item in a.entries.items() if item[0][1] in b_rows):
        for c, y in b_rows[j]:
            term = times(x, y)
            total = out.get((r, c))
            out[(r, c)] = term if total is None else plus(total, term)
    return type(a)((a.shape[0], b.shape[1]), out)


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int, RationalFunction, RationalFunction] | None:
    """The first (row-major) differing entry, or None if a == b; ValueError if the shapes differ.

    Each pair of entry objects is compared once.  No stored entry (a block
    neither) equals the ZERO an absent entry reads as.
    """
    _check_shapes(a.shape == b.shape, "comparison", a, b)
    equal = _memoized(eq)
    for r, c in sorted(a.entries.keys() | b.entries.keys()):
        x, y = a.entries.get((r, c), ZERO), b.entries.get((r, c), ZERO)
        if not equal(x, y):
            return r, c, x, y
    return None


def is_scalar_matrix(a: Matrix) -> RationalFunction | None:
    """The scalar s if a == s*I, else None (the zero scalar for the square zero matrix)."""
    if a.shape[0] != a.shape[1] or any(r != c for r, c in a.entries):
        return None
    s = a.entries.get((0, 0), ZERO)
    for r in range(1, a.shape[0]):
        if not (a[r, r] == s):
            return None
    return s


def _reduce(rows: list[list[RationalFunction]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of rows, in place, on their first cols columns; the pivot columns.

    Afterwards row t has 1 in the t-th pivot column and every other row 0
    there; the rows below the last pivot are zero in the first cols columns.
    """
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        p = rows[top][col]
        rows[top] = [x / p for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and not row[col].is_zero():
                factor = row[col]
                rows[r] = [x - factor * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    return pivots


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [a | I] over the function field; ValueError unless a is square."""
    k = len(a)
    if a.shape != (k, k):
        raise ValueError(f"inverse of the non-square shape {a.shape}")
    work = [list(row) + list(unit) for row, unit in zip(a, identity_matrix(k))]
    if len(_reduce(work, k)) < k:
        raise ZeroDivisionError("matrix is singular")
    return type(a)((k, k), {(r, c): x for r, row in enumerate(work) for c, x in enumerate(row[k:])})


def nullspace(a: Matrix) -> list[tuple[RationalFunction, ...]]:
    """Exact basis of the kernel, by Gauss-Jordan elimination over the function field."""
    m = a.shape[1]
    work = [list(row) for row in a]
    pivots = _reduce(work, m)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [ZERO] * m
        vec[free] = RationalFunction.one()
        for r, col in enumerate(pivots):
            vec[col] = -work[r][free]
        basis.append(tuple(vec))
    return basis

