"""Small exact matrices over the rational-function field."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .algebra import GaussRules, LaurentPoly, RationalFunction

Matrix = tuple[tuple[RationalFunction, ...], ...]

def mat(rows: Iterable[Iterable]) -> Matrix:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, RationalFunction) else RationalFunction.from_poly(x) for x in row))
    return tuple(out)


def identity_matrix(k: int, rules: GaussRules | None = None) -> Matrix:
    one, zero = RationalFunction.one(rules), RationalFunction.zero(rules)
    return tuple(tuple(one if r == c else zero for c in range(k)) for r in range(k))


def zero_matrix(k: int, rules: GaussRules | None = None) -> Matrix:
    zero = RationalFunction.zero(rules)
    return tuple(tuple(zero for _ in range(k)) for _ in range(k))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scalar(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
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
            out_row.append(total if total is not None else RationalFunction.zero(row[0].num.rules if row else None))
        out.append(tuple(out_row))
    return tuple(out)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return first_difference(a, b) is None


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int, RationalFunction, RationalFunction] | None:
    for r, (ra, rb) in enumerate(zip(a, b)):
        for c, (x, y) in enumerate(zip(ra, rb)):
            if not (x == y):
                return r, c, x, y
    return None


def is_scalar_matrix(a: Matrix) -> RationalFunction | None:
    """The scalar s if a == s*I, else None."""
    s = a[0][0]
    for r, row in enumerate(a):
        for c, x in enumerate(row):
            if r == c:
                if not (x == s):
                    return None
            elif not x.is_zero():
                return None
    return s


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the function field."""
    k = len(a)
    rules = a[0][0].num.rules if k else None
    work = [list(row) for row in a]
    inv = [list(row) for row in identity_matrix(k, rules)]
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
    return tuple(tuple(row) for row in inv)


def nullspace(a: Matrix) -> list[tuple[RationalFunction, ...]]:
    """Exact basis of the kernel, by Gaussian elimination over the function field."""
    if not a:
        return []
    k, m = len(a), len(a[0])
    rules = a[0][0].num.rules
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
    free_cols = [c for c in range(m) if c not in pivots]
    zero, one = RationalFunction.zero(rules), RationalFunction.one(rules)
    for free in free_cols:
        vec = [zero] * m
        vec[free] = one
        for r, col in enumerate(pivots):
            vec[col] = RationalFunction.zero(rules) - work[r][free]
        basis.append(tuple(vec))
    return basis


def apply_matrix(a: Matrix, x: Sequence[RationalFunction]) -> tuple[RationalFunction, ...]:
    out = []
    for row in a:
        total = RationalFunction.zero(row[0].num.rules if row else None)
        for c, val in zip(row, x):
            if not (c.is_zero() or val.is_zero()):
                total = total + c * val
        out.append(total)
    return tuple(out)


def substitute_matrix(a: Matrix, transform: Callable[[RationalFunction], RationalFunction]) -> Matrix:
    return tuple(tuple(transform(x) for x in row) for row in a)


def tensor_product(a: Matrix, b: Matrix) -> Matrix:
    ka, kb = len(a), len(b)
    out = []
    for ra in range(ka):
        for rb in range(kb):
            row = []
            for ca in range(ka):
                for cb in range(kb):
                    row.append(a[ra][ca] * b[rb][cb])
            out.append(tuple(row))
    return tuple(out)
