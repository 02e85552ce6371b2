"""The block representation schema for the affine Hecke algebra.

Instance data: a Cartan datum, a block dimension k, and for every pair
(w, i) a k x k rational-function matrix A(w, i) representing the map
M(wz) -> M(s_i wz).  From these the generators

    T_i:  diagonal block D_i(wz) * I_k,  off-diagonal block (w, s_i w) = A(s_i w, i)
    theta_lambda:  diagonal block (wz)^lambda * I_k

act on the |W|*k dimensional sum of blocks, and the quadratic, braid,
composition-scalar and Bernstein relations are verified exactly.

root_scale generalizes every exponent alpha_i to scale_i * alpha_i, which is
how the metaplectic instances run on the dual torus of the cover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Sequence

from .algebra import (
    LaurentPoly,
    RationalFunction,
    exact_divide,
    v,
)
from .linalg import (
    Matrix,
    identity_matrix,
    mat_mul,
)
from .relations import applied, braid, products, quadratic, verdict
from .reports import Report
from .roots import CartanDatum, WeylElement, WeylGroup, coroot_monomial, weight_monomial


@dataclass
class SchemaInstance:
    cartan: CartanDatum
    group: WeylGroup
    block_dim: int
    a_matrices: dict[tuple[WeylElement, int], Matrix]
    root_scale: tuple[int, ...] = ()
    name: str = "instance"

    def __post_init__(self) -> None:
        if not self.root_scale:
            self.root_scale = tuple(1 for _ in range(self.cartan.rank))

    def A(self, w: WeylElement, i: int) -> Matrix:
        try:
            return self.a_matrices[(w, i)]
        except KeyError:
            raise KeyError(f"missing A entry for (w={w.name()}, i={i + 1})") from None

    def x_monomial(self, w: WeylElement, i: int, power: int = 1) -> LaurentPoly:
        """(wz)^{power * scale_i * alpha_i} = z^{w^{-1}(power * scale_i * alpha_i)}."""
        alpha = self.cartan.simple_coroots[i]
        winv = self.group.inverse(w)
        vec = winv.act(alpha)
        return coroot_monomial(vec, power * self.root_scale[i])

    def d_scalar(self, w: WeylElement, i: int) -> RationalFunction:
        """D_i(wz) = (1 - v)(wz)^{scale alpha_i} / (1 - (wz)^{scale alpha_i})."""
        x = self.x_monomial(w, i)
        one = LaurentPoly.one()
        return RationalFunction((one - v()) * x, (one - x,))

    def composition_scalar(self, w: WeylElement, i: int) -> RationalFunction:
        """The forced value of A(s_i w, i) A(w, i): C(X) C(X^{-1}) at X = (wz)^{scale alpha_i}."""
        x = self.x_monomial(w, i)
        return c_function(x) * c_function(x.monomial_inverse())

    def perturbed(self, w: WeylElement, i: int, factor=2) -> "SchemaInstance":
        """Copy with one A entry scaled; used as a negative control."""
        a = dict(self.a_matrices)
        a[(w, i)] = RationalFunction.const(factor) * a[(w, i)]
        return replace(self, a_matrices=a, name=f"{self.name}-perturbed")


def c_function(x: LaurentPoly) -> RationalFunction:
    """C(x) = (1 - v x)/(1 - x)."""
    one = LaurentPoly.one()
    return RationalFunction(one - v() * x, (one - x,))


class BlockOperator(Matrix):
    """A Matrix whose entries are k x k blocks keyed (target, source) by Weyl elements.

    shape is the shape of one block: (k, k) for an operator on the sum of
    blocks, (k, 1) for a block vector, whose one source is the identity.
    An all-zero block is not stored.  +, -, scalar * and == are Matrix's;
    compose multiplies matching blocks only.  op[target, source] is
    op.block(target, source); a block operator has no rows, so op[r], row,
    len and iteration raise TypeError.
    """

    __slots__ = ()

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            raise TypeError(f"a block operator is indexed by (target, source), not by {key!r}")
        return self.block(*key)

    def __len__(self):  # Matrix.row reads len, so row raises too
        raise TypeError("a block operator has blocks keyed (target, source), not rows")

    __iter__ = __len__

    @property
    def block_dim(self) -> int:
        return self.shape[0]

    @property
    def blocks(self) -> dict[tuple[WeylElement, WeylElement], Matrix]:
        return self.entries

    def block(self, target: WeylElement, source: WeylElement) -> Matrix:
        got = self.entries.get((target, source))
        return got if got is not None else Matrix(self.shape, {})

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        out: dict[tuple[WeylElement, WeylElement], Matrix] = {}
        by_target: dict[WeylElement, list[tuple[WeylElement, Matrix]]] = {}
        for (t2, s2), m2 in other.entries.items():
            by_target.setdefault(t2, []).append((s2, m2))
        for (t1, s1), m1 in self.entries.items():
            for s2, m2 in by_target.get(s1, ()):  # s1 is other's target
                key, product = (t1, s2), mat_mul(m1, m2)
                out[key] = out[key] + product if key in out else product
        return BlockOperator((self.shape[0], other.shape[1]), out)

    def difference(self, other: "BlockOperator") -> tuple[str, str] | None:
        """None if equal, else renderings of the first differing entry, the left one naming it."""
        for t, s in sorted(self.entries.keys() | other.entries.keys()):
            diff = self.block(t, s).difference(other.block(t, s))
            if diff is not None:
                return f"block ({t.name()}, {s.name()}) {diff[0]}", diff[1]
        return None


# -- operator constructors -------------------------------------------------------


def build_T(inst: SchemaInstance, i: int) -> BlockOperator:
    """The Hecke generator acting on the sum of blocks."""
    blocks: dict[tuple[WeylElement, WeylElement], Matrix] = {}
    ident = identity_matrix(inst.block_dim)
    for w in inst.group:
        blocks[(w, w)] = inst.d_scalar(w, i) * ident
        sw = inst.group.left_mul_simple(i, w)
        blocks[(w, sw)] = inst.A(sw, i)
    return BlockOperator((inst.block_dim, inst.block_dim), blocks)


def diagonal_operator(inst: SchemaInstance, scalar) -> BlockOperator:
    """The operator with diagonal block scalar(w) * I_k at every w and no other block."""
    ident = identity_matrix(inst.block_dim)
    return BlockOperator(ident.shape, {(w, w): scalar(w) * ident for w in inst.group})


def build_theta(inst: SchemaInstance, lam: Sequence[int]) -> BlockOperator:
    """theta_lambda: diagonal block (wz)^lambda * I_k."""
    return diagonal_operator(inst, lambda w: RationalFunction.from_poly(weight_monomial(inst.group.inverse(w).act(lam))))


def identity_operator(group: WeylGroup, k: int) -> BlockOperator:
    ident = identity_matrix(k)
    return BlockOperator((k, k), {(w, w): ident for w in group})


def _tw_act(inst: SchemaInstance):
    """act(word) = T_word as an operator: each T_i built once, each product kept by its word."""
    generators = [build_T(inst, i) for i in range(inst.cartan.rank)]
    return applied(lambda i, rest: generators[i].compose(rest), identity_operator(inst.group, inst.block_dim))


def apply_Tw(inst: SchemaInstance, w: WeylElement) -> BlockOperator:
    """T_w as the product along a reduced word (well-defined once braids hold)."""
    return _tw_act(inst)(w.word)


def spherical_sum(inst: SchemaInstance) -> BlockOperator:
    """The spherical element sum_w T_w in this representation."""
    act = _tw_act(inst)
    return reduce(add, (act(w.word) for w in inst.group))


def poincare_polynomial(group: WeylGroup) -> LaurentPoly:
    total = LaurentPoly.zero()
    for w in group:
        total = total + v() ** w.length
    return total


# -- relation checks -------------------------------------------------------------


def check_composition(inst: SchemaInstance, report: Report | None = None) -> Report:
    """A(s_i w, i) A(w, i) equals the forced composition scalar, for every (w, i)."""
    report = report or Report(f"{inst.name}: composition scalar")
    for i in range(inst.cartan.rank):
        for w in inst.group:
            def check(w=w, i=i):
                sw = inst.group.left_mul_simple(i, w)
                product = mat_mul(inst.A(sw, i), inst.A(w, i))
                return verdict(product, inst.composition_scalar(w, i) * identity_matrix(inst.block_dim))

            report.run(f"composition scalar (w={w.name()}, i={i + 1})", check)
    return report


def _act(inst: SchemaInstance):
    """Words in the generators T_i of inst, for the relation verifier."""
    return products(lambda i: build_T(inst, i), lambda: identity_operator(inst.group, inst.block_dim))


def check_quadratic(inst: SchemaInstance, i: int, report: Report | None = None) -> Report:
    """T_i^2 = (v - 1) T_i + v, exactly."""
    report = report or Report(f"{inst.name}: quadratic")
    return quadratic(report, _act(inst), i, RationalFunction.from_poly(v()))


def check_braid(inst: SchemaInstance, i: int, j: int, report: Report | None = None) -> Report:
    """Alternating products of length n(i, j) agree, exactly."""
    report = report or Report(f"{inst.name}: braid")
    return braid(report, _act(inst), i, j, inst.cartan.braid_orders[i][j])


def off_root_scale(inst: SchemaInstance, lam: Sequence[int], i: int) -> str | None:
    """Why lam has no Bernstein relation at i, or None if it has one.

    1 - theta_{-s alpha_i} divides theta_lam - theta_{s_i lam} exactly when
    the root scale s divides <alpha_i, lam>.
    """
    scale = inst.root_scale[i]
    if inst.cartan.pairing_int(i, lam) % scale:
        return f"<alpha_{i + 1}, lambda> is not a multiple of the root scale {scale}"
    return None


def check_bernstein(inst: SchemaInstance, lam: Sequence[int], i: int, report: Report | None = None) -> Report:
    """theta_lam T_i - T_i theta_{s_i lam} = (v-1)(theta_lam - theta_{s_i lam})/(1 - theta_{-scale alpha_i}).

    The right side is computed by exact division in the theta algebra; a
    weight off the root scale (off_root_scale) fails the check.
    """
    report = report or Report(f"{inst.name}: bernstein")
    lam = tuple(int(x) for x in lam)

    def check():
        reason = off_root_scale(inst, lam, i)
        if reason:
            return False, f"lambda={lam}, i={i + 1}: {reason}", "Bernstein"
        s = inst.group.simple(i)
        slam = s.act(lam)
        t = build_T(inst, i)
        lhs = build_theta(inst, lam).compose(t) - t.compose(build_theta(inst, slam))
        numerator = weight_monomial(lam) - weight_monomial(slam)
        alpha = inst.cartan.simple_coroots[i]
        denominator = LaurentPoly.one() - coroot_monomial(alpha, -inst.root_scale[i])
        quotient = exact_divide(numerator, denominator)
        vv = RationalFunction.from_poly(v())
        rhs = diagonal_operator(inst, lambda w: (vv - 1) * RationalFunction.from_poly(inst.group.at_point(w, quotient)))
        return verdict(lhs, rhs)

    report.run(f"bernstein lambda={lam} i={i + 1}", check)
    return report


def check_spherical_idempotent(inst: SchemaInstance, report: Report | None = None) -> Report:
    """(sum_w T_w)^2 = (sum_w v^{l(w)}) * sum_w T_w."""
    report = report or Report(f"{inst.name}: spherical idempotent")

    def check():
        s = spherical_sum(inst)
        scale = RationalFunction.from_poly(poincare_polynomial(inst.group))
        return verdict(s.compose(s), scale * s)

    report.run("spherical idempotent", check)
    return report


def verify_instance(
    inst: SchemaInstance,
    lambdas: Sequence[Sequence[int]] = (),
    composition: bool = True,
    spherical: bool = False,
) -> Report:
    """Quadratic + braid (+ optional composition, Bernstein, idempotent) checks."""
    report = Report(f"{inst.name} ({inst.cartan.cartan_type})")
    if composition:
        check_composition(inst, report)
    for i in range(inst.cartan.rank):
        check_quadratic(inst, i, report)
    for i in range(inst.cartan.rank):
        for j in range(i + 1, inst.cartan.rank):
            check_braid(inst, i, j, report)
    for lam in lambdas:
        for i in range(inst.cartan.rank):
            check_bernstein(inst, lam, i, report)
    if spherical:
        check_spherical_idempotent(inst, report)
    return report


# -- k = 1 instances ------------------------------------------------------------


def scalar_instance(cartan: CartanDatum, group: WeylGroup | None, value, name: str) -> SchemaInstance:
    """The k = 1 instance with A(w, i) = value(w, i, X), X = (wz)^{alpha_i}."""
    group = group or WeylGroup(cartan)
    a_matrices: dict[tuple[WeylElement, int], Matrix] = {}
    for w in group:
        for i in range(cartan.rank):
            x = coroot_monomial(group.inverse(w).act(cartan.simple_coroots[i]))
            a_matrices[(w, i)] = Matrix((1, 1), {(0, 0): value(w, i, x)})
    return SchemaInstance(cartan, group, 1, a_matrices, name=name)


# -- the generic (free-symbol) instance -------------------------------------------


def intertwiner_symbol(i: int, w: WeylElement) -> str:
    """a{i}_{word(w)}: the free symbol for the map out of a descent block."""
    return f"a{i + 1}_{w.name()}"


def generic_instance(cartan: CartanDatum, group: WeylGroup | None = None) -> SchemaInstance:
    """Free-symbol instance: k = 1, one invertible symbol per descent pair.

    Ascent entries are the composition-scalar-forced quotients, and the single
    braid constraint along the two maximal chains eliminates the top-cell
    symbol (for A2: a2_121 = a1_121*a2_21*a1_1/(a1_12*a2_2)).
    """
    if cartan.rank > 2:
        raise ValueError("generic instance supports rank <= 2")
    group = group or WeylGroup(cartan)
    symbols: dict[tuple[WeylElement, int], RationalFunction] = {}
    for w in group:
        for i in range(cartan.rank):
            if group.is_left_descent(i, w):
                symbols[(w, i)] = RationalFunction.from_poly(
                    LaurentPoly.symbol(intertwiner_symbol(i, w))
                )
    if cartan.rank == 2:
        _eliminate_top_symbol(cartan, group, symbols)

    def value(w: WeylElement, i: int, x: LaurentPoly) -> RationalFunction:
        if (w, i) in symbols:
            return symbols[(w, i)]
        scalar = c_function(x) * c_function(x.monomial_inverse())
        return scalar / symbols[(group.left_mul_simple(i, w), i)]

    return scalar_instance(cartan, group, value, "generic")


def _maximal_chain(group: WeylGroup, start: int, length: int) -> list[tuple[int, WeylElement]]:
    """Letters and elements u_t = s_{c_t} ... s_{c_1} along one alternating chain."""
    out = []
    u = group.identity
    letter = start
    for _ in range(length):
        u = group.left_mul_simple(letter, u)
        out.append((letter, u))
        letter = 1 - letter
    return out


def _eliminate_top_symbol(cartan: CartanDatum, group: WeylGroup, symbols: dict) -> None:
    """Solve the rank-2 braid constraint for the i=2 top-cell symbol.

    Both maximal chains enumerate all positive coroots, so the forced
    C-factor pairs cancel and the constraint is a bare product identity in
    the free symbols.
    """
    m = cartan.braid_orders[0][1]
    w0 = group.longest()
    left = _maximal_chain(group, 0, m)
    right = _maximal_chain(group, 1, m)
    target = (w0, 1)
    if (left[-1][0], left[-1][1]) == (1, w0):
        same, other = left, right
    else:
        same, other = right, left
    value = RationalFunction.one()
    for letter, u in other:
        value = value * symbols[(u, letter)]
    for letter, u in same:
        if (u, letter) == target:
            continue
        value = value / symbols[(u, letter)]
    symbols[target] = value
