"""Quantum-group R-matrices and the Hecke modules they generate.

Covers: the gl(n) R-matrix and its affine family R(x) = R - x R_21^{-1},
the Drinfeld-twisted families R^gamma and R^gamma(x), the Gauss-sum
normalized family used for metaplectic scattering, Yang-Baxter /
Hecke-relation / triangularity verifiers, the schema instance on tensor
products of evaluation modules, the z -> 0 limit, and the wreath
construction on W * U.  A TensorOperator is a Matrix; n is read from its size.

Twist convention: the coefficient of e_aa (x) e_bb is gamma_ab^{-1} for every
a != b, in both the constant and the parametrized family (this is what
conjugation by a diagonal F-matrix exp(sum (H_a (x) H_b - H_b (x) H_a) f_ab)
produces).  The quadratic and triangularity checks then hold exactly when
gamma_ab * gamma_ba = 1, which the twist structure supplies.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Callable, Sequence

from .algebra import GaussRules, LaurentPoly, RationalFunction, gauss_symbol, u, v
from .linalg import Matrix, identity_matrix, mat_inverse, nullspace
from .reports import Report
from .roots import WeylGroup, build_cartan, coroot_monomial
from .relations import applied, braid, first_failing, hecke_relations, quadratic, verdict
from .schema import BlockOperator, SchemaInstance, identity_operator, transported_instance

P = LaurentPoly
RF = RationalFunction


def words(n: int, arity: int):
    return list(iproduct(range(n), repeat=arity))


def word_index(word: Sequence[int], n: int) -> int:
    idx = 0
    for a in word:
        idx = idx * n + a
    return idx


def tensor_base(size: int, arity: int) -> int:
    """The n with n ** arity == size; ValueError if size is no exact arity-th power."""
    n = next(n for n in range(size + 1) if n ** arity >= size)
    if n ** arity != size:
        raise ValueError(f"size {size} is not an exact power n ** {arity}")
    return n


class TensorOperator(Matrix):
    """Endomorphism of a tensor power of C^n, with exact entries."""

    __slots__ = ()
    compose = Matrix.compose  # bound here as well, so a tracer can time tensor products on their own

    def embed(self, slots: tuple[int, int], arity: int) -> "TensorOperator":
        """Place this operator on two tensor factors at the given slots, identity elsewhere."""
        n = tensor_base(self.shape[0], 2)
        others = [k for k in range(arity) if k not in slots]
        entries = {}
        for (row, col), x in self.entries.items():
            for rest in words(n, len(others)):
                target, source = [0] * arity, [0] * arity
                for k, letter in zip(others, rest):
                    target[k] = source[k] = letter
                target[slots[0]], target[slots[1]] = divmod(row, n)
                source[slots[0]], source[slots[1]] = divmod(col, n)
                entries[(word_index(target, n), word_index(source, n))] = x
        size = n ** arity
        return TensorOperator((size, size), entries)


def tau_operator(n: int) -> TensorOperator:
    """The flip x (x) y -> y (x) x as a basis permutation on tensor words."""
    one = RF.one()
    entries = {(word_index((a, b), n), word_index((b, a), n)): one for (a, b) in words(n, 2)}
    return TensorOperator((n * n, n * n), entries)


class RMatrixSpec:
    """The full n x n twist table gamma (gamma[a][b]; ones on the unused diagonal); n is its size."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: tuple[tuple[RF, ...], ...]):
        if any(len(row) != len(gamma) for row in gamma):
            raise ValueError(f"twist table is not n x n: {len(gamma)} rows of lengths {[len(row) for row in gamma]}")
        self.gamma = gamma

    @property
    def n(self) -> int:
        return len(self.gamma)

    def perturbed(self, a: int, b: int, factor=2) -> "RMatrixSpec":
        """gamma[a][b] times factor; ValueError unless (a, b) is in range and off the diagonal, which no R reads."""
        if a == b or not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"gamma[{a}][{b}] is not an off-diagonal entry of the {self.n} x {self.n} twist table")
        table = [list(row) for row in self.gamma]
        table[a][b] = factor * table[a][b]
        return RMatrixSpec(tuple(tuple(row) for row in table))


def _twist(n: int, entry: Callable[[int, int], RF]) -> RMatrixSpec:
    """The spec whose table holds entry(a, b) off the diagonal and ones on it."""
    return RMatrixSpec(tuple(tuple(RF.one() if a == b else entry(a, b) for b in range(n)) for a in range(n)))


def untwisted_spec(n: int) -> RMatrixSpec:
    return _twist(n, lambda a, b: RF.one())


def free_gamma_spec(n: int) -> RMatrixSpec:
    """Symbolic twist table with the pairing gamma_ba = gamma_ab^{-1}."""

    def entry(a: int, b: int) -> RF:
        if a > b:
            return RF.from_poly(P.monomial({f"gam{b + 1}{a + 1}": -1}))
        return RF.from_poly(P.symbol(f"gam{a + 1}{b + 1}"))

    return _twist(n, entry)


def gauss_gamma_spec(n: int) -> RMatrixSpec:
    """gamma_ab = -g(a - b)/sqrt(v), Gauss sums of modulus n; satisfies the pairing since g(a)g(-a) = v."""
    rules = GaussRules.standard(n)
    uinv = u().monomial_inverse()
    return _twist(n, lambda a, b: RF.from_poly(-gauss_symbol(a - b, rules) * uinv))


def r_gl(spec: RMatrixSpec) -> TensorOperator:
    """R = sum_a u e_aa^2 + sum_{a != b} gamma_ab^{-1} e_aa e_bb + (u - u^{-1}) sum_{a > b} e_ab e_ba.

    The constant term of the parametrized family: r_affine(spec, 0).
    """
    return r_affine(spec, P.zero())


def r_affine(spec: RMatrixSpec, x: LaurentPoly) -> TensorOperator:
    """The parametrized family; r_gl(spec) is r_affine(spec, 0)."""
    n = spec.n
    one = P.one()
    uu = u()
    uinv = uu.monomial_inverse()
    c = RF.from_poly(uu - uinv)
    entries = {}
    for (a, b) in words(n, 2):
        col = word_index((a, b), n)
        if a == b:
            entries[(col, col)] = RF.from_poly(uu - x * uinv)
        else:
            entries[(col, col)] = spec.gamma[a][b].inverse() * (one - x)
            swap = word_index((b, a), n)
            entries[(col, swap)] = c if a > b else x * c
    return TensorOperator((n * n, n * n), entries)


def _transposed_gauss_spec(n: int) -> RMatrixSpec:
    """The Gauss twist gamma_ab = -g(b - a)/u, the transpose of gauss_gamma_spec(n)."""
    gauss = gauss_gamma_spec(n).gamma
    return _twist(n, lambda a, b: gauss[b][a])


def r_tilde(n: int, x: LaurentPoly, rules: GaussRules | None = None) -> TensorOperator:
    """The Gauss-sum normalized family: triangular with tau R(x) tau R(x^{-1}) = I.

    It is -u/(1 - v x) times r_affine(_transposed_gauss_spec(n), x).  The
    Gauss sums have modulus n; rules, if given, must be GaussRules.standard(n).
    """
    if rules is not None and rules != GaussRules.standard(n):
        raise ValueError("Gauss modulus must equal the dimension n")
    return RF(-u(), (P.one() - v() * x,)) * r_affine(_transposed_gauss_spec(n), x)


# -- verifiers --------------------------------------------------------------------


def check_ybe(op: TensorOperator, report: Report | None = None, name: str = "YBE") -> Report:
    """Constant Yang-Baxter equation R12 R13 R23 = R23 R13 R12 on three slots."""
    return check_parametrized_ybe(lambda _: op, report, name)


def check_parametrized_ybe(build: Callable[[LaurentPoly], TensorOperator], report: Report | None = None, name: str = "parametrized YBE") -> Report:
    """R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x) with symbolic x and y."""
    report = report or Report(name)

    def check():
        x, y = P.symbol("x"), P.symbol("y")
        r12 = build(x).embed((0, 1), 3)
        r13 = build(x * y).embed((0, 2), 3)
        r23 = build(y).embed((1, 2), 3)
        return verdict(r12.compose(r13).compose(r23), r23.compose(r13).compose(r12))

    report.run(name, check)
    return report


def hecke_generator(spec: RMatrixSpec) -> TensorOperator:
    """T = u tau R on two tensor factors."""
    return u() * tau_operator(spec.n).compose(r_gl(spec))


def check_hecke(spec: RMatrixSpec, report: Report | None = None, name: str = "hecke relations") -> Report:
    """T = hecke_generator(spec) satisfies T^2 = (v-1)T + v and the order-3 braid on three slots.

    name labels the report and each check, so checks of several tables in one report stay apart.
    """
    n = spec.n
    report = report or Report(f"{name} n={n}")
    t = hecke_generator(spec)
    quadratic(report, applied(lambda _, g: t.compose(g), identity_matrix(n ** 2)), 0, f" ({name}, n={n})")
    slots = [t.embed((i, i + 1), 3) for i in (0, 1)]
    braid(report, applied(lambda i, g: slots[i].compose(g), identity_matrix(n ** 3)), 0, 1, 3, f" ({name}, n={n})")
    return report


def check_triangularity(
    build: Callable[[LaurentPoly], TensorOperator],
    expected: RF,
    report: Report | None = None,
    name: str = "triangularity",
) -> Report:
    """tau R(x) tau R(x^{-1}) equals the expected scalar times the identity."""
    report = report or Report(name)

    def check():
        x = P.symbol("x")
        op_x = build(x)
        op_xinv = build(x.monomial_inverse())
        tau = tau_operator(tensor_base(len(op_x), 2))
        product = tau.compose(op_x).compose(tau).compose(op_xinv)
        return verdict(product, expected * identity_matrix(len(product)))

    report.run(name, check)
    return report


def doubler_scalar() -> RF:
    """(u - x/u)(u - 1/(x u)) -- the composition scalar of the affine family."""
    x = P.symbol("x")
    uu = u()
    uinv = uu.monomial_inverse()
    return RF.from_poly((uu - x * uinv) * (uu - x.monomial_inverse() * uinv))


# -- tensor schema instance --------------------------------------------------------


def tensor_block(n: int, r: int, twist: str = "none", power: int = 1) -> list[TensorOperator]:
    """The identity blocks A(e, i) of the tensor instance, one per i, with X = z^{power alpha_i}.

    Each is sign u/(1 - X) (tau r_affine(spec, X))_{i,i+1} with its entries
    in lowest terms: a twist entry gamma^{-1}(1 - X) of r_affine loses the
    factor 1 - X, and every other entry keeps it as its one denominator
    factor.  twist = "none": sign 1, the untwisted table.
    twist = "gauss" at power 1: sign 1, the Gauss-sum table.  twist = "gauss"
    at power n: sign -1 and the transposed Gauss table; that is the value of
    (1 - v X)/(1 - X) (tau r_tilde(X))_{i,i+1}, the metaplectic dictionary's
    shape, since r_tilde(X) = -u/(1 - v X) r_affine(transposed table, X).
    """
    if twist not in ("none", "gauss"):
        raise ValueError("twist must be 'none' or 'gauss'")
    if power not in (1, n):
        raise ValueError("power must be 1 or n")
    if twist == "gauss" and power == n:
        spec, sign = _transposed_gauss_spec(n), -1
    else:
        spec, sign = (gauss_gamma_spec(n) if twist == "gauss" else untwisted_spec(n)), 1
    tau = tau_operator(n)
    blocks = []
    for i, alpha in enumerate(build_cartan(f"A{r - 1}").simple_coroots):
        x = coroot_monomial(alpha, power)
        scaled = RF(sign * u(), (P.one() - x,)) * tau.compose(r_affine(spec, x))
        lowest = TensorOperator(scaled.shape, {key: entry.cancelled() for key, entry in scaled.entries.items()})
        blocks.append(lowest.embed((i, i + 1), r))
    return blocks


def tensor_schema_instance(n: int, r: int, twist: str = "none", power: int = 1) -> SchemaInstance:
    """The Hecke module on r-fold tensor products of n-dimensional evaluation modules.

    A(w, i) is tensor_block's A(e, i) at the point wz, so X = (wz)^{power alpha_i}.
    """
    blocks = tensor_block(n, r, twist, power)
    name = f"tensor n={n} r={r} twist={twist} power={power}"
    return transported_instance(WeylGroup(build_cartan(f"A{r - 1}")), blocks, (power,) * (r - 1), name)


def check_content_preservation(inst: SchemaInstance, report: Report | None = None) -> Report:
    """Tensor-word content (the gl(n) weight) is preserved by every A entry."""
    report = report or Report(f"{inst.name}: content preservation")

    def check():
        r = inst.cartan.rank + 1  # block_dim = n^r
        all_words = words(tensor_base(inst.block_dim, r), r)
        return first_failing(
            (False, f"A(w={w.name()}, i={i + 1}) entry ({row},{col})", "content changed")
            for (w, i), m in inst.a_matrices.items()
            for row, col in sorted(m.entries)
            if sorted(all_words[row]) != sorted(all_words[col])
        )

    report.run("content preservation", check)
    return report


# -- the z -> 0 limit and the wreath construction -----------------------------------


def wreath_operator(group: WeylGroup, t: Matrix, i: int) -> BlockOperator:
    """The wreath action: T_i phi_{s_i w} on descents, (v-1) + v T_i^{-1} phi_{s_i w} on ascents.

    v T^{-1} = T - (v - 1) = -T* when T satisfies the quadratic relation, so no inverse is computed.
    """
    ascent = -star_matrix(t)
    ident = identity_matrix(len(t))
    blocks = {}
    for w in group:
        sw = group.left_mul_simple(i, w)
        if sw.length < w.length:
            blocks[(w, sw)] = t
        else:
            blocks[(w, w)] = (v() - 1) * ident
            blocks[(w, sw)] = ascent
    return BlockOperator(t.shape, blocks)


def jimbo_t_matrix(n: int, r: int, i: int) -> Matrix:
    """T_i = u (tau R)_{i,i+1} on the r-fold tensor power."""
    return hecke_generator(untwisted_spec(n)).embed((i, i + 1), r)


def limit_instance(n: int, r: int) -> tuple[WeylGroup, list[BlockOperator]]:
    """The z -> 0 specialization of the tensor instance, via exact matrix inversion.

    Diagonal blocks degenerate to 0 or v - 1 per descent, and the off-diagonal
    maps to T = jimbo_t_matrix on descents and v T^{-1} on ascents; T^{-1} is
    computed by Gaussian elimination, independently of the Hecke shortcut
    used by the wreath construction.
    """
    cartan = build_cartan(f"A{r - 1}")
    group = WeylGroup(cartan)
    k = n ** r
    ident = identity_matrix(k)
    ops = []
    for i in range(cartan.rank):
        t = jimbo_t_matrix(n, r, i)
        t_up = v() * mat_inverse(t)
        blocks = {}
        for w in group:
            sw = group.left_mul_simple(i, w)
            if sw.length > w.length:
                blocks[(w, w)] = (v() - 1) * ident
                blocks[(w, sw)] = t_up
            else:
                blocks[(w, sw)] = t
        ops.append(BlockOperator((k, k), blocks))
    return group, ops


def check_finite_hecke(group: WeylGroup, ops: list[BlockOperator], report: Report | None = None, name: str = "finite Hecke") -> Report:
    """Quadratic and braid relations for explicit block operators over W."""
    report = report or Report(name)
    k = ops[0].block_dim
    act = applied(lambda i, g: ops[i].compose(g), identity_operator(group, k))
    return hecke_relations(report, act, group.cartan.braid_orders)


def check_wreath_intertwining(
    group: WeylGroup,
    op: BlockOperator,
    t: Matrix,
    report: Report | None = None,
) -> Report:
    """Delta intertwines the wreath action with T_i, as a matrix identity.

    Delta is the identity at every w, so block w of op Delta is the sum of
    op's block row w, and block w of Delta T is T.
    """
    report = report or Report("wreath intertwining")

    def check():
        return first_failing(
            verdict(sum((block for (target, _), block in op.blocks.items() if target == w), Matrix(t.shape, {})),
                    t, f"block {w.name()} ")
            for w in group
        )

    report.run("Delta intertwining", check)
    return report


def star_matrix(t: Matrix) -> Matrix:
    """T* = (v - 1) - T = -v T^{-1}: the order-2 twist of the Hecke generators."""
    return (v() - 1) * identity_matrix(len(t)) - t


def check_wreath_star(group: WeylGroup, op: BlockOperator, t: Matrix, report: Report | None = None) -> Report:
    """The *-twisted diagonal, verified per T_i-eigenline.

    T* = -v T^{-1} swaps the eigenvalues v and -1.  On the v-eigenline, the
    diagonal with weights (-v)^{l(w)} satisfies wreath(Delta* phi) =
    Delta*(T* phi) = -Delta*(phi); on the (-1)-eigenline the same identity
    holds with weights (-v)^{-l(w)} and value v.  (The single-orientation
    diagonal cannot intertwine both lines at once: expanding the two case
    branches forces T = v there.)
    """
    report = report or Report("wreath star twist")
    k = op.block_dim
    e = group.identity

    def diagonal(column: Matrix, sign: int) -> BlockOperator:
        return BlockOperator((k, 1), {(w, e): (-v()) ** (sign * w.length) * column for w in group})

    def check():
        star = star_matrix(t)
        plus = nullspace(t - v() * identity_matrix(k))
        minus = nullspace(t + identity_matrix(k))
        if len(plus) + len(minus) != k:
            return False, f"eigenspace dims {len(plus)}+{len(minus)}", str(k)
        # T* phi = -phi on the v-eigenline, v phi on the (-1)-eigenline
        return first_failing(
            verdict(op.compose(diagonal(column, sign)), diagonal(star.compose(column), sign), f"{line}-eigenline ")
            for line, sign, basis in (("v", 1, plus), ("(-1)", -1, minus))
            for column in (Matrix((k, 1), {(r, 0): x for r, x in enumerate(phi)}) for phi in basis)
        )

    report.run("Delta* eigenline intertwining", check)
    return report


def check_star_word_identity(group: WeylGroup, t_matrices: list[Matrix], report: Report | None = None) -> Report:
    """T_w^* = (-v)^{l(w)} T_{w^{-1}}^{-1} as exact matrix identities, all w."""
    report = report or Report("star word identity")
    k = len(t_matrices[0])

    def check():
        star_generators = [star_matrix(t) for t in t_matrices]
        stars = applied(lambda i, g: star_generators[i].compose(g), identity_matrix(k))
        hecke = applied(lambda i, g: t_matrices[i].compose(g), identity_matrix(k))
        return first_failing(
            verdict(stars(w.word), (-v()) ** w.length * mat_inverse(hecke(group.inverse(w).word)),
                    f"w={w.name()} ")
            for w in group
        )

    report.run("T_w* = (-v)^l T_{w^-1}^{-1}", check)
    return report
