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

Equivariance.  Write sigma_w(f) = f(wz) (WeylGroup.at_point), so that
sigma_{w1 w2} = sigma_{w2} o sigma_{w1}, applied entry by entry.  An instance
built by transported_instance has A(w, i) = sigma_w(A(e, i)), and then every
T_i, every theta_lambda and every word in them satisfies

    X(t, s) = sigma_s(X(t s^-1, e)),

so two such operators are equal exactly when their block columns at source
e agree: the operators applied to E = {(e, e): I_k}.  The same lemma gives
A(s_i w, i) A(w, i) = sigma_w(A(s_i, i) A(e, i)) and composition_scalar(w, i)
= sigma_w(composition_scalar(e, i)), so each composition check at w has the
verdict of the one at e.

Gauge.  Call a k = 1 instance gauge-certified when nonzero scalars h_w exist
with

    h_{s_i u} A(u, i) = C(x) h_u    for every (u, i),  x = x_monomial(u, i),

C = c_function: A is the spherical instance's block C(x), carried to uz,
conjugated by H = diag(h_w).  The diagonal blocks D_i(wz) are the same in
both instances, so T_i = H^-1 T_i^sph H, and every word X in the T_i and
the theta_lambda (which commute with H) is H^-1 X^sph H.  The spherical
instance is transported, and H E = h_e E, so X = Y iff X^sph = Y^sph iff
X^sph E = Y^sph E iff X E = Y E.  The h's cancel from A(s_i w, i) A(w, i) =
C(x) C(x^-1), so the composition verdict at w is again the one at e.  So
each relation check of a gauge-certified instance has the verdict of the
same check on the spherical instance, whose entries carry no free symbol.

Where an instance is checked.  a_matrices is read-only, so an edit is a
new instance (SchemaInstance.perturbed or replace).  checked_on names the
transported instance whose identity column decides an instance's
relations: itself as transported_instance builds it; for generic_instance
the spherical instance if its gauge holds (decided on first use), else
None; None for every other instance, copies included.  checked_as makes
one act per instance and keeps it: block_action of the named instance on
E, or of the instance itself on the identity operator, so an unchecked
copy is checked on whole |W| x |W| block operators by the same code.  The
quadratic, braid and spherical idempotent checks read its words, and
Bernstein scales its T_i start, composing nothing.  Each T_i is built
once per instance (generator), a transported instance checks composition
at e only, and reports keep the caller's names and titles.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .algebra import LaurentPoly, RationalFunction, exact_divide, v
from .linalg import ZERO, Matrix, first_difference, identity_matrix, mat_mul, sparse_product
from .relations import Act, applied, braid, hecke_relations, quadratic, verdict, weyl_sum
from .reports import Report
from .roots import CartanDatum, WeylElement, WeylGroup, coroot_monomial, weight_monomial, weyl_group_of


class SchemaInstance:
    """The data of one instance.  a_matrices is read-only: a view of a copy of the mapping given.

    Edits go through perturbed or replace, whose copies start with
    checked_on None, no kept generators and no kept act.
    """

    _FIELDS = ("cartan", "group", "block_dim", "a_matrices", "root_scale", "name")
    _KEPT = ("checked_on", "generators", "checked")
    __slots__ = (*_FIELDS, *_KEPT)

    def __init__(self, cartan: CartanDatum, group: WeylGroup, block_dim: int,
                 a_matrices: Mapping[tuple[WeylElement, int], Matrix], root_scale: tuple[int, ...], name: str):
        self.cartan, self.group, self.block_dim = cartan, group, block_dim
        self.a_matrices = MappingProxyType(dict(a_matrices))
        self.root_scale, self.name = root_scale, name
        # the transported instance whose identity column decides this one's relations (checked_as)
        self.checked_on: SchemaInstance | None = None
        # the T_i that generator built, each once
        self.generators: dict[int, BlockOperator] = {}
        self.checked: tuple[SchemaInstance, Act] | None = None  # checked_as's (instance, act), made once

    def replace(self, **changes) -> "SchemaInstance":
        """A new instance with the fields in changes replaced; ValueError for checked_on, generators and checked."""
        refused = sorted(set(self._KEPT) & changes.keys())
        if refused:
            raise ValueError(f"{', '.join(refused)} cannot be replaced: a copy starts with none")
        return SchemaInstance(**{name: getattr(self, name) for name in self._FIELDS} | changes)

    def A(self, w: WeylElement, i: int) -> Matrix:
        try:
            return self.a_matrices[(w, i)]
        except KeyError:
            raise KeyError(f"missing A entry for (w={w.name()}, i={i + 1})") from None

    def x_monomial(self, w: WeylElement, i: int) -> LaurentPoly:
        """(wz)^{scale_i * alpha_i} = z^{w^{-1}(scale_i * alpha_i)}, the monomial z^{scale_i * alpha_i} carried to wz."""
        return self.group.at_point(w, coroot_monomial(self.cartan.simple_coroots[i], self.root_scale[i]))

    def composition_scalar(self, w: WeylElement, i: int) -> RationalFunction:
        """The forced value of A(s_i w, i) A(w, i): C(X) C(X^{-1}) at X = (wz)^{scale alpha_i}."""
        x = self.x_monomial(w, i)
        return c_function(x) * c_function(x.monomial_inverse())

    def perturbed(self, w: WeylElement, i: int, factor=2) -> "SchemaInstance":
        """Copy with one A entry scaled; used as a negative control."""
        a = dict(self.a_matrices)
        a[(w, i)] = factor * self.A(w, i)
        return self.replace(a_matrices=a, name=f"{self.name}-perturbed")


def c_function(x: LaurentPoly) -> RationalFunction:
    """C(x) = (1 - v x)/(1 - x)."""
    one = LaurentPoly.one()
    return RationalFunction(one - v() * x, (one - x,))


def d_function(x: LaurentPoly) -> RationalFunction:
    """D(x) = (1 - v)x/(1 - x), the diagonal scalar of T_i at x = X."""
    one = LaurentPoly.one()
    return RationalFunction((one - v()) * x, (one - x,))


class BlockOperator(Matrix):
    """A Matrix whose entries are k x k blocks keyed (target, source) by Weyl elements.

    shape is the shape of one block: (k, k) for an operator on the sum of
    blocks, (k, 1) for a block vector, whose one source is the identity.
    An all-zero block is not stored.  +, -, scalar * and == are Matrix's;
    compose and difference are linalg's sparse_product and first_difference
    over blocks, so compose raises ValueError when the block shapes do not
    fit.  op[target, source] is op.block(target, source); a block operator
    has no rows, so op[r], row, len and iteration raise TypeError.
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
        return sparse_product(self, other)

    def difference(self, other: "BlockOperator") -> tuple[str, str] | None:
        """None if equal, else renderings of the two block shapes or of the first differing entry (left names it)."""
        if self.shape != other.shape:
            return f"block shape {self.shape}", f"block shape {other.shape}"
        diff = first_difference(self, other)
        if diff is None:
            return None
        t, s = diff[:2]
        left, right = self[t, s].difference(other[t, s])
        return f"block ({t.name()}, {s.name()}) {left}", right


# -- operator constructors -------------------------------------------------------


def build_T(inst: SchemaInstance, i: int) -> BlockOperator:
    """The Hecke generator acting on the sum of blocks.

    Block (w, w) is D_i(wz) I_k, D_i(wz) = D(X) for X = (wz)^{scale alpha_i}
    (:meth:`SchemaInstance.x_monomial`), and block (w, s_i w) is A(s_i w, i).
    """
    k, group = inst.block_dim, inst.group
    blocks: dict[tuple[WeylElement, WeylElement], Matrix] = {}
    for w in group:
        d = d_function(inst.x_monomial(w, i))
        blocks[(w, w)] = Matrix((k, k), {(r, r): d for r in range(k)})
        sw = group.left_mul_simple(i, w)
        blocks[(w, sw)] = inst.A(sw, i)
    return BlockOperator((k, k), blocks)


def scaled_column(scalar, column: BlockOperator) -> BlockOperator:
    """The diagonal operator of scalar applied to column (any start): each block (t, s) times scalar(t)."""
    return BlockOperator(column.shape, {(t, s): scalar(t) * b for (t, s), b in column.blocks.items()})


def theta_scalar(inst: SchemaInstance, lam: Sequence[int]):
    """w -> (wz)^lambda, the diagonal scalar of theta_lambda."""
    return lambda w: weight_monomial(inst.group.inverse(w).act(lam))


def build_theta(inst: SchemaInstance, lam: Sequence[int]) -> BlockOperator:
    """theta_lambda: diagonal block (wz)^lambda * I_k."""
    return scaled_column(theta_scalar(inst, lam), identity_operator(inst.group, inst.block_dim))


def identity_operator(group: WeylGroup, k: int) -> BlockOperator:
    ident = identity_matrix(k)
    return BlockOperator((k, k), {(w, w): ident for w in group})


def spherical_instance(group: WeylGroup, root_scale: tuple[int, ...]) -> SchemaInstance:
    """The k = 1 instance with A(w, i) = C(x_monomial(w, i)), transported: the one the gauge lemma conjugates to."""
    blocks = [Matrix((1, 1), {(0, 0): c_function(coroot_monomial(alpha, scale))})
              for alpha, scale in zip(group.cartan.simple_coroots, root_scale)]
    return transported_instance(group, blocks, root_scale, "spherical")


UNGAUGED = object()  # a generic instance's checked_on until checked_as runs its gauge


def checked_as(inst: SchemaInstance) -> tuple[SchemaInstance, Act]:
    """The instance whose relation checks decide inst's, and the one act they all read.

    The act, made on the first call and kept in inst.checked, is
    block_action of inst.checked_on on E = {(e, e): I_k} when the field
    names an instance, else of inst on the identity operator; act(()) is
    the start.  That call resolves a generic instance's UNGAUGED: to the
    spherical instance if inst passes gauge_certified, else to None.
    """
    if inst.checked is None:
        if inst.checked_on is UNGAUGED:
            inst.checked_on = spherical_instance(inst.group, inst.root_scale) if gauge_certified(inst) else None
        on = inst.checked_on
        if on is None:
            inst.checked = inst, block_action(inst, identity_operator(inst.group, inst.block_dim))
        else:
            e, ident = on.group.identity, identity_matrix(on.block_dim)
            inst.checked = on, block_action(on, BlockOperator(ident.shape, {(e, e): ident}))
    return inst.checked


def gauge_certified(inst: SchemaInstance) -> bool:
    """True iff h_{s_i u} A(u, i) = C(x) h_u for every (u, i), x = x_monomial(u, i), with nonzero h (k = 1 only).

    h is built along first left descents: h_e = 1 and h_w = h_{s_i w}
    A(w, i) / C(x_monomial(w, i)), so only the binomials 1 - v x of C enter
    its denominators, and the |W| - 1 tree edges (w, i) hold by
    construction.  The other |W|(r - 1) + 1 identities are compared with
    ==.  By the gauge lemma in the module docstring, inst's operators are
    then the spherical instance's conjugated by diag(h_w).
    """
    if inst.block_dim != 1:
        return False
    group, rank = inst.group, inst.cartan.rank

    def entry(u: WeylElement, i: int) -> RationalFunction:
        a = inst.a_matrices.get((u, i))
        return ZERO if a is None else a[0, 0]

    h, first = {group.identity: RationalFunction.one()}, {}
    for w in group.elements[1:]:  # by length, so each s_i w comes first
        i = first[w] = next(i for i in range(rank) if group.is_left_descent(i, w))
        a = entry(w, i)
        if a.is_zero():
            return False
        h[w] = h[group.left_mul_simple(i, w)] * a / c_function(inst.x_monomial(w, i))
    return all(
        h[group.left_mul_simple(i, u)] * entry(u, i) == c_function(inst.x_monomial(u, i)) * h[u]
        for u in group for i in range(rank) if first.get(u) != i
    )


def generator(inst: SchemaInstance, i: int) -> BlockOperator:
    """T_i, built once per instance and kept on it (a_matrices is read-only)."""
    kept = inst.generators.get(i)
    if kept is None:
        kept = inst.generators[i] = build_T(inst, i)
    return kept


def block_action(inst: SchemaInstance, start: BlockOperator) -> Act:
    """act(word) = T_word start: each T_i from generator, applied letter by letter, each product kept by word."""
    return applied(lambda i, rest: generator(inst, i).compose(rest), start)


def poincare_polynomial(group: WeylGroup) -> LaurentPoly:
    """sum_w v^{l(w)}."""
    return weyl_sum(lambda word: v() ** len(word), group)


# -- relation checks -------------------------------------------------------------


def check_composition(inst: SchemaInstance, report: Report | None = None) -> Report:
    """A(s_i w, i) A(w, i) equals the forced composition scalar, for every (w, i), on checked_as(inst).

    On a transported instance both sides at w are sigma_w of those at e,
    so once the check at (e, i) passes, every (w, i) check reports that
    verdict.  Until then, and on any other instance, each check forms its
    own product.
    """
    report = report or Report(f"{inst.name}: composition scalar")
    on, _ = checked_as(inst)
    e, ident = on.group.identity, identity_matrix(on.block_dim)
    at_e_only = on.checked_on is on
    passed_at_e: set[int] = set()
    for i in range(on.cartan.rank):
        for w in on.group:
            def check(w=w, i=i):
                if i in passed_at_e:
                    return True, None, None
                sw = on.group.left_mul_simple(i, w)
                result = verdict(mat_mul(on.A(sw, i), on.A(w, i)), on.composition_scalar(w, i) * ident)
                if at_e_only and w == e and result[0]:
                    passed_at_e.add(i)
                return result

            report.run(f"composition scalar (w={w.name()}, i={i + 1})", check)
    return report


def check_quadratic(inst: SchemaInstance, i: int, report: Report | None = None) -> Report:
    """T_i^2 = (v - 1) T_i + v, exactly."""
    report = report or Report(f"{inst.name}: quadratic")
    return quadratic(report, checked_as(inst)[1], i)


def check_braid(inst: SchemaInstance, i: int, j: int, report: Report | None = None) -> Report:
    """Alternating products of length n(i, j) agree, exactly."""
    report = report or Report(f"{inst.name}: braid")
    on, act = checked_as(inst)
    return braid(report, act, i, j, on.cartan.braid_orders[i][j])


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
    weight off the root scale (off_root_scale) fails the check.  Both sides
    are applied to the start of checked_as(inst), E or the identity, with
    which every diagonal operator commutes, so the left side is T_i start
    (the act's word (i,)) with block (t, s) scaled by (tz)^lam - (sz)^{s_i lam}:
    no composition.  On a block (w, s_i w) that factor is 0, so the check
    never reads A and is no negative control for A entries.
    """
    report = report or Report(f"{inst.name}: bernstein")
    (inst, act), lam = checked_as(inst), tuple(lam)

    def check():
        reason = off_root_scale(inst, lam, i)
        if reason:
            return False, f"lambda={lam}, i={i + 1}: {reason}", "Bernstein"
        slam = inst.group.simple(i).act(lam)
        numerator = weight_monomial(lam) - weight_monomial(slam)
        alpha = inst.cartan.simple_coroots[i]
        denominator = LaurentPoly.one() - coroot_monomial(alpha, -inst.root_scale[i])
        rhs = (v() - 1) * exact_divide(numerator, denominator)
        theta, theta_s, t_i = theta_scalar(inst, lam), theta_scalar(inst, slam), act((i,))  # T_i start
        lhs = BlockOperator(t_i.shape, {(t, s): (theta(t) - theta_s(s)) * b for (t, s), b in t_i.blocks.items()})
        return verdict(lhs, scaled_column(lambda w: inst.group.at_point(w, rhs), act(())))

    report.run(f"bernstein lambda={lam} i={i + 1}", check)
    return report


def check_spherical_idempotent(inst: SchemaInstance, report: Report | None = None) -> Report:
    """(sum_w T_w)^2 = (sum_w v^{l(w)}) * sum_w T_w, both sides applied to the start of checked_as(inst).

    With s = sum_w T_w applied to the start, the left side is sum_w T_w
    applied to s (s o s when the start is the identity operator).  It is
    proved by an eigenvector certificate: if T_i s = v s for every i, then
    T_w s, the product along w.word, is v^{l(w)} s letter by letter, so the
    left side is sum_w v^{l(w)} s.  No Hecke relation enters, so the
    certificate is sound on any instance; r generator applications replace
    a second sum over W.  If some T_i s != v s, the identity is computed
    whole, so a failure renders as the first entry where its sides differ.
    s is summed through the kept act of checked_as.  On an identity start
    (a copy) the steps first run on its column at e, E, in an act of their
    own: a failure in block (e, e), the first block first_difference walks,
    is already the whole identity's.
    """
    report = report or Report(f"{inst.name}: spherical idempotent")
    inst, act = checked_as(inst)
    e, start = inst.group.identity, act(())
    column = BlockOperator(start.shape, {(e, e): start[e, e]})

    def sides(on_start: Act) -> tuple[BlockOperator, BlockOperator] | None:
        """None if T_i s = v s for every i, else the two sides of the identity, s summed through on_start."""
        s = weyl_sum(on_start, inst.group)
        on_s = block_action(inst, s)
        if all(on_s((i,)) == v() * s for i in range(inst.cartan.rank)):
            return None
        return weyl_sum(on_s, inst.group), poincare_polynomial(inst.group) * s

    def check():
        got = sides(block_action(inst, column)) if start != column else None
        if got is None or got[0][e, e] == got[1][e, e]:
            got = sides(act)
        return (True, None, None) if got is None else verdict(*got)

    report.run("spherical idempotent", check)
    return report


def verify_instance(
    inst: SchemaInstance,
    lambdas: Sequence[Sequence[int]] = (),
    composition: bool = True,
    spherical: bool = False,
) -> Report:
    """Composition, then quadratic + braid (hecke_relations), Bernstein and idempotent on checked_as's one act."""
    report = Report(f"{inst.name} ({inst.cartan.cartan_type})")
    if composition:
        check_composition(inst, report)
    on, act = checked_as(inst)
    hecke_relations(report, act, on.cartan.braid_orders)
    for lam in lambdas:
        for i in range(inst.cartan.rank):
            check_bernstein(inst, lam, i, report)
    if spherical:
        check_spherical_idempotent(inst, report)
    return report


# -- instances transported from their identity blocks ---------------------------


def transported_instance(group: WeylGroup, blocks: Sequence[Matrix], root_scale: tuple[int, ...], name: str) -> SchemaInstance:
    """The instance with A(w, i) = blocks[i] at the point wz; each A(w, i) keeps its block's type.

    Equal entries, keyed by (num, den), are one object across all the
    A(w, i), and each distinct entry is mapped to wz once per w.  The matrix
    kernels memoize by object identity (see linalg), so each kernel call of
    the relation checks computes one product or sum per distinct pair of values.
    """
    shared: dict[tuple, RationalFunction] = {}

    def share(x: RationalFunction) -> RationalFunction:
        return shared.setdefault((x.num, x.den), x)

    entries = [{key: share(x) for key, x in block.entries.items()} for block in blocks]
    distinct = {id(x): x for block in entries for x in block.values()}
    a_matrices: dict[tuple[WeylElement, int], Matrix] = {}
    for w in group:
        image = {key: share(group.at_point(w, x)) for key, x in distinct.items()}
        for i, block in enumerate(blocks):
            a_matrices[(w, i)] = type(block)(block.shape, {key: image[id(x)] for key, x in entries[i].items()})
    inst = SchemaInstance(group.cartan, group, blocks[0].shape[0], a_matrices, root_scale, name)
    inst.checked_on = inst
    return inst


# -- the generic (free-symbol) instance -------------------------------------------


def intertwiner_symbol(i: int, w: WeylElement) -> str:
    """a{i}_{word(w)}: the free symbol for the map out of a descent block."""
    return f"a{i + 1}_{w.name()}"


def generic_instance(cartan: CartanDatum, group: WeylGroup | None = None) -> SchemaInstance:
    """Free-symbol instance: k = 1, one invertible symbol a{i+1}_{w} per element w != e.

    W is walked by length, carrying f_w with f_e = 1.  The first left descent
    i of w gets its free symbol a, and f_w = f_{s_i w} / a; every other
    descent j gets the forced value f_{s_j w} / f_w.  Ascent entries are the
    composition-scalar-forced quotients.  When i and j are both descents, w
    tops its coset W_{ij} u, and the braid constraint of the coset is a bare
    product identity along its two maximal chains (both enumerate the
    coset's positive coroots, so the forced C-factor pairs cancel).  Every
    other edge of the chains is shorter or is (w, i), so the identity fixes
    A(w, j), and the f-quotients satisfy it by telescoping (for A2:
    a2_121 = a1_121*a2_21*a1_1/(a1_12*a2_2)).  The instance is built
    unchecked: checked_as runs the gauge check on first use.
    """
    group = weyl_group_of(cartan, group)
    empty = SchemaInstance(cartan, group, 1, {}, (1,) * cartan.rank, "generic")  # for its composition_scalar
    a_matrices: dict[tuple[WeylElement, int], Matrix] = {}
    f = {group.identity: RationalFunction.one()}
    for w in group:
        for i in range(cartan.rank):
            if not group.is_left_descent(i, w):
                continue
            sw = group.left_mul_simple(i, w)  # a descent's entry, and the ascent sw whose entry it forces
            if w in f:
                a = f[sw] / f[w]
            else:
                a = RationalFunction.from_poly(LaurentPoly.symbol(intertwiner_symbol(i, w)))
                f[w] = f[sw] / a
            a_matrices[(w, i)] = Matrix((1, 1), {(0, 0): a})
            a_matrices[(sw, i)] = Matrix((1, 1), {(0, 0): empty.composition_scalar(sw, i) / a})
    inst = empty.replace(a_matrices=a_matrices)
    inst.checked_on = UNGAUGED
    return inst
