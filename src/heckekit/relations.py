"""One verifier for the quadratic and braid relations of every Hecke module.

A module reaches the verifier as act(word) = T_word f, the word
T_{word[0]} ... T_{word[-1]} in its generators applied to one start f, one
letter at a time (`applied`): a schema instance keeps one act, on the
identity or its column E at e (schema.checked_as), whose T_i f Bernstein
scales; tensor operators start at the identity, Demazure operators at the
element they act on, such as a monomial z^mu.  The relations

    T_i^2 = (v - 1) T_i + v,    T_i T_j T_i ... = T_j T_i T_j ...  (m letters)

are then the same code for all of them, with the one v = u^2 of algebra.v, and
`monomial_relations` runs them on each monomial z^mu of a weight list.  A value only
needs `+`, scalar `*` on the left and a way to show where two values differ (`verdict`).
"""

from __future__ import annotations

from functools import cache, reduce
from operator import add
from typing import Callable, Iterable, Sequence, TypeVar

from .algebra import LaurentPoly, RationalFunction, v
from .reports import Report
from .roots import WeylGroup, weight_monomial

T = TypeVar("T")
Word = tuple[int, ...]
Act = Callable[[Word], T]
Verdict = tuple[bool, str | None, str | None]


def verdict(lhs, rhs, where: str = "") -> Verdict:
    """(True, None, None) if lhs equals rhs, else (False, lhs, rhs) renderings.

    Polynomials and rational functions are compared with == and rendered
    whole; matrices and operators name their first differing entry through
    their difference() method.  where prefixes the left rendering.
    """
    if isinstance(lhs, (LaurentPoly, RationalFunction)):
        diff = None if lhs == rhs else (lhs.render(), rhs.render())
    else:
        diff = lhs.difference(rhs)
    return (True, None, None) if diff is None else (False, where + diff[0], diff[1])


def first_failing(verdicts: Iterable[Verdict]) -> Verdict:
    """The first failing verdict of a family, else (True, None, None); no later member is computed."""
    return next((result for result in verdicts if not result[0]), (True, None, None))


def applied(step: Callable[[int, T], T], f: T) -> Act:
    """act(word) on one vector: T_word f, applying step(i, g) = T_i g letter by letter, right to left.

    Results are kept by word for the life of this act, so words with a
    common suffix (T_i f inside T_i T_i f, or T_{s_i w} f inside T_w f)
    share its work.
    """
    memo: dict[Word, T] = {(): f}

    def act(word: Word) -> T:
        word = tuple(word)
        if word not in memo:
            memo[word] = step(word[0], act(word[1:]))
        return memo[word]

    return act


def weyl_sum(act: Act, group: WeylGroup) -> T:
    """sum_w act(w.word) over the elements w of group: the spherical element sum_w T_w, through act."""
    return reduce(add, (act(w.word) for w in group))


def quadratic(report: Report, act: Act, i: int, suffix: str = "") -> Report:
    """T_i^2 = (v - 1) T_i + v, v = u^2 the one Hecke parameter of every module."""
    report.run(f"quadratic T_{i + 1}{suffix}", lambda: verdict(act((i, i)), (v() - 1) * act((i,)) + v() * act(())))
    return report


def braid(report: Report, act: Act, i: int, j: int, m: int, suffix: str = "") -> Report:
    """The two alternating words of length m in T_i and T_j agree."""
    left = tuple(i if t % 2 == 0 else j for t in range(m))
    right = tuple(j if t % 2 == 0 else i for t in range(m))
    report.run(f"braid T_{i + 1} T_{j + 1} (order {m}){suffix}", lambda: verdict(act(left), act(right)))
    return report


def hecke_relations(report: Report, act: Act, braid_orders: Sequence[Sequence[int]], suffix: str = "") -> Report:
    """Every quadratic relation, then every braid relation, of the finite Hecke algebra."""
    rank = len(braid_orders)
    for i in range(rank):
        quadratic(report, act, i, suffix)
    for i in range(rank):
        for j in range(i + 1, rank):
            braid(report, act, i, j, braid_orders[i][j], suffix)
    return report


def monomial_relations(report: Report, act_on: Callable[[LaurentPoly], Act], weights, braid_orders) -> Report:
    """hecke_relations on each monomial z^mu of weights, acted on by act_on(z^mu), suffixed " on z^mu".

    act_on(z^mu) is made once per weight, inside its first check, so a
    weight off the lattice fails each of its checks instead of raising.
    """
    for mu in weights:
        made = cache(lambda mu=mu: act_on(weight_monomial(mu)))  # a raise is not cached: each check raises it
        hecke_relations(report, lambda word, made=made: made()(word), braid_orders, f" on z^{tuple(mu)}")
    return report
