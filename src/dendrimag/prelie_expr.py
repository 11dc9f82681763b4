"""Formal pre-Lie expressions in one generator, and term-count reduction.

A :class:`PreLieExpr` is a full binary parenthesization of the single
generator ``a`` under one binary operation, printed "(E>E)".  Rational
combinations of such expressions are the free magma algebra; they become
interesting when interpreted in an actual pre-Lie algebra, where the left
pre-Lie identity

    (x>y)>z - x>(y>z) = (y>x)>z - y>(x>z)

collapses distinct expressions.  ``rewrite_reduce`` searches for shorter
representatives of a combination by applying that identity as a two-way
rewrite; soundness (equality in the free pre-Lie algebra of rooted trees) is
asserted on every result, minimality is best effort only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable

from .lincomb import LinComb, LinCombSpace, bilinear
from .rooted import rooted_ops

__all__ = [
    "PreLieExpr",
    "GEN",
    "FormalPreLieOps",
    "formal_ops",
    "eval_expr",
    "eval_combo",
    "eval_rooted",
    "eval_planar",
    "monomial_count",
    "rewrite_reduce",
    "BudgetExhausted",
]


class PreLieExpr:
    """Interned expression tree: the generator, or a pair (left > right)."""

    __slots__ = ("left", "right", "degree", "_str")
    _cache: dict[tuple[int, int], "PreLieExpr"] = {}
    _gen: "PreLieExpr | None" = None

    def __new__(cls, left: "PreLieExpr | None" = None, right: "PreLieExpr | None" = None):
        if (left is None) != (right is None):
            raise ValueError("an application needs both operands")
        if left is None:
            if cls._gen is None:
                g = object.__new__(cls)
                g.left = g.right = None
                g.degree = 1
                g._str = "a"
                cls._gen = g
            return cls._gen
        key = (id(left), id(right))
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self.degree = left.degree + right.degree
        self._str = f"({left._str}>{right._str})"
        # setdefault is atomic: a thread that lost the race gets the winner's object
        return cls._cache.setdefault(key, self)

    @property
    def is_gen(self) -> bool:
        return self.left is None

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"PreLieExpr[{self._str}]"


GEN = PreLieExpr()


_join = bilinear(lambda ex, ey: LinComb.single(PreLieExpr(ex, ey)))


class FormalPreLieOps:
    """The free magma algebra on one generator: rhd joins expressions formally.

    Feeding this to the Magnus recursion yields the expansion's raw pre-Lie
    monomial combination, before any identity is applied.
    """

    name = "formal-prelie-expressions"

    def __init__(self):
        self.space = LinCombSpace()

    def rhd(self, x: LinComb, y: LinComb) -> LinComb:
        return _join(x, y)

    def generator(self) -> LinComb:
        return LinComb.single(GEN)


@cache
def formal_ops() -> FormalPreLieOps:
    return FormalPreLieOps()


class BudgetExhausted(RuntimeError):
    """Search budget ran out before any shorter form was found.

    ``best`` carries the best combination seen (equal to the input value).
    """

    def __init__(self, best: LinComb):
        super().__init__("rewrite budget exhausted without improvement")
        self.best = best


def eval_expr(e: PreLieExpr, gen_value, rhd: Callable, _memo=None):
    """Interpret the expression with the given generator image and product."""
    if _memo is None:
        _memo = {}
    got = _memo.get(e)
    if got is not None:
        return got
    if e.is_gen:
        val = gen_value
    else:
        val = rhd(eval_expr(e.left, gen_value, rhd, _memo), eval_expr(e.right, gen_value, rhd, _memo))
    _memo[e] = val
    return val


def eval_combo(combo: LinComb, gen_value, rhd: Callable):
    memo: dict = {}
    terms = []
    for e, c in combo.terms.items():
        terms.extend((b, c * v) for b, v in eval_expr(e, gen_value, rhd, memo).terms.items())
    return LinComb(terms)


def eval_rooted(combo: LinComb) -> LinComb:
    """Expansion in the rooted-tree basis (the universal pre-Lie model)."""
    ops = rooted_ops()
    return eval_combo(combo, ops.generator(), ops.rhd)


def eval_planar(combo: LinComb) -> LinComb:
    """Expansion in the free dendriform model through its derived rhd."""
    from .pbt import free_dendriform

    dend = free_dendriform()
    return eval_combo(combo, dend.generator(), dend.rhd)


def monomial_count(combo: LinComb) -> int:
    return combo.support_count()


@lru_cache(maxsize=None)
def _local_rewrites(e: PreLieExpr) -> tuple[tuple[tuple[PreLieExpr, Fraction], ...], ...]:
    """All one-step rewrites of e by the pre-Lie identity at any position.

    Each entry is a tuple of (expression, coefficient) replacing e:
      (x>y)>z  ->  x>(y>z) + (y>x)>z - y>(x>z)
      x>(y>z)  ->  (x>y)>z - (y>x)>z + y>(x>z)
    applied at the root, plus every rewrite of a subexpression propagated up.
    """
    if e.is_gen:
        return ()
    results: list[tuple[tuple[PreLieExpr, Fraction], ...]] = []
    l, r = e.left, e.right
    if not l.is_gen:  # root matches (x>y)>z
        x, y, z = l.left, l.right, r
        results.append(
            (
                (PreLieExpr(x, PreLieExpr(y, z)), Fraction(1)),
                (PreLieExpr(PreLieExpr(y, x), z), Fraction(1)),
                (PreLieExpr(y, PreLieExpr(x, z)), Fraction(-1)),
            )
        )
    if not r.is_gen:  # root matches x>(y>z)
        x, y, z = l, r.left, r.right
        results.append(
            (
                (PreLieExpr(PreLieExpr(x, y), z), Fraction(1)),
                (PreLieExpr(PreLieExpr(y, x), z), Fraction(-1)),
                (PreLieExpr(y, PreLieExpr(x, z)), Fraction(1)),
            )
        )
    for repl in _local_rewrites(l):
        results.append(tuple((PreLieExpr(sub, r), c) for sub, c in repl))
    for repl in _local_rewrites(r):
        results.append(tuple((PreLieExpr(l, sub), c) for sub, c in repl))
    return tuple(results)


def _neighbors(combo: LinComb):
    for mono, coeff in combo.terms.items():
        removal = LinComb.single(mono, -coeff)
        for repl in _local_rewrites(mono):
            delta = removal + LinComb([(sub, coeff * c) for sub, c in repl])
            if not delta.is_zero():
                yield combo + delta


def _state_key(combo: LinComb):
    return frozenset(combo.terms.items())


def rewrite_reduce(combo: LinComb, budget: int = 4000, beam: int = 16) -> LinComb:
    """Best-effort shortening of a pre-Lie expression combination.

    Beam search over single applications of the pre-Lie identity (both
    directions, any position, any monomial), exploring at most ``budget``
    states.  Returns the representative with the fewest monomials found,
    never more than the input's.  The result is asserted equal to the input
    in the rooted-tree model.  If the budget runs out with search states
    still open and no improvement found, raises :class:`BudgetExhausted`
    with the best (input-equivalent) combination attached.
    """
    if combo.is_zero():
        return combo
    degs = {e.degree for e in combo.terms}
    if len(degs) > 1:
        raise ValueError("rewrite_reduce expects a homogeneous combination")

    def rank(c: LinComb):
        # fewer monomials first; small coefficients and short strings break ties
        return (
            c.support_count(),
            sum(abs(v.numerator) + v.denominator for v in c.terms.values()),
            tuple(sorted(str(e) for e in c.terms)),
        )

    best = combo
    visited = {_state_key(combo)}
    frontier = [combo]
    expansions = 0
    while frontier and expansions < budget:
        next_frontier = []
        for state in frontier:
            if expansions >= budget:
                break
            expansions += 1
            for nb in _neighbors(state):
                k = _state_key(nb)
                if k in visited:
                    continue
                visited.add(k)
                next_frontier.append(nb)
                if rank(nb) < rank(best):
                    best = nb
        next_frontier.sort(key=rank)
        frontier = next_frontier[:beam]

    if eval_rooted(best) != eval_rooted(combo):
        raise AssertionError("rewrite produced an inequivalent combination")
    if frontier and best.support_count() >= combo.support_count():
        # budget ran dry with states still open and nothing shorter found
        raise BudgetExhausted(best)
    return best
