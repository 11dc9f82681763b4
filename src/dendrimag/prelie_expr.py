"""Formal pre-Lie expressions in one generator, and term-count reduction.

A :class:`PreLieExpr` is a full binary parenthesization of the single
generator ``a`` under one binary operation, printed "(E>E)".  Rational
combinations of such expressions are the free magma algebra; they become
interesting when interpreted in an actual pre-Lie algebra, where the left
pre-Lie identity

    (x>y)>z - x>(y>z) = (y>x)>z - y>(x>z)

collapses distinct expressions.  Rooted trees are the free pre-Lie algebra,
so two combinations are equal there exactly when their rooted-tree images
agree.  ``minimal_forms`` finds every fewest-monomial representative of a
homogeneous combination by an exact sparsest-preimage solve over that linear
map, so the count it returns is proven minimal.  It walks the candidate zero
sets depth first, carrying a fraction-free reduced echelon form of the
prefix, and drops a prefix with every superset as soon as its newest kernel
row is dependent: at degree 5 (14 expressions onto 9 trees, kernel
dimension 5) that leaves 438 of the 2002 subsets to solve.  One
fraction-free Gauss-Jordan step, ``_extend``, is the only elimination: it
grows the walk's prefix and also builds the kernel basis.  Degree 6 (kernel
dimension 22 over 42 expressions) stays out of reach and is refused.
``rewrite_reduce`` picks one of the forms deterministically.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, lcm
from typing import Callable

from .lincomb import LinComb, LinCombSpace, bilinear, combine
from .rooted import rooted_ops, rooted_trees_of_degree
from .scalars import reduced

__all__ = [
    "PreLieExpr",
    "GEN",
    "FormalPreLieOps",
    "formal_ops",
    "eval_combo",
    "eval_rooted",
    "eval_planar",
    "monomial_count",
    "minimal_forms",
    "rewrite_reduce",
    "MAX_REDUCE_DEGREE",
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

    def __init__(self):
        self.space = LinCombSpace()

    def rhd(self, x: LinComb, y: LinComb) -> LinComb:
        return _join(x, y)

    def generator(self) -> LinComb:
        return LinComb.single(GEN)


@cache
def formal_ops() -> FormalPreLieOps:
    return FormalPreLieOps()


def eval_combo(combo: LinComb, gen_value, rhd: Callable):
    """Interpret the combination with the given generator image and product;
    shared subexpressions are evaluated once."""
    memo: dict = {}

    def value(e: PreLieExpr):
        got = memo.get(e)
        if got is None:
            got = memo[e] = gen_value if e.is_gen else rhd(value(e.left), value(e.right))
        return got

    return combine(((c, value(e)) for e, c in combo.num.items()), combo.den)


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


# Degree 6 would mean C(42, 22), about 5e11, kernel subsets.
MAX_REDUCE_DEGREE = 5


@lru_cache(maxsize=None)
def _expressions_of_degree(n: int) -> tuple[PreLieExpr, ...]:
    """All Catalan(n-1) expressions of degree n (1, 1, 2, 5, 14, ...)."""
    if n == 1:
        return (GEN,)
    return tuple(
        PreLieExpr(left, right)
        for k in range(1, n)
        for left in _expressions_of_degree(k)
        for right in _expressions_of_degree(n - k)
    )


def _extend(pivots: tuple, det: int, row: list[int], ncols: int) -> tuple[tuple, int] | None:
    """One fraction-free Gauss-Jordan step (Bareiss, Math. Comp. 22 (1968)).

    ``pivots`` is a fraction-free reduced echelon form: pairs (column, row),
    each row holding ``det`` in its own column and 0 in the other pivot
    columns.  ``row``, reduced against them, has the next-order minors as
    entries with no division.  Returns None when it is zero in the first
    ``ncols`` columns (dependent), else the grown pivots, the old rows updated
    by Bareiss's exact division by ``det``, and the new common pivot value.
    """
    new = [det * v for v in row]
    for c, p in pivots:
        f = row[c]
        if f:
            new = [x - f * y for x, y in zip(new, p)]
    col = next((j for j in range(ncols) if new[j]), None)
    if col is None:
        return None
    a = new[col]
    grown = tuple((c, [(a * x - p[col] * y) // det for x, y in zip(p, new)]) for c, p in pivots)
    return grown + ((col, new),), a


@lru_cache(maxsize=None)
def _kernel(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer basis of the kernel of eval_rooted on the degree-n expressions.

    Vectors are indexed like ``_expressions_of_degree(n)``; there are
    Catalan(n-1) minus the number of rooted trees of degree n of them.
    """
    exprs = _expressions_of_degree(n)
    images = [eval_rooted(LinComb.single(e)) for e in exprs]
    den = lcm(*(img.den for img in images))
    rows = [[img.num.get(t, 0) * (den // img.den) for img in images] for t in rooted_trees_of_degree(n)]
    pivots, det = (), 1
    for row in rows:
        pivots, det = _extend(pivots, det, row, len(exprs)) or (pivots, det)
    basis = []
    for free in sorted(set(range(len(exprs))) - {c for c, _ in pivots}):
        v = [0] * len(exprs)
        v[free] = det
        for col, row in pivots:
            v[col] = -row[free]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return tuple(basis)


def _rank(c: LinComb):
    # fewer monomials first; small coefficients (|p| + q of each p/q) and short strings break ties
    den = c.den
    return (
        c.support_count(),
        sum((abs(v) + den) // gcd(v, den) for v in c.num.values()),
        tuple(sorted(str(e) for e in c.num)),
    )


def _independent_prefixes(rows: list[list[int]], d: int, start: int = 0, pivots: tuple = (), det: int = 1):
    """Yield (pivots, det) for every sorted d-subset of ``rows`` whose first d
    columns are independent, in lexicographic order of the subsets.

    ``pivots`` and ``det`` are the prefix after one :func:`_extend` step per
    row.  A row that ``_extend`` finds dependent in the first d columns drops
    the prefix it would grow and every superset of it.
    """
    if len(pivots) == d:
        yield pivots, det
        return
    for z in range(start, len(rows) - (d - len(pivots)) + 1):
        grown = _extend(pivots, det, rows[z], d)
        if grown is not None:
            yield from _independent_prefixes(rows, d, z + 1, *grown)


def _leaf_form(pivots: tuple, det: int, x0: list[int], den: int, kernel) -> tuple[tuple[int, ...], int]:
    """x0 + K y, over den, for a full-rank zero set: ``reduced`` numerators and
    denominator.  Row (c, r) of the reduced prefix holds det * y_c last, so
    det * x = det * x0 + K (det * y)."""
    x = [det * v for v in x0]
    for c, r in pivots:
        y = r[-1]
        if y:
            x = [v + y * k for v, k in zip(x, kernel[c])]
    if det < 0:
        x, det = [-v for v in x], -det
    return reduced(x, det * den)


def minimal_forms(combo: LinComb) -> list[LinComb]:
    """Every combination with the fewest monomials equal to ``combo`` in the
    free pre-Lie algebra, in ``_rank`` order.

    The equal combinations are x0 + K y, for x0 the coefficients of combo
    and K a kernel basis of the rooted-tree evaluation, of dimension d.  A
    fewest-monomial x vanishes on d coordinates where K has rank d (were the
    rank lower, a kernel direction would zero one more coordinate), so
    solving K_Z y = -x0_Z over every full-rank d-subset Z finds all of them:
    a proven minimum.  The subsets are walked depth first over the rows
    [K_z | -x0_z], one :func:`_extend` step per row, and a prefix whose
    newest row depends on the earlier ones is dropped with all its supersets
    (:func:`_independent_prefixes`).  At degree 5 (d = 5 over 14
    expressions; kernel rows 0 and 6 are zero) 438 of the C(14, 5) = 2002
    subsets have full rank, and only those are solved.  Degrees above
    ``MAX_REDUCE_DEGREE`` raise ``ValueError``: at degree 6 the kernel has
    dimension 22 over 42 expressions, C(42, 22) (about 5e11) subsets, which
    no pruning of dependent prefixes brings within reach.
    """
    if combo.is_zero():
        return [combo]
    degs = {e.degree for e in combo.num}
    if len(degs) > 1:
        raise ValueError("minimal_forms expects a homogeneous combination")
    (n,) = degs
    if n > MAX_REDUCE_DEGREE:
        raise ValueError(f"degree {n} is above the supported {MAX_REDUCE_DEGREE}")
    exprs = _expressions_of_degree(n)
    kernel = _kernel(n)
    d = len(kernel)
    x0, den = [combo.num.get(e, 0) for e in exprs], combo.den
    rows = [[k[z] for k in kernel] + [-v] for z, v in enumerate(x0)]
    best, found = len(exprs), set()
    for pivots, det in _independent_prefixes(rows, d):
        x, q = _leaf_form(pivots, det, x0, den, kernel)
        size = len(x) - x.count(0)
        if size < best:
            best, found = size, set()
        if size == best:
            found.add((x, q))
    forms = sorted((LinComb._make({e: v for e, v in zip(exprs, x) if v}, q) for x, q in found), key=_rank)
    target = eval_rooted(combo)
    if any(eval_rooted(f) != target for f in forms):
        raise AssertionError("minimal_forms produced an inequivalent combination")
    return forms


def rewrite_reduce(combo: LinComb) -> LinComb:
    """The fewest-monomial form of a homogeneous combination of degree at
    most ``MAX_REDUCE_DEGREE``, ties broken by ``_rank``; see
    :func:`minimal_forms`.  The result is equal to the input in the
    rooted-tree model."""
    return minimal_forms(combo)[0]
