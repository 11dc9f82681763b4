"""Planar binary trees and the free dendriform algebra on one generator.

Basis objects are planar binary trees; the degree counts internal nodes and
the leaf alone stands in for the adjoined unit during the recursive products.
Writing s = s_l v s_r for the grafting of the two subtrees onto a new root,
the half-products of basis trees are

    s prec t = s_l v (s_r * t),        s succ t = (s * t_l) v t_r,

extended bilinearly, with the leaf acting through the unit rules.  These are
the half-products of Loday & Ronco (Adv. Math. 139 (1998)); in their algebra
the product s * t of two trees is a sum of distinct trees, each with
coefficient 1.

Degree-n basis trees are counted by the Catalan number C_n, and
``trees_of_degree(n)`` lists them by left degree, then left tree, then right
tree.  So every tree carries its position ``index`` there, computed when it
is interned: for a node (L^R) of degree n,

    index = off(n, deg L) + index(L) * C_(deg R) + index(R),
    off(n, i) = sum_{k<i} C_k C_(n-1-k).

The free products then run on positions alone.  A ``FreeDendriform``
instance holds one table, filled on demand, whose row for a basis pair
(s, t) lists the positions of the trees of s * t.  The half-products are
star rows seen through affine grafting maps, with n = deg s + deg t:

    s prec t:  row (s_r, t) under k -> off(n, deg s_l) + index(s_l) * C_(deg s_r + deg t) + k,
    s succ t:  row (s, t_l) under k -> off(n, deg s + deg t_l) + k * C_(deg t_r) + index(t_r),

and s rhd t = s succ t - t prec s needs no row of its own.  The two maps
land in disjoint blocks (left degree below deg s, resp. at least deg s),
which is why s * t = s prec t + s succ t stays a sum of distinct trees.

The products run as two kernels over a list of operand pairs, one for *
and one for weighted sums of the half-products.  A kernel brings every
pair to one common denominator, adds the rows of all their basis pairs
into one int sum per output degree and builds one ``LinComb``.  The
instance registers the five products in its space's ``kernels`` table, so
a whole degree of a series product of carriers costs one accumulator.

Trees are interned by (degree, index), so equality is identity, hashing is
O(1) and the tree at a position is one lookup once it has been built.  The
string grammar is "o" for the leaf and "(L^R)" for a node; it is the
canonical form used by the CLI and in JSON.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress
from math import comb, gcd, lcm
from operator import attrgetter
from typing import Sequence

from .dendriform import Dendriform, UndefinedUnitProduct
from .lincomb import LinComb, LinCombSpace

__all__ = [
    "PBT",
    "LEAF",
    "GENERATOR",
    "trees_of_degree",
    "ascii_render",
    "FreeDendriform",
    "free_dendriform",
]


@cache
def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@cache
def _offsets(n: int) -> tuple[int, ...]:
    """off(n, i) = sum_{k<i} C_k C_(n-1-k) for i = 0..n: where the degree-n
    trees with a degree-i left subtree start in trees_of_degree(n)."""
    out = [0]
    for k in range(n):
        out.append(out[-1] + _catalan(k) * _catalan(n - 1 - k))
    return tuple(out)


class PBT:
    """An interned planar binary tree; left/right are None only on the leaf.

    ``index`` is the tree's position in ``trees_of_degree(degree)``.
    """

    __slots__ = ("left", "right", "degree", "index", "_str")
    _cache: dict[tuple[int, int], "PBT"] = {}
    _leaf: "PBT | None" = None

    def __new__(cls, left: "PBT | None" = None, right: "PBT | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a node needs both subtrees")
        if left is None:
            if cls._leaf is None:
                leaf = object.__new__(cls)
                leaf.left = leaf.right = None
                leaf.degree = leaf.index = 0
                leaf._str = "o"
                cls._leaf = leaf
            return cls._leaf
        n = left.degree + right.degree + 1
        key = (n, _offsets(n)[left.degree] + left.index * _catalan(right.degree) + right.index)
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self.degree, self.index = key
        self._str = f"({left._str}^{right._str})"
        # setdefault is atomic: a thread that lost the race gets the winner's object
        return cls._cache.setdefault(key, self)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"PBT[{self._str}]"


LEAF = PBT()
GENERATOR = PBT(LEAF, LEAF)


@lru_cache(maxsize=None)
def trees_of_degree(n: int) -> tuple[PBT, ...]:
    """All planar binary trees with n internal nodes (Catalan(n) of them)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return (LEAF,)
    out = []
    for i in range(n):
        for left in trees_of_degree(i):
            for right in trees_of_degree(n - 1 - i):
                out.append(PBT(left, right))
    return tuple(out)


def ascii_render(t: PBT) -> str:
    """Indented two-branch rendering; purely cosmetic."""
    lines: list[str] = []

    def rec(node: PBT, prefix: str, tag: str) -> None:
        lines.append(prefix + tag + ("o" if node is LEAF else "*"))
        if node is not LEAF:
            rec(node.left, prefix + "   ", "/ ")
            rec(node.right, prefix + "   ", "\\ ")

    rec(t, "", "")
    return "\n".join(lines)


def _tree_at(n: int, k: int) -> PBT:
    """trees_of_degree(n)[k], built from the Catalan offsets without listing the degree."""
    hit = PBT._cache.get((n, k))
    if hit is not None:
        return hit
    if n == 0:
        return LEAF
    offs = _offsets(n)
    i = bisect_right(offs, k) - 1
    q, r = divmod(k - offs[i], _catalan(n - 1 - i))
    return PBT(_tree_at(i, q), _tree_at(n - 1 - i, r))


def _by_degree(x: LinComb) -> dict[int, list[tuple[PBT, int]]]:
    """The (tree, numerator) terms of x, grouped by degree."""
    out: dict[int, list[tuple[PBT, int]]] = {}
    for t, v in x.num.items():
        out.setdefault(t.degree, []).append((t, v))
    return out


def _degree_counts(x: LinComb) -> Counter[int]:
    return Counter(map(attrgetter("degree"), x.num))


def _sums(pairs: Sequence[tuple[LinComb, LinComb]]) -> tuple[int, dict[int, list[int] | defaultdict[int, int]]]:
    """The common denominator of a sum of pair products, and one empty
    numerator sum over it per output degree, indexed by tree position.

    A row of a degree-i tree by a degree-j tree holds at most C(i+j, i)
    positions (the tests check i + j <= 8), so the basis pairs, summed over
    all operand pairs, bound how many trees of degree n the sum can reach.
    Where that bound reaches C_n the sum is a list over trees_of_degree(n),
    the faster of the two; below it the sum is a dict of positions, so a
    sparse sum never lists or scans its whole degree.  Only degree counts are
    read here: the kernels split one operand pair at a time.
    """
    den = 1
    bound: defaultdict[int, int] = defaultdict(int)
    for a, b in pairs:
        den = lcm(den, a.den * b.den)
        ys = _degree_counts(b)
        for i, p in _degree_counts(a).items():
            for j, q in ys.items():
                bound[i + j] += p * q * comb(i + j, i)
    sums = {n: [0] * _catalan(n) if b >= _catalan(n) else defaultdict(int) for n, b in bound.items()}
    return den, sums


def _lincomb(sums: dict[int, list[int] | defaultdict[int, int]], den: int) -> LinComb:
    """The LinComb with numerator sums[n][k] on trees_of_degree(n)[k], over den."""
    num = {}
    for n, d in sums.items():
        if isinstance(d, list):
            num.update(zip(compress(trees_of_degree(n), d), filter(None, d)))
        else:
            num.update((_tree_at(n, k), v) for k, v in d.items() if v)
    g = gcd(den, *num.values())
    if g != 1:
        num = {t: v // g for t, v in num.items()}
    return LinComb._make(num, den // g)


class FreeDendriform(Dendriform):
    """The free dendriform algebra on one generator, over planar binary trees.

    All products read the instance's one table of star rows (module
    docstring) through two kernels over a list of operand pairs: ``_star_sum``
    adds up s * t, and ``_half_sum`` adds up w_succ (s succ t) + w_prec (t prec s),
    the half-products read through the affine grafting maps.  A kernel brings
    every pair to one denominator (see ``_sums``), adds every basis pair into
    one int sum per output degree and builds one ``LinComb`` at the end.  The
    five products are these kernels on one pair, with ``rhd(a, b) =
    succ(a, b) - prec(b, a)`` and ``lhd(a, b) = prec(a, b) - succ(b, a)``.
    The carrier space is a plain ``LinCombSpace`` whose ``kernels`` table,
    set here and never changed, hands whole degrees of series products of
    the five to the kernels.  Rows are published whole, so threads may share
    an instance.
    """

    name = "free-dendriform"

    def __init__(self):
        super().__init__(LinCombSpace())
        self._rows: dict[tuple[PBT, PBT], tuple[int, ...]] = {}
        half, swap = self._half_sum, lambda pairs: [(b, a) for a, b in pairs]
        self.space.kernels = {
            self.star: self._star_sum,
            self.rhd: lambda pairs: half(pairs, 1, -1),
            self.succ: lambda pairs: half(pairs, 1, 0),
            self.prec: lambda pairs: half(swap(pairs), 0, 1),
            self.lhd: lambda pairs: half(swap(pairs), -1, 1),
        }

    def _row(self, s: PBT, t: PBT) -> tuple[int, ...]:
        """Positions in trees_of_degree(deg s + deg t) of the trees of s * t."""
        row = self._rows.get((s, t))
        if row is not None:
            return row
        if s is LEAF:
            row = (t.index,)
        elif t is LEAF:
            row = (s.index,)
        else:
            offs = _offsets(s.degree + t.degree)
            sl, sr, tl, tr = s.left, s.right, t.left, t.right
            base = offs[sl.degree] + sl.index * _catalan(sr.degree + t.degree)
            prec = [base + k for k in self._row(sr, t)]
            base, stride = offs[s.degree + tl.degree] + tr.index, _catalan(tr.degree)
            row = tuple(prec + [base + k * stride for k in self._row(s, tl)])
        # setdefault publishes whole rows: a thread that lost the race reads the winner's
        return self._rows.setdefault((s, t), row)

    def _star_sum(self, pairs) -> LinComb:
        """sum(a * b for a, b in pairs)."""
        rows, row_of = self._rows, self._row
        den, sums = _sums(pairs)
        for a, b in pairs:
            f = den // (a.den * b.den)
            ys_by_degree = _by_degree(b)
            for i, xs in _by_degree(a).items():
                for j, ys in ys_by_degree.items():
                    d = sums[i + j]
                    for s, u in xs:
                        fu = f * u
                        for t, v in ys:
                            c = fu * v
                            for k in rows.get((s, t)) or row_of(s, t):
                                d[k] += c
        return _lincomb(sums, den)

    def _half_sum(self, pairs, w_succ: int, w_prec: int) -> LinComb:
        """sum(w_succ * (a succ b) + w_prec * (b prec a) for a, b in pairs), read
        per basis pair (s, t) of a and b: s succ t = (s * t_l) v t_r is row
        (s, t_l) strided by the count of t_r's, t prec s = t_l v (t_r * s) is
        row (t_r, s) shifted into the block of t_l."""
        if any(LEAF in a.num or LEAF in b.num for a, b in pairs):
            raise UndefinedUnitProduct("basis half-products take trees of degree >= 1")
        rows, row_of = self._rows, self._row
        den, sums = _sums(pairs)
        for a, b in pairs:
            f = den // (a.den * b.den)
            f_succ, f_prec = f * w_succ, f * w_prec
            xs_by_degree = _by_degree(a)
            for j, ys in _by_degree(b).items():
                for i, xs in xs_by_degree.items():
                    d, offs = sums[i + j], _offsets(i + j)
                    for t, v in ys:
                        tl, tr = t.left, t.right
                        succ_base, stride = offs[i + tl.degree] + tr.index, _catalan(tr.degree)
                        prec_base = offs[tl.degree] + tl.index * _catalan(tr.degree + i)
                        for s, u in xs:
                            if f_succ:
                                c = f_succ * u * v
                                for k in rows.get((s, tl)) or row_of(s, tl):
                                    d[succ_base + k * stride] += c
                            if f_prec:
                                c = f_prec * u * v
                                for k in rows.get((tr, s)) or row_of(tr, s):
                                    d[prec_base + k] += c
        return _lincomb(sums, den)

    def star(self, a: LinComb, b: LinComb) -> LinComb:
        return self._star_sum([(a, b)])

    def prec(self, a: LinComb, b: LinComb) -> LinComb:
        return self._half_sum([(b, a)], 0, 1)

    def succ(self, a: LinComb, b: LinComb) -> LinComb:
        return self._half_sum([(a, b)], 1, 0)

    def rhd(self, a: LinComb, b: LinComb) -> LinComb:
        return self._half_sum([(a, b)], 1, -1)  # a succ b - b prec a

    def lhd(self, a: LinComb, b: LinComb) -> LinComb:
        return self._half_sum([(b, a)], -1, 1)  # a prec b - b succ a

    def generator(self) -> LinComb:
        return LinComb.single(GENERATOR)

    def sample(self, rng: random.Random) -> LinComb:
        terms = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            tree = rng.choice(trees_of_degree(deg))
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms.append((tree, coeff))
        c = LinComb(terms)
        return c if not c.is_zero() else LinComb.single(GENERATOR)


@cache
def free_dendriform() -> FreeDendriform:
    """The shared instance; it holds the product table, so reuse it."""
    return FreeDendriform()
