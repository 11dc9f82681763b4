"""Planar binary trees and the free dendriform algebra on one generator.

Basis objects are planar binary trees; the degree counts internal nodes and
the leaf alone stands in for the adjoined unit during the recursive products.
Writing s = s_l v s_r for the grafting of the two subtrees onto a new root,
the half-products of basis trees are

    s prec t = s_l v (s_r * t),        s succ t = (s * t_l) v t_r,

extended bilinearly, with the leaf acting through the unit rules.  Degree-n
basis trees are counted by the n-th Catalan number.

Trees are interned, so equality is identity, hashing is O(1) and the basis
products memoize cleanly.  The string grammar is "o" for the leaf and
"(L^R)" for a node; it is the canonical form used by the CLI and in JSON.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache

from .dendriform import Dendriform, UndefinedUnitProduct
from .lincomb import LinComb, LinCombSpace, bilinear, combine

__all__ = [
    "PBT",
    "LEAF",
    "GENERATOR",
    "trees_of_degree",
    "ascii_render",
    "FreeDendriform",
    "free_dendriform",
]


class PBT:
    """An interned planar binary tree; left/right are None only on the leaf."""

    __slots__ = ("left", "right", "degree", "_str")
    _cache: dict[tuple[int, int], "PBT"] = {}
    _leaf: "PBT | None" = None

    def __new__(cls, left: "PBT | None" = None, right: "PBT | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a node needs both subtrees")
        if left is None:
            if cls._leaf is None:
                leaf = object.__new__(cls)
                leaf.left = leaf.right = None
                leaf.degree = 0
                leaf._str = "o"
                cls._leaf = leaf
            return cls._leaf
        key = (id(left), id(right))
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self.degree = left.degree + right.degree + 1
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


@lru_cache(maxsize=None)
def _star_basis(s: PBT, t: PBT) -> LinComb:
    """Unit-aware star on basis trees; the leaf is the structural unit."""
    if s is LEAF and t is LEAF:
        return LinComb.single(LEAF)
    if s is LEAF:
        return LinComb.single(t)
    if t is LEAF:
        return LinComb.single(s)
    return _prec_basis(s, t) + _succ_basis(s, t)


@lru_cache(maxsize=None)
def _prec_basis(s: PBT, t: PBT) -> LinComb:
    if s is LEAF or t is LEAF:
        raise UndefinedUnitProduct("basis half-products take trees of degree >= 1")
    grafted = _star_basis(s.right, t)
    # w -> s_l v w is injective, so the numerators stay distinct and in lowest terms
    return LinComb._make({PBT(s.left, w): c for w, c in grafted.num.items()}, grafted.den)


@lru_cache(maxsize=None)
def _succ_basis(s: PBT, t: PBT) -> LinComb:
    if s is LEAF or t is LEAF:
        raise UndefinedUnitProduct("basis half-products take trees of degree >= 1")
    grafted = _star_basis(s, t.left)
    return LinComb._make({PBT(w, t.right): c for w, c in grafted.num.items()}, grafted.den)


@lru_cache(maxsize=None)
def _rhd_basis(s: PBT, t: PBT) -> LinComb:
    """s rhd t = s succ t - t prec s on basis trees of degree >= 1."""
    return combine(((1, _succ_basis(s, t)), (-1, _prec_basis(t, s))))


class FreeDendriform(Dendriform):
    """The free dendriform algebra on one generator, over planar binary trees.

    ``star`` and ``rhd`` each extend one cached basis product, so a product
    of combinations is one ``combine`` pass; ``lhd`` is ``-(b rhd a)``.
    """

    name = "free-dendriform"

    def __init__(self):
        super().__init__(LinCombSpace())
        self._prec = bilinear(_prec_basis)
        self._succ = bilinear(_succ_basis)
        self._star = bilinear(_star_basis)
        self._rhd = bilinear(_rhd_basis)

    def prec(self, a: LinComb, b: LinComb) -> LinComb:
        return self._prec(a, b)

    def succ(self, a: LinComb, b: LinComb) -> LinComb:
        return self._succ(a, b)

    def star(self, a: LinComb, b: LinComb) -> LinComb:
        return self._star(a, b)

    def rhd(self, a: LinComb, b: LinComb) -> LinComb:
        return self._rhd(a, b)

    def lhd(self, a: LinComb, b: LinComb) -> LinComb:
        return -self._rhd(b, a)  # a prec b - b succ a = -(b succ a - a prec b)

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
    """The shared instance (products are memoized globally, reuse it)."""
    return FreeDendriform()
