"""Non-planar rooted trees with grafting: the free left pre-Lie algebra.

A rooted tree is a root with a multiset of rooted-tree children; the degree
counts vertices.  Children are kept in a canonical order (by degree, then
canonical string), so structural equality is decidable by interning exactly
as for planar trees.  The grafting product

    s rhd t = sum over vertices v of t of (t with the root of s attached
              as a new child of v)

makes rational linear combinations of rooted trees the free left pre-Lie
algebra on the one-vertex tree.  Identities that hold here hold in every
left pre-Lie algebra, which is what makes this module the oracle for
rewriting experiments on pre-Lie expressions.

String grammar: "a" for a single vertex, "a[c1,c2,...]" with children in
canonical order.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .lincomb import LinComb, LinCombSpace, bilinear

__all__ = [
    "RootedTree",
    "VERTEX",
    "rooted_trees_of_degree",
    "graft",
    "RootedGraftOps",
    "rooted_ops",
]


class RootedTree:
    """Interned rooted tree; children are canonically sorted at construction."""

    __slots__ = ("children", "degree", "_str")
    _cache: dict[tuple[int, ...], "RootedTree"] = {}

    def __new__(cls, children: tuple["RootedTree", ...] = ()):
        kids = tuple(sorted(children, key=lambda t: (t.degree, t._str)))
        key = tuple(id(k) for k in kids)
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.children = kids
        self.degree = 1 + sum(k.degree for k in kids)
        self._str = "a" if not kids else "a[" + ",".join(k._str for k in kids) + "]"
        # setdefault is atomic: a thread that lost the race gets the winner's object
        return cls._cache.setdefault(key, self)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"RootedTree[{self._str}]"


VERTEX = RootedTree()


@lru_cache(maxsize=None)
def rooted_trees_of_degree(n: int) -> tuple[RootedTree, ...]:
    """All rooted trees with n vertices (1, 1, 2, 4, 9, 20, 48, ...)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return (VERTEX,)
    pool: list[RootedTree] = []
    for d in range(1, n):
        pool.extend(rooted_trees_of_degree(d))
    # forests: multisets from the pool, chosen in nondecreasing pool index
    out: set[RootedTree] = set()

    def rec(remaining: int, start: int, acc: tuple[RootedTree, ...]) -> None:
        if remaining == 0:
            out.add(RootedTree(acc))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.degree <= remaining:
                rec(remaining - t.degree, i, acc + (t,))

    rec(n - 1, 0, ())
    return tuple(sorted(out, key=lambda t: t._str))


@lru_cache(maxsize=None)
def _graft_basis(s: RootedTree, t: RootedTree) -> LinComb:
    num = {RootedTree(t.children + (s,)): 1}  # onto the root
    for i, child in enumerate(t.children):
        rest = t.children[:i] + t.children[i + 1 :]
        for sub, c in _graft_basis(s, child).num.items():
            tree = RootedTree(rest + (sub,))
            num[tree] = num.get(tree, 0) + c
    # positive integer multiplicities: no zero entry, and den == 1 is lowest terms
    return LinComb._make(num, 1)


graft = bilinear(_graft_basis)


class RootedGraftOps:
    """The free left pre-Lie algebra as a pre-Lie ops bundle (space + rhd)."""

    def __init__(self):
        self.space = LinCombSpace()

    def rhd(self, a: LinComb, b: LinComb) -> LinComb:
        return graft(a, b)

    def generator(self) -> LinComb:
        return LinComb.single(VERTEX)


@cache
def rooted_ops() -> RootedGraftOps:
    return RootedGraftOps()
