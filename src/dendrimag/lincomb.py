"""Finitely supported rational linear combinations of basis objects.

Basis objects (planar binary trees, rooted trees, pre-Lie expressions) are
immutable and hashable, carry a ``degree`` and render to their canonical
string form via ``str``.  A :class:`LinComb` stores nonzero int numerators
``num`` (basis -> int) over one positive ``den``, in lowest terms (zero has
``den == 1``), so equality is plain ``(num, den)`` equality.  Arithmetic runs
on ints through one accumulator (:func:`combine`); ``Fraction`` appears only
at the boundary: the constructor, ``scale``'s argument, ``coeff``, ``terms``
and the text/JSON renderings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterable, Mapping, Sequence

from .scalars import ratio, rational_str
from .series import CoeffSpace

__all__ = ["LinComb", "LinCombSpace", "bilinear", "combine"]


def combine(pairs: Iterable[tuple[int, "LinComb"]], den: int = 1) -> "LinComb":
    """sum(c * x for c, x in pairs) / den, for int c and a positive int den: one
    int dict over a running denominator, rescaled only when x.den does not
    divide it, and one gcd pass at the end."""
    acc: dict[Any, int] = {}
    run = 1
    for c, x in pairs:
        xd = x.den
        if run % xd:
            m = xd // gcd(run, xd)
            for b in acc:
                acc[b] *= m
            run *= m
        f = c * (run // xd)
        get = acc.get
        for b, v in x.num.items():
            acc[b] = get(b, 0) + f * v
    num = {b: v for b, v in acc.items() if v}
    den *= run
    g = gcd(den, *num.values())
    if g != 1:
        num, den = {b: v // g for b, v in num.items()}, den // g
    return LinComb._make(num, den)


class LinComb:
    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[Any, Fraction] | Iterable[tuple[Any, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        res = combine((1, LinComb.single(b, c)) for b, c in items)
        self.num, self.den = res.num, res.den

    @classmethod
    def _make(cls, num: dict[Any, int], den: int) -> "LinComb":
        """A combination from numerators and a denominator already in lowest terms."""
        res = object.__new__(cls)
        res.num, res.den = num, den
        return res

    @classmethod
    def single(cls, basis: Any, coeff: Fraction | int = 1) -> "LinComb":
        p, q = ratio(coeff)
        return cls._make({basis: p} if p else {}, q if p else 1)

    @classmethod
    def zero(cls) -> "LinComb":
        return cls._make({}, 1)

    @property
    def terms(self) -> dict[Any, Fraction]:
        """basis -> nonzero Fraction coefficient (a fresh dict on every read)."""
        den = self.den
        return {b: Fraction(v, den) for b, v in self.num.items()}

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        # combinations are never mutated, so a zero operand can hand back the other
        if not other.num:
            return self
        if not self.num:
            return other
        return combine(((1, self), (1, other)))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        return combine(((1, self), (-1, other)))

    def __neg__(self) -> "LinComb":
        return LinComb._make({b: -v for b, v in self.num.items()}, self.den)

    def scale(self, c: Fraction | int) -> "LinComb":
        p, q = ratio(c)
        if not p:
            return LinComb.zero()
        # gcd(p, q) == 1 and the input is in lowest terms, so only p/den and q/num can cancel
        g, h = gcd(p, self.den), gcd(q, *self.num.values())
        p, q = p // g, q // h
        if p == 1 and h == 1:  # only den changes; combinations are never mutated, so share num
            return LinComb._make(self.num, self.den // g * q)
        return LinComb._make({b: p * (v // h) for b, v in self.num.items()}, self.den // g * q)

    def coeff(self, basis: Any) -> Fraction:
        return Fraction(self.num.get(basis, 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def support_count(self) -> int:
        return len(self.num)

    def sorted_terms(self) -> list[tuple[Any, Fraction]]:
        return sorted(self.terms.items(), key=lambda bc: (bc[0].degree, str(bc[0])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for b, c in self.sorted_terms():
            if c == 1:
                parts.append(str(b))
            elif c == -1:
                parts.append(f"-{b}")
            else:
                parts.append(f"{rational_str(c)} {b}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LinComb({self})"

    def to_json(self) -> dict:
        return {str(b): rational_str(c) for b, c in self.sorted_terms()}


class LinCombSpace(CoeffSpace):
    """LinComb as a series coefficient space, without a product."""

    def zero(self) -> LinComb:
        return LinComb.zero()

    def sum(self, terms: Sequence[LinComb]) -> LinComb:
        return combine((1, t) for t in terms)


def bilinear(f: Callable[[Any, Any], LinComb]) -> Callable[[LinComb, LinComb], LinComb]:
    """Extend a basis-pair product to linear combinations (over x.den * y.den)."""

    def ext(x: LinComb, y: LinComb) -> LinComb:
        ys = y.num.items()
        return combine(((cx * cy, f(bx, by)) for bx, cx in x.num.items() for by, cy in ys), x.den * y.den)

    return ext
