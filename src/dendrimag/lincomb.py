"""Finitely supported rational linear combinations of basis objects.

Basis objects (planar binary trees, rooted trees, pre-Lie expressions) are
immutable and hashable, carry a ``degree`` and render to their canonical
string form via ``str``.  A :class:`LinComb` maps basis objects to nonzero
Fractions; zero coefficients are dropped on construction so that equality is
plain dict equality and support counts mean what they say.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

from .scalars import rational_str
from .series import CoeffSpace

__all__ = ["LinComb", "LinCombSpace", "bilinear"]


_ZERO = Fraction(0)


def _accumulate(acc: dict[Any, Fraction], items: Iterable[tuple[Any, Fraction]]) -> dict[Any, Fraction]:
    """Add each (basis, coeff) into acc in place, dropping coefficients that cancel.

    Sums start from Fraction(0), so int coefficients come out as Fractions.
    """
    for basis, coeff in items:
        c = acc.get(basis, _ZERO) + coeff
        if c:
            acc[basis] = c
        else:
            acc.pop(basis, None)
    return acc


class LinComb:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Any, Fraction] | Iterable[tuple[Any, Fraction]] = ()):
        self.terms = _accumulate({}, terms.items() if isinstance(terms, Mapping) else terms)

    @classmethod
    def single(cls, basis: Any, coeff: Fraction | int = 1) -> "LinComb":
        return cls([(basis, Fraction(coeff))])

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        res = LinComb.__new__(LinComb)
        res.terms = _accumulate(dict(self.terms), other.terms.items())
        return res

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "LinComb":
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "LinComb":
        res = LinComb.__new__(LinComb)
        res.terms = {} if c == 0 else {b: c * v for b, v in self.terms.items()}
        return res

    def coeff(self, basis: Any) -> Fraction:
        return self.terms.get(basis, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def support_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Any, Fraction]]:
        return sorted(self.terms.items(), key=lambda bc: (bc[0].degree, str(bc[0])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
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
    """LinComb as a series coefficient space; a product may be plugged in."""

    def __init__(self, mul: Callable[[LinComb, LinComb], LinComb] | None = None):
        self._mul = mul
        self.has_product = mul is not None

    def zero(self) -> LinComb:
        return LinComb.zero()

    def add(self, x: LinComb, y: LinComb) -> LinComb:
        return x + y

    def scale(self, c: Fraction, x: LinComb) -> LinComb:
        return x.scale(c)

    def is_zero(self, x: LinComb) -> bool:
        return x.is_zero()

    def eq(self, x: LinComb, y: LinComb) -> bool:
        return x == y

    def mul(self, x: LinComb, y: LinComb) -> LinComb:
        if self._mul is None:
            raise NotImplementedError("this LinComb space declares no product")
        return self._mul(x, y)

    def element_json(self, x: LinComb):
        return x.to_json()


def bilinear(f: Callable[[Any, Any], LinComb]) -> Callable[[LinComb, LinComb], LinComb]:
    """Extend a basis-pair product to linear combinations."""

    def ext(x: LinComb, y: LinComb) -> LinComb:
        acc: dict[Any, Fraction] = {}
        for bx, cx in x.terms.items():
            for by, cy in y.terms.items():
                c = cx * cy
                _accumulate(acc, ((b, c * v) for b, v in f(bx, by).terms.items()))
        res = LinComb.__new__(LinComb)
        res.terms = acc
        return res

    return ext
