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


class LinComb:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Any, Fraction] | Iterable[tuple[Any, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Any, Fraction] = {}
        for basis, coeff in items:
            c = acc.get(basis, Fraction(0)) + coeff
            if c == 0:
                acc.pop(basis, None)
            else:
                acc[basis] = c
        self.terms = acc

    @classmethod
    def single(cls, basis: Any, coeff: Fraction | int = 1) -> "LinComb":
        return cls([(basis, Fraction(coeff))])

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        out = dict(self.terms)
        for b, c in other.terms.items():
            s = out.get(b, Fraction(0)) + c
            if s == 0:
                out.pop(b, None)
            else:
                out[b] = s
        res = LinComb.__new__(LinComb)
        res.terms = out
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
        out = LinComb.zero()
        for bx, cx in x.terms.items():
            for by, cy in y.terms.items():
                out = out + f(bx, by).scale(cx * cy)
        return out

    return ext
