"""Exact square matrices over the rationals.

Carrier of two structures: the idempotent triangular-projection Rota-Baxter
operator (weight -1), and the associative-degeneration dendriform instance.

A :class:`RatMatrix` is a ``scalars.DenseRational`` of shape n: a flat
row-major tuple of n*n integer numerators over one positive integer
denominator, in lowest terms.  Sums, scaling, equality and hashing come from
the base; the product and the projection run on ints too, so no operation
builds a per-entry ``Fraction``.  ``Fraction`` is
used only at the boundary: the constructor from user rows, the ``scale``
argument, the read-only ``rows`` property, ``repr`` and ``to_json``.
Matrices serialize as flat row-major arrays of "p/q" strings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import Iterable

from .scalars import DenseRational, as_fractions, common_denominator, random_rationals, rational_str, reduced
from .series import CoeffSpace

__all__ = ["RatMatrix", "MatrixSpace", "triangular_project", "random_matrix"]


class RatMatrix(DenseRational, shape="n"):
    __slots__ = ("n",)
    _mismatch = "dimension mismatch"

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        rows = [list(row) for row in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.num, self.den = common_denominator(x for row in rows for x in row)

    @classmethod
    def _make(cls, n: int, num: tuple[int, ...], den: int) -> "RatMatrix":
        """A matrix from numerators and a denominator already in lowest terms."""
        m = object.__new__(cls)
        m.n, m.num, m.den = n, num, den
        return m

    @classmethod
    def zeros(cls, n: int) -> "RatMatrix":
        return cls._make(n, (0,) * (n * n), 1)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._make(n, tuple(int(k % (n + 1) == 0) for k in range(n * n)), 1)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        entries = as_fractions(self.num, self.den)
        n = self.n
        return tuple(entries[i * n : (i + 1) * n] for i in range(n))

    def _like(self, num: tuple[int, ...], den: int) -> "RatMatrix":
        m = object.__new__(RatMatrix)
        m.n, m.num, m.den = self.n, num, den
        return m

    # bench/tracer.py finds span targets only in the class's own dict
    __add__ = DenseRational.__add__
    scale = DenseRational.scale

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        a, b = self._align(other)
        n = self.n
        cols = [b[j::n] for j in range(n)]
        num = [sum(map(mul, a[i : i + n], col)) for i in range(0, n * n, n) for col in cols]
        return RatMatrix._make(n, *reduced(num, self.den * other.den))

    def __repr__(self) -> str:
        return f"RatMatrix({[[rational_str(a) for a in row] for row in self.rows]})"

    def to_json(self) -> list[str]:
        return [rational_str(a) for a in as_fractions(self.num, self.den)]


class MatrixSpace(CoeffSpace):
    has_product = True

    def __init__(self, n: int):
        self.n = n

    def zero(self) -> RatMatrix:
        return RatMatrix.zeros(self.n)

    def mul(self, x: RatMatrix, y: RatMatrix) -> RatMatrix:
        return x @ y

    def one(self) -> RatMatrix:
        return RatMatrix.identity(self.n)


def triangular_project(m: RatMatrix) -> RatMatrix:
    """Strictly upper-triangular part of m.

    Both the strictly-upper and the lower-including-diagonal matrices form
    subalgebras, so this projection is idempotent Rota-Baxter of weight -1.
    Projecting onto upper-including-diagonal instead would leave the
    complement (strictly lower) a subalgebra too, but the convention here
    fixes the image to be the nilpotent side.
    """
    n = m.n
    num = [a if k % n > k // n else 0 for k, a in enumerate(m.num)]
    return RatMatrix._make(n, *reduced(num, m.den))


def random_matrix(rng: random.Random, n: int, span: int = 4) -> RatMatrix:
    return RatMatrix._make(n, *random_rationals(rng, n * n, span))
