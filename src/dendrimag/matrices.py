"""Exact square matrices over the rationals.

Carrier of two structures: the idempotent triangular-projection Rota-Baxter
operator (weight -1), and the associative-degeneration dendriform instance.
Matrices serialize as flat row-major arrays of "p/q" strings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .scalars import rational_str
from .series import CoeffSpace

__all__ = ["RatMatrix", "MatrixSpace", "triangular_project", "random_matrix"]


class RatMatrix:
    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def zeros(cls, n: int) -> "RatMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RatMatrix":
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "RatMatrix":
        return RatMatrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RatMatrix({[[rational_str(a) for a in row] for row in self.rows]})"

    def to_json(self) -> list[str]:
        return [rational_str(a) for row in self.rows for a in row]


class MatrixSpace(CoeffSpace):
    has_product = True

    def __init__(self, n: int):
        self.n = n

    def zero(self) -> RatMatrix:
        return RatMatrix.zeros(self.n)

    def add(self, x: RatMatrix, y: RatMatrix) -> RatMatrix:
        return x + y

    def scale(self, c: Fraction, x: RatMatrix) -> RatMatrix:
        return x.scale(c)

    def is_zero(self, x: RatMatrix) -> bool:
        return x.is_zero()

    def eq(self, x: RatMatrix, y: RatMatrix) -> bool:
        return x == y

    def mul(self, x: RatMatrix, y: RatMatrix) -> RatMatrix:
        return x @ y

    def one(self) -> RatMatrix:
        return RatMatrix.identity(self.n)

    def element_json(self, x: RatMatrix):
        return x.to_json()


def triangular_project(m: RatMatrix) -> RatMatrix:
    """Strictly upper-triangular part of m.

    Both the strictly-upper and the lower-including-diagonal matrices form
    subalgebras, so this projection is idempotent Rota-Baxter of weight -1.
    Projecting onto upper-including-diagonal instead would leave the
    complement (strictly lower) a subalgebra too, but the convention here
    fixes the image to be the nilpotent side.
    """
    return RatMatrix(
        [[a if j > i else Fraction(0) for j, a in enumerate(row)] for i, row in enumerate(m.rows)]
    )


def random_matrix(rng: random.Random, n: int, span: int = 4) -> RatMatrix:
    return RatMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
    )
