"""The concrete algebra instances the verification suites run on.

Three Rota-Baxter instances cover the three operator families:

  * ``triangular_rb``: n x n rational matrices with the idempotent projection
    onto the strictly upper-triangular part (the complement, lower triangular
    including the diagonal, is also a subalgebra); weight -1, noncommutative.
  * ``grid_rb``: rational sequences on a uniform theta-grid with lower
    partial sums, inclusive (weight -theta) or strict (weight +theta);
    commutative.  ``summation_rb`` is the forward-tail variant (weight
    +theta) whose induced operations are the summation tridendriform
    algebra.
  * ``poly_rb`` / ``matrix_poly_rb``: polynomials with exact integration,
    weight 0; scalar coefficients give the commutative (Zinbiel) case and
    matrix coefficients the integration algebra behind the classical Magnus
    and Fer expansions.

``assoc_matrix_dendriform`` is the associative degeneration (prec = product,
succ = 0) on rational matrices.  All sample generators are deterministic
given a ``random.Random`` seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dendriform import AssocDendriform, Tridendriform
from .grids import GridSeq, GridSpace, random_gridseq
from .matrices import MatrixSpace, random_matrix, triangular_project
from .polys import PolySpace, random_poly
from .rota_baxter import RotaBaxter

__all__ = [
    "triangular_rb",
    "grid_rb",
    "summation_rb",
    "SummationTridendriform",
    "poly_rb",
    "matrix_poly_rb",
    "assoc_matrix_dendriform",
    "standard_rb_instances",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729


def triangular_rb(n: int = 3) -> RotaBaxter:
    space = MatrixSpace(n)
    return RotaBaxter(
        f"triangular projection {n}x{n}",
        space,
        Fraction(-1),
        triangular_project,
        lambda rng: random_matrix(rng, n),
        commutative=False,
    )


def grid_rb(theta: Fraction = Fraction(1, 2), length: int = 8, strict: bool = True) -> RotaBaxter:
    """Lower partial sums on the window {theta, ..., length*theta}.

    Strict sums satisfy the weight +theta relation, inclusive sums the
    weight -theta one (the diagonal of a product of sums is counted twice).
    """
    theta = Fraction(theta)
    return RotaBaxter(
        f"grid {'strict' if strict else 'inclusive'} sums (theta={theta}, M={length})",
        GridSpace(theta, length),
        theta if strict else -theta,
        GridSeq.sum_strict if strict else GridSeq.sum_incl,
        lambda rng: random_gridseq(rng, theta, length),
        commutative=True,
    )


def summation_rb(theta: Fraction = Fraction(1), length: int = 8) -> RotaBaxter:
    """Forward-tail sums S(f)(x) = theta * sum_{y > x} f(y); weight +theta."""
    theta = Fraction(theta)
    space = GridSpace(theta, length)
    return RotaBaxter(
        f"grid tail sums (theta={theta}, M={length})",
        space,
        theta,
        GridSeq.tail_sum,
        lambda rng: random_gridseq(rng, theta, length),
        commutative=True,
    )


class SummationTridendriform(Tridendriform):
    """The summation tridendriform algebra, written out directly:

        A < B = A * S(B),   A > B = S(A) * B,   A . B = A * B

    with S the forward-tail summation at theta = 1.  Kept separate from the
    generic Rota-Baxter construction so the two can cross-check each other.
    """

    name = "summation tridendriform"

    def __init__(self, length: int = 8):
        super().__init__(GridSpace(Fraction(1), length))
        self.length = length

    def lt(self, a: GridSeq, b: GridSeq) -> GridSeq:
        return a * b.tail_sum()

    def gt(self, a: GridSeq, b: GridSeq) -> GridSeq:
        return a.tail_sum() * b

    def dot(self, a: GridSeq, b: GridSeq) -> GridSeq:
        return a * b

    def sample(self, rng: random.Random) -> GridSeq:
        return random_gridseq(rng, self.space.theta, self.length)


def poly_rb(max_degree: int = 3) -> RotaBaxter:
    space = PolySpace()
    return RotaBaxter(
        "polynomial integration (scalar)",
        space,
        Fraction(0),
        lambda p: p.integrate(),
        lambda rng: random_poly(rng, max_degree),
        commutative=True,
    )


def matrix_poly_rb(n: int = 2, max_degree: int = 2) -> RotaBaxter:
    space = PolySpace(MatrixSpace(n))
    return RotaBaxter(
        f"polynomial integration ({n}x{n} matrices)",
        space,
        Fraction(0),
        lambda p: p.integrate(),
        lambda rng: random_poly(rng, max_degree, space.base),
        commutative=False,
    )


def assoc_matrix_dendriform(n: int = 3) -> AssocDendriform:
    return AssocDendriform(
        MatrixSpace(n),
        lambda rng: random_matrix(rng, n),
        name=f"associative degeneration ({n}x{n} matrices)",
    )


def standard_rb_instances() -> list[RotaBaxter]:
    """The trio used by the generic suites: triangular, grid, polynomial."""
    return [triangular_rb(), grid_rb(), poly_rb()]
