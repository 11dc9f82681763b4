"""Exact sequences on a uniform grid, with summation and difference operators.

A :class:`GridSeq` stores the values (f(theta*1), ..., f(theta*M)) of a
rational-valued function on a uniform grid of spacing theta; positions
outside the stored window are read as zero, i.e. sequences are finitely
supported on the unbounded grid.  Pointwise products make fixed-window
sequences a commutative algebra, which carries three summation operators:

    sum_incl(f)(m)   = theta * sum_{k=1..m}   f(k theta)    (weight -theta)
    sum_strict(f)(m) = theta * sum_{k=1..m-1} f(k theta)    (weight +theta)
    tail_sum(f)(m)   = theta * sum_{k=m+1..M} f(k theta)    (weight +theta)

each staying inside the window, each Rota-Baxter of the indicated weight:
inclusive lower sums double-count the diagonal of a product of sums, strict
ones miss it.  ``tail_sum`` is the forward summation that builds the
summation tridendriform instance.

The finite-difference operator of step -theta,

    diff(f)(x) = (f(x - theta) - f(x)) / theta,

obeys the skew-derivation rule d(fg) = d(f) g + f d(g) + theta d(f) d(g)
and telescopes against the forward summation: shift_sum(diff(f)) = f.
``diff`` extends the window by one slot; ``shift_sum`` needs a total sum of
zero (always true of differences) to keep its output finitely supported.

A :class:`GridSeq` is a ``scalars.DenseRational`` whose shape is theta: a
tuple of integer numerators over one positive integer denominator, in
lowest terms.  Sums, scaling, equality and hashing come from the base, which
reads a shorter window as padded with zeros; every operator above runs on
ints too and builds no per-entry ``Fraction``.  ``Fraction`` is
used only at the boundary: the constructor, ``theta`` (which must be
positive), the ``scale`` argument, the read-only ``values`` property,
``repr`` and ``to_json``.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .scalars import DenseRational, as_fractions, common_denominator, random_rationals, rational_str, reduced
from .series import CoeffSpace

__all__ = ["GridSeq", "GridSpace", "NonSummable", "random_gridseq"]


class NonSummable(ValueError):
    """shift_sum input has nonzero total, so its tail sums never vanish."""


def _positive_theta(theta: Fraction) -> Fraction:
    if not isinstance(theta, Fraction):
        theta = Fraction(theta)
    if theta <= 0:
        raise ValueError(f"grid spacing theta must be positive, got {theta}")
    return theta


class GridSeq(DenseRational, shape="theta"):
    __slots__ = ("theta",)
    _mismatch = "grid spacing mismatch"

    def __init__(self, theta: Fraction, values: Iterable[Fraction | int]):
        self.theta = _positive_theta(theta)
        self.num, self.den = common_denominator(values)

    @classmethod
    def _make(cls, theta: Fraction, num: tuple[int, ...], den: int) -> "GridSeq":
        """A sequence from numerators and a denominator already in lowest terms."""
        g = object.__new__(cls)
        g.theta, g.num, g.den = theta, num, den
        return g

    @property
    def values(self) -> tuple[Fraction, ...]:
        return as_fractions(self.num, self.den)

    def _like(self, num: tuple[int, ...], den: int) -> "GridSeq":
        g = object.__new__(GridSeq)
        g.theta, g.num, g.den = self.theta, num, den
        return g

    # bench/tracer.py finds span targets only in the class's own dict
    __add__ = DenseRational.__add__

    def __mul__(self, other: "GridSeq") -> "GridSeq":
        a, t = self.num, self.theta
        if type(other) is not GridSeq or len(b := other.num) != len(a) or not (other.theta is t or other.theta == t):
            a, b = self._align(other)  # pads the shorter operand, or raises
        g = object.__new__(GridSeq)
        g.theta = t
        g.num, g.den = reduced(list(map(operator.mul, a, b)), self.den * other.den)
        return g

    def __repr__(self) -> str:
        return f"GridSeq(theta={rational_str(self.theta)}, {[rational_str(v) for v in self.values]})"

    # -- summation operators (window-preserving) ---------------------------
    def _theta_times(self, sums) -> "GridSeq":
        """theta * sums / den, for integer partial sums of the numerators."""
        t = self.theta
        p = t.numerator
        return GridSeq._make(t, *reduced([p * s for s in sums], self.den * t.denominator))

    def sum_incl(self) -> "GridSeq":
        return self._theta_times(accumulate(self.num))

    def sum_strict(self) -> "GridSeq":
        return self._theta_times(list(accumulate(self.num, initial=0))[:-1])

    def tail_sum(self) -> "GridSeq":
        tails = list(accumulate(reversed(self.num), initial=0))[:-1]
        return self._theta_times(tails[::-1])

    # -- unbounded-grid operators ------------------------------------------
    def diff(self) -> "GridSeq":
        """(f(x - theta) - f(x))/theta, supported on one extra right slot."""
        t = self.theta
        q = t.denominator
        padded = (0,) + self.num + (0,)
        num = [q * (padded[i] - padded[i + 1]) for i in range(len(padded) - 1)]
        return GridSeq._make(t, *reduced(num, self.den * t.numerator))

    def shift_sum(self) -> "GridSeq":
        """theta * sum of values strictly beyond each position, on the full grid.

        Requires total sum zero; otherwise the tail below the window is the
        nonzero constant theta*total and the result is not finitely supported.
        """
        if sum(self.num):
            raise NonSummable("total must vanish for a finitely supported tail sum")
        return self.tail_sum()

    def to_json(self) -> dict:
        return {
            "theta": rational_str(self.theta),
            "values": [rational_str(v) for v in self.values],
        }


class GridSpace(CoeffSpace):
    """Fixed-window grid sequences as a commutative coefficient algebra."""

    has_product = True

    def __init__(self, theta: Fraction, length: int):
        self.theta = _positive_theta(theta)
        self.length = length

    def zero(self) -> GridSeq:
        return GridSeq._make(self.theta, (0,) * self.length, 1)

    mul = staticmethod(operator.mul)

    def one(self) -> GridSeq:
        return GridSeq._make(self.theta, (1,) * self.length, 1)


def random_gridseq(rng: random.Random, theta: Fraction, length: int, span: int = 4) -> GridSeq:
    return GridSeq._make(_positive_theta(theta), *random_rationals(rng, length, span))
