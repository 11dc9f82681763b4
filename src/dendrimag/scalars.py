"""Exact scalar arithmetic: rational numbers, the dense carrier base, Bernoulli numbers.

The scalar field throughout the exact half of this package is the rationals.
Single scalars (weights, Bernoulli numbers, user-facing scales, the grid
spacing) are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  The carriers instead store integer numerators
over one shared positive denominator, computed in ints and kept in lowest
terms by one ``gcd`` pass per result (:func:`reduced`): the dense
``RatMatrix``, ``GridSeq`` and ``Poly`` (over rationals or rational
matrices) share their linear arithmetic, equality and hashing through
:class:`DenseRational` here, the sparse ``LinComb`` runs on a dict through
``lincomb.combine``.  ``Fraction`` appears there only at the boundary (for
the dense ones, :func:`common_denominator` in and :func:`as_fractions` out;
the samplers draw ints through :func:`random_rationals`).  This module also
has the serialization helpers ("p/q" strings) used by every JSON payload,
and the Bernoulli numbers that drive the Magnus recursion, memoized by
``functools.cache``.

Bernoulli convention
--------------------
``bernoulli(m)`` returns B_m for the generating function

    z / (exp(z) - 1) = sum_{m >= 0} (B_m / m!) z^m
                     = 1 - z/2 + z^2/12 - z^4/720 + ...

so B_0 = 1, B_1 = -1/2, B_2 = 1/6, B_3 = 0, B_4 = -1/30.  The sign of B_1 is
load-bearing: with B_1 = +1/2 the weighted Magnus fixed point no longer
exponentiates to the solution of X = 1 + lambda a < X.  Use
``bernoulli_weight(m)`` for the combination B_m/m! (the z^m coefficient of the
generating function) that appears in the expansion formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "Fraction",
    "bernoulli",
    "bernoulli_weight",
    "rational_str",
    "ratio",
    "reduced",
    "random_rationals",
    "common_denominator",
    "as_fractions",
    "DenseRational",
]


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or plain "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ratio(c) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or rational c, read without a
    new ``Fraction``; any other type goes through ``Fraction(c)``."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


def reduced(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The vector num/den, for a positive den, in lowest terms: gcd(den, *num) == 1.

    The zero vector comes out with den == 1, so equal vectors have equal
    (num, den) pairs.
    """
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple([x // g for x in num]), den // g


def random_rationals(rng: random.Random, count: int, span: int) -> tuple[tuple[int, ...], int]:
    """count rationals randint(-span, span) / randint(1, 3), drawn in that order,
    as int numerators over one denominator in lowest terms (no ``Fraction``)."""
    pq = [(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(count)]
    den = lcm(*(q for _, q in pq))
    return reduced([p * (den // q) for p, q in pq], den)


def common_denominator(values: Iterable[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator.

    The result is already in the form :func:`reduced` returns: a prime
    dividing the lcm to its full power divides the denominator of some
    entry, whose numerator it does not divide.
    """
    pq = [ratio(v) for v in values]
    den = lcm(*(q for _, q in pq))
    return tuple(p * (den // q) for p, q in pq), den


def as_fractions(num: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """The entries num/den as Fractions (the read-only boundary)."""
    return tuple(Fraction(x, den) for x in num)


class DenseRational:
    """A shape plus a tuple ``num`` of int numerators over one positive ``den``,
    in lowest terms (:func:`reduced`).

    A subclass names the slot that holds its shape in its class statement,
    ``class RatMatrix(DenseRational, shape="n")``, and defines ``_like(num,
    den)`` (an element of its own type and shape from numerators already in
    lowest terms) and ``_mismatch`` (the message of the ``ValueError`` raised
    when shapes differ).  Two operands of one type and shape may hold
    numerator tuples of different lengths: the shorter one reads as padded
    with zeros, so trailing zeros change neither equality nor the hash.
    Operands of different types raise ``TypeError`` and never compare equal.
    """

    __slots__ = ("num", "den")
    _mismatch = "shape mismatch"

    def __init_subclass__(cls, shape: str, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slot's own descriptor, so self._shape reads the shape without a call
        cls._shape = vars(cls)[shape]

    def _like(self, num: tuple[int, ...], den: int) -> "DenseRational":
        raise NotImplementedError

    def _align(self, other: "DenseRational") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The numerators of self and other, the shorter one padded with zeros;
        raises unless other has the type and shape of self."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        s, t = self._shape, other._shape
        if s is not t and s != t:  # identity first: a Fraction shape compares slowly
            raise ValueError(self._mismatch)
        a, b = self.num, other.num
        d = len(a) - len(b)
        if d < 0:
            a += (0,) * -d
        elif d:
            b += (0,) * d
        return a, b

    def _combine(self, other: "DenseRational", sign: int) -> "DenseRational":
        """self + sign * other over the least common denominator, in lowest terms."""
        a, b = self._align(other)
        da, db = self.den, other.den
        if da == db:
            if sign == 1:
                return self._like(*reduced([x + y for x, y in zip(a, b)], da))
            return self._like(*reduced([x - y for x, y in zip(a, b)], da))
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return self._like(*reduced([x * fa + y * fb for x, y in zip(a, b)], da * fa))

    def __add__(self, other: "DenseRational") -> "DenseRational":
        return self._combine(other, 1)

    def __sub__(self, other: "DenseRational") -> "DenseRational":
        return self._combine(other, -1)

    def __neg__(self) -> "DenseRational":
        return self._like(tuple(-x for x in self.num), self.den)

    def scale(self, c: Fraction | int) -> "DenseRational":
        p, q = ratio(c)
        return self._like(*reduced([p * x for x in self.num], self.den * q))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.den != other.den:
            return False
        s, t = self._shape, other._shape
        if s is not t and s != t:
            return False  # carriers of different shapes differ, as their hashes do
        a, b = self._align(other)
        return a == b

    def __hash__(self):
        num = self.num
        k = len(num)
        while k and not num[k - 1]:
            k -= 1
        return hash((self._shape, self.den, num[:k]))


@cache
def bernoulli(m: int) -> Fraction:
    """B_m as an exact Fraction (B_1 = -1/2 convention, see module docstring).

    Computed by the binomial recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 for
    m >= 1, with B_0 = 1.  Results are memoized by ``functools.cache``, which
    threads may share: a race can compute one value twice, and both copies
    are equal.
    """
    if m < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    # C(m+1, m) B_m = -sum_{j<m} C(m+1, j) B_j
    return -sum(comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def bernoulli_weight(m: int) -> Fraction:
    """B_m / m!, the z^m coefficient of z/(exp(z) - 1)."""
    return bernoulli(m) / factorial(m)
