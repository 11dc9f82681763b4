"""Polynomials in one variable with exact coefficients, and exact integration.

Coefficients are rationals or n x n rational matrices (``RATIONALS`` or a
``MatrixSpace``), so one type serves the commutative weight-zero Rota-Baxter
instance and the matrix-valued integration algebra.  The integration operator
I(p)(t) = integral of p from 0 to t is exact on polynomials and satisfies
integration by parts, i.e. the weight-zero Rota-Baxter relation, and the
iterated form (I(a))^n = n! I(a I(a ...)), which ``ibp_power_holds`` tests.

A :class:`Poly` is a ``scalars.DenseRational`` whose shape is n (0 over the
rationals): one flat tuple ``num`` of int numerators, in blocks of 1
(rationals) or n*n row-major entries per coefficient, with no trailing
all-zero block, over one positive ``den`` in lowest terms (zero is ``()``
over 1).  Sums, scaling and equality come from the base; every operation
runs on ints with one reduction per result (over matrices, a product sums
``matrices.matmul_kernel(n)`` of block pairs); base elements appear only at the
boundary (the constructor, ``coeffs``, the value of ``eval_at``, the "p/q"
``repr``).  Mixing coefficient shapes raises ``ValueError``.  A ``Poly`` is not
hashable.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import factorial, lcm
from typing import Any, Iterable

from .matrices import MatrixSpace, RatMatrix, matmul_kernel, random_matrix
from .scalars import DenseRational, as_fractions, random_rationals, ratio, rational_str, reduced
from .series import CoeffSpace, FractionSpace, RATIONALS

__all__ = ["Poly", "PolySpace", "ibp_power_holds", "random_poly"]


def _shape(base: CoeffSpace) -> int:
    """0 over the rationals and n over n x n matrices."""
    if isinstance(base, FractionSpace):
        return 0
    if isinstance(base, MatrixSpace):
        return base.n
    raise TypeError("polynomial coefficients must be rationals or rational matrices")


def _trim(num: tuple[int, ...], b: int) -> tuple[int, ...]:
    """num without its trailing all-zero blocks of b entries."""
    end = len(num)
    while end and not any(num[end - b : end]):
        end -= b
    return num[:end]


class Poly(DenseRational, shape="n"):
    __slots__ = ("base", "n")
    _mismatch = "coefficient space mismatch"
    __hash__ = None

    def __init__(self, base: CoeffSpace, coeffs: Iterable[Any] = ()):
        n, cs = _shape(base), list(coeffs)
        if n and any(type(c) is not RatMatrix or c.n != n for c in cs):
            raise ValueError("coefficient space mismatch")
        parts = [(c.num, c.den) for c in cs] if n else [((p,), q) for p, q in map(ratio, cs)]
        den = lcm(*(d for _, d in parts))
        self.base, self.n = base, n
        self.num, self.den = reduced(_trim([x * (den // d) for xs, d in parts for x in xs], n * n or 1), den)

    def _like(self, num: tuple[int, ...], den: int) -> "Poly":
        """num/den, in lowest terms, over the base of self, less its trailing zero blocks."""
        p = object.__new__(Poly)
        p.base, p.n, p.num, p.den = self.base, self.n, _trim(num, self.n * self.n or 1), den
        return p

    @property
    def coeffs(self) -> tuple[Any, ...]:
        """The coefficients as base elements (Fractions or RatMatrix)."""
        n, num = self.n, self.num
        if not n:
            return as_fractions(num, self.den)
        b = n * n
        return tuple(RatMatrix._make(n, *reduced(num[k : k + b], self.den)) for k in range(0, len(num), b))

    @property
    def degree(self) -> int:
        return len(self.num) // (self.n * self.n or 1) - 1  # -1 for the zero polynomial

    # bench/tracer.py finds span targets only in the class's own dict
    __add__ = DenseRational.__add__

    def __mul__(self, other: "Poly") -> "Poly":
        """One int convolution of the coefficient blocks, reduced once."""
        n = self.n
        if type(other) is not Poly or other.n != n:
            self._align(other)  # raises the TypeError or the ValueError
        a, c = self.num, other.num
        if not a or not c:
            return self._like((), 1)
        if not n:
            out = [0] * (len(a) + len(c) - 1)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(c, i):
                        out[k] += x * y
        else:
            b, kern, add = n * n, matmul_kernel(n), operator.add
            out = [0] * (len(a) + len(c) - b)
            # (offset, entries) of each nonzero block of c
            blocks = [(k, c[k : k + b]) for k in range(0, len(c), b) if any(c[k : k + b])]
            for i in range(0, len(a), b):
                x = a[i : i + b]
                if any(x):
                    for k, y in blocks:
                        o = i + k
                        out[o : o + b] = map(add, out[o : o + b], kern(x, y))
        return self._like(*reduced(out, self.den * other.den))

    def integrate(self) -> "Poly":
        """Antiderivative with zero constant term: t^k -> t^(k+1)/(k+1), over
        den * lcm(1..m) for m coefficients."""
        b = self.n * self.n or 1
        big = lcm(*range(1, len(self.num) // b + 1))
        out = [0] * b + [big // (k // b + 1) * x for k, x in enumerate(self.num)]
        return self._like(*reduced(out, self.den * big))

    def eval_at(self, t: Fraction | int) -> Any:
        """p(t) for t = p/q: sum_k num_k p^k q^(d-k) over den q^d, by Horner."""
        num, n, b = self.num, self.n, self.n * self.n or 1
        if not num:
            return self.base.zero()
        acc, qk = num[-b:], 1
        for k in range(len(num) - 2 * b, -1, -b):
            qk *= t.denominator
            acc = [x * t.numerator + y * qk for x, y in zip(acc, num[k : k + b])]
        if not n:
            return Fraction(acc[0], self.den * qk)
        return RatMatrix._make(n, *reduced(acc, self.den * qk))

    def __repr__(self) -> str:
        return f"Poly({[[rational_str(x) for row in c.rows for x in row] if self.n else rational_str(c) for c in self.coeffs]})"


class PolySpace(CoeffSpace):
    """Polynomials over RATIONALS or a MatrixSpace; any other base raises TypeError."""

    has_product = True

    def __init__(self, base: CoeffSpace = RATIONALS):
        _shape(base)
        self.base = base

    def zero(self) -> Poly:
        return Poly(self.base)

    mul = staticmethod(operator.mul)

    def one(self) -> Poly:
        return Poly(self.base, [self.base.one()])


def ibp_power_holds(a: Poly, n: int) -> bool:
    """(I(a))^n = n! * I(a I(a ... I(a))), the n-fold nested form."""
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    ia = a.integrate()
    power = nested = Poly(a.base, [a.base.one()])
    for _ in range(n):
        power, nested = power * ia, (a * nested).integrate()
    return power == nested.scale(Fraction(factorial(n)))


def random_poly(
    rng: random.Random, max_degree: int, base: CoeffSpace = RATIONALS, span: int = 4
) -> Poly:
    if isinstance(base, FractionSpace):
        return Poly(base)._like(*random_rationals(rng, max_degree + 1, span))
    return Poly(base, [random_matrix(rng, base.n, span) for _ in range(max_degree + 1)])
