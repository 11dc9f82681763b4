"""Polynomials in one variable with exact coefficients, and exact integration.

Coefficients come from any :class:`CoeffSpace` with a product (rational
scalars or rational matrices here), so the same type serves the commutative
weight-zero Rota-Baxter instance and the matrix-valued integration algebra.
The integration operator I(p)(t) = integral of p from 0 to t is exact on
polynomials and satisfies integration by parts, i.e. the weight-zero
Rota-Baxter relation, and the iterated form (I(a))^n = n! I(a I(a ...)).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Iterable

from .report import VerificationReport
from .series import CoeffSpace, FractionSpace, RATIONALS, bilinear_terms

__all__ = ["Poly", "PolySpace", "poly_integrate", "ibp_power_check", "random_poly"]


class Poly:
    __slots__ = ("base", "coeffs")

    def __init__(self, base: CoeffSpace, coeffs: Iterable[Any] = ()):
        cs = list(coeffs)
        while cs and base.is_zero(cs[-1]):
            cs.pop()
        self.base = base
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def _pad(self, other: "Poly"):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.base.zero()
        a = self.coeffs + (z,) * (n - len(self.coeffs))
        b = other.coeffs + (z,) * (n - len(other.coeffs))
        return a, b

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._pad(other)
        return Poly(self.base, [self.base.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self._pad(other)
        return Poly(self.base, [self.base.sub(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "Poly":
        return Poly(self.base, [self.base.scale(c, x) for x in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        base = self.base
        top = len(self.coeffs) + len(other.coeffs) - 2
        return Poly(base, bilinear_terms(base, base.mul, self.coeffs, other.coeffs, 0, top))

    def integrate(self) -> "Poly":
        """Antiderivative with zero constant term: t^n -> t^(n+1)/(n+1)."""
        out = [self.base.zero()]
        for n, x in enumerate(self.coeffs):
            out.append(self.base.scale(Fraction(1, n + 1), x))
        return Poly(self.base, out)

    def eval_at(self, t: Fraction) -> Any:
        acc = self.base.zero()
        power = Fraction(1)
        for x in self.coeffs:
            acc = self.base.add(acc, self.base.scale(power, x))
            power *= t
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._pad(other)
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    def __repr__(self) -> str:
        return f"Poly({[self.base.element_json(c) for c in self.coeffs]})"

    def to_json(self) -> dict:
        return {"coeffs": [self.base.element_json(c) for c in self.coeffs]}


class PolySpace(CoeffSpace):
    has_product = True

    def __init__(self, base: CoeffSpace = RATIONALS):
        if not base.has_product:
            raise TypeError("polynomial coefficients need a product")
        self.base = base

    def zero(self) -> Poly:
        return Poly(self.base)

    def add(self, x: Poly, y: Poly) -> Poly:
        return x + y

    def scale(self, c: Fraction, x: Poly) -> Poly:
        return x.scale(c)

    def is_zero(self, x: Poly) -> bool:
        return x.is_zero()

    def eq(self, x: Poly, y: Poly) -> bool:
        return x == y

    def mul(self, x: Poly, y: Poly) -> Poly:
        return x * y

    def one(self) -> Poly:
        return Poly(self.base, [self.base.one()])

    def element_json(self, x: Poly):
        return x.to_json()


def poly_integrate(p: Poly) -> Poly:
    return p.integrate()


def ibp_power_check(a: Poly, n: int) -> VerificationReport:
    """(I(a))^n = n! * I(a I(a ... I(a))), the n-fold nested form."""
    rep = VerificationReport(f"iterated integration by parts, n = {n}")
    if n < 0 or n > 8:
        raise ValueError("supported powers are 0..8")
    ia = a.integrate()
    power = Poly(a.base, [a.base.one()])
    for _ in range(n):
        power = power * ia
    nested = Poly(a.base, [a.base.one()])
    fact = 1
    for k in range(1, n + 1):
        nested = (a * nested).integrate()
        fact *= k
    rep.add(
        f"(I(a))^{n} = {n}! * nested integral",
        power == nested.scale(Fraction(fact)),
        f"degree {power.degree}",
    )
    return rep


def random_poly(
    rng: random.Random, max_degree: int, base: CoeffSpace = RATIONALS, span: int = 4
) -> Poly:
    if isinstance(base, FractionSpace):
        coeffs = [
            Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(max_degree + 1)
        ]
    else:
        from .matrices import random_matrix

        coeffs = [random_matrix(rng, base.n, span) for _ in range(max_degree + 1)]
    return Poly(base, coeffs)
