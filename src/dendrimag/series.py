"""Truncated formal power series over pluggable coefficient spaces.

A :class:`TruncatedSeries` holds coefficients c_0..c_N of a series in one
formal parameter lambda, modulo lambda^(N+1).  Truncation is a hard contract:
every operation carries the order bound along and discards higher degrees,
so there is no silent precision loss and no hidden convergence question.

Coefficients live in a :class:`CoeffSpace`: anything with addition, rational
scaling and a zero test.  ``TruncatedSeries.bilinear(op, other)`` is the one
bilinear series product; the Cauchy product is it with the ``mul`` that spaces
with a unit declare for ``series_exp``, ``series_log`` and ``bch``.  The same
engine serves rational scalars, rational matrices, polynomials, grid sequences,
tree linear combinations and unital dendriform elements.

exp/log are the grading-safe versions: ``series_exp`` requires a zero constant
term (such inputs are nilpotent modulo lambda^(N+1), so the sums terminate)
and ``series_log`` requires constant term equal to the unit.  Both run one
power-series loop, which sums each result coefficient once; the Fer
correction in ``magnus_fer`` runs the same loop with the step u rhd .
``series_exp_pair`` returns exp(s) and exp(-s) from one table of powers
s^n/n!: the even and the odd powers are summed apart, and the two
exponentials are their sum and their difference.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "CoeffSpace",
    "FractionSpace",
    "RATIONALS",
    "TruncatedSeries",
    "bilinear_terms",
    "NonNilpotentInput",
    "BadConstantTerm",
    "series_exp",
    "series_exp_pair",
    "series_log",
    "bch",
]


class NonNilpotentInput(ValueError):
    """Raised when series_exp / bch gets a series with nonzero constant term."""


class BadConstantTerm(ValueError):
    """Raised when series_log gets a series whose constant term is not the unit."""


class CoeffSpace:
    """Declared-operations contract for series coefficients.

    Subclasses implement ``zero``.  The other operations default to the
    element's own: ``add``, ``sub``, ``neg`` and ``eq`` are the ``operator``
    functions themselves (``operator.add`` is ``x + y``, with no Python
    frame of the space's), ``scale`` is ``x.scale(c)`` and ``is_zero`` is
    ``x.is_zero()``; ``sum`` folds ``add`` over its terms in order.  A space
    whose elements lack one of these overrides it.  Spaces with a product
    additionally implement ``mul`` and ``one`` and report ``has_product =
    True``; where the product is the element's own, ``mul`` is
    ``operator.mul`` or ``operator.matmul``.

    ``kernels`` maps a product op to a function that sums it over a whole
    list of operand pairs.  The class default is empty and read-only; an
    instance with kernels gets its own mapping when it is built, and nothing
    changes that mapping after, so threads share it read-only.
    """

    has_product = False
    kernels: Mapping[Callable, Callable] = MappingProxyType({})

    def zero(self) -> Any:
        raise NotImplementedError

    add, sub, neg, eq = map(staticmethod, (operator.add, operator.sub, operator.neg, operator.eq))

    def scale(self, c: Fraction, x: Any) -> Any:
        return x.scale(c)

    def is_zero(self, x: Any) -> bool:
        return x.is_zero()

    def sum(self, terms: Sequence[Any]) -> Any:
        """The sum of a nonempty sequence of terms, added in order."""
        return reduce(self.add, terms)

    def sum_products(self, op: Callable[[Any, Any], Any], pairs: Sequence[tuple[Any, Any]]) -> Any:
        """sum(op(x, y) for x, y in pairs) over a nonempty list of pairs.

        A lone pair is op(x, y) itself, so a product method sees every single
        product.  Longer lists go to the kernel ``kernels`` holds for op, else
        to ``sum`` of the products in order.  A bound method compares equal on
        every access, so a kernel keyed by one is found again; an op wrapped
        later misses and takes the default.
        """
        if len(pairs) == 1:
            return op(*pairs[0])
        kernel = self.kernels.get(op)
        if kernel is not None:
            return kernel(pairs)
        return self.sum([op(x, y) for x, y in pairs])

    def mul(self, x: Any, y: Any) -> Any:
        raise NotImplementedError(f"{type(self).__name__} declares no product")

    def one(self) -> Any:
        raise NotImplementedError(f"{type(self).__name__} declares no unit")


_ZERO, _ONE = Fraction(0), Fraction(1)


class FractionSpace(CoeffSpace):
    """The rationals themselves, as a coefficient space."""

    has_product = True

    def zero(self) -> Fraction:
        return _ZERO

    def scale(self, c: Fraction, x: Fraction) -> Fraction:
        return c * x

    def is_zero(self, x: Fraction) -> bool:
        return x == 0

    mul = staticmethod(operator.mul)

    def one(self) -> Fraction:
        return _ONE


RATIONALS = FractionSpace()


class TruncatedSeries:
    """Coefficients c_0..c_order of a formal series modulo lambda^(order+1)."""

    __slots__ = ("space", "order", "coeffs")

    def __init__(self, space: CoeffSpace, order: int, coeffs: Sequence[Any] = ()):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        cs = list(coeffs)
        cs.extend(space.zero() for _ in range(order + 1 - len(cs)))
        self.space = space
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, space: CoeffSpace, order: int) -> "TruncatedSeries":
        return cls(space, order)

    @classmethod
    def one(cls, space: CoeffSpace, order: int) -> "TruncatedSeries":
        return cls(space, order, [space.one()])

    @classmethod
    def single(cls, space: CoeffSpace, order: int, degree: int, x: Any) -> "TruncatedSeries":
        """The series x * lambda^degree."""
        if not 0 <= degree <= order:
            raise ValueError(f"degree {degree} outside 0..{order}")
        cs = [space.zero()] * (degree + 1)
        cs[degree] = x
        return cls(space, order, cs)

    @classmethod
    def iterate(cls, space: CoeffSpace, order: int, first: Any, step: Callable[[Any], Any]) -> "TruncatedSeries":
        """The series with c_0 = first and c_n = step(c_(n-1)): the order-by-order
        solution of a fixed point whose degree-n term is linear in degree n - 1."""
        coeffs = [first]
        for _ in range(order):
            coeffs.append(step(coeffs[-1]))
        return cls(space, order, coeffs)

    def coeff(self, k: int) -> Any:
        return self.coeffs[k]

    def _require_same(self, other: "TruncatedSeries") -> None:
        if self.space is not other.space or self.order != other.order:
            raise ValueError("series must share coefficient space and order")

    def _zip(self, op: Callable[[Any, Any], Any], other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same(other)
        return TruncatedSeries(self.space, self.order, [op(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._zip(self.space.add, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._zip(self.space.sub, other)

    def __neg__(self) -> "TruncatedSeries":
        return self.map_coeffs(self.space.neg)

    def scale(self, c: Fraction) -> "TruncatedSeries":
        """c times the series; zero coefficients pass through unscaled."""
        sc, is_zero = self.space.scale, self.space.is_zero
        return TruncatedSeries(self.space, self.order, [a if is_zero(a) else sc(c, a) for a in self.coeffs])

    def bilinear(self, op: Callable[[Any, Any], Any], other: "TruncatedSeries") -> "TruncatedSeries":
        """The series of sum_{i+j=n} op(c_i, d_j): one ``bilinear_terms`` call."""
        self._require_same(other)
        return TruncatedSeries(self.space, self.order, bilinear_terms(self.space, op, self.coeffs, other.coeffs, 0, self.order))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated; requires the space to declare a product."""
        return self.bilinear(self.space.mul, other)

    def truncated(self, m: int) -> "TruncatedSeries":
        """The same series modulo lambda^(m+1), m <= order."""
        if m > self.order:
            raise ValueError(f"cannot extend order {self.order} to {m}")
        return TruncatedSeries(self.space, m, self.coeffs[: m + 1])

    def map_coeffs(
        self, f: Callable[[Any], Any], space: CoeffSpace | None = None
    ) -> "TruncatedSeries":
        """f applied to each coefficient, landing in ``space`` (default: this
        series' space).  f must be linear: a zero coefficient maps to the
        target's zero without a call."""
        target = space or self.space
        is_zero = self.space.is_zero
        return TruncatedSeries(target, self.order, [target.zero() if is_zero(c) else f(c) for c in self.coeffs])

    def is_zero(self) -> bool:
        return all(self.space.is_zero(c) for c in self.coeffs)

    def low_degree(self) -> int | None:
        """Smallest degree with nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if not self.space.is_zero(c):
                return k
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.space is not other.space or self.order != other.order:
            return NotImplemented
        return all(self.space.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def bilinear_terms(
    space: CoeffSpace,
    op: Callable[[Any, Any], Any],
    xs: Sequence[Any],
    ys: Sequence[Any],
    lo: int,
    hi: int,
) -> list[Any]:
    """Coefficients of degrees lo..hi of sum_{i+j=n} op(x_i, y_j).

    This is the one truncated bilinear loop: ``TruncatedSeries.bilinear``
    (the Cauchy product, the unital half-products, the Fer correction) and
    the Magnus recursion extend a bilinear op degree by degree through it.
    Each factor is tested for zero once per call, and the nonzero pairs
    (x_i, y_j) of each degree, in ascending i, go to one
    ``space.sum_products(op, pairs)``.  Coefficients past the end of xs or
    ys count as zero.
    """
    is_zero = space.is_zero
    left = [(i, x) for i, x in enumerate(xs[: hi + 1]) if not is_zero(x)]
    right = [None if is_zero(y) else y for y in ys[: hi + 1]]
    right += [None] * (hi + 1 - len(right))
    out = []
    for n in range(lo, hi + 1):
        pairs = []
        for i, x in left:
            if i > n:
                break
            y = right[n - i]
            if y is not None:
                pairs.append((x, y))
        out.append(space.sum_products(op, pairs) if pairs else space.zero())
    return out


def _power_terms(
    first: TruncatedSeries, step: Callable[[TruncatedSeries], TruncatedSeries], ratio: Callable[[int], Fraction]
) -> list[tuple[Any, ...]]:
    """Coefficients of t_0 = first and t_n = ratio(n) step(t_(n-1)), up to the
    first zero term (step is linear, so every later term is zero too)."""
    term = first
    terms = [term.coeffs]
    for n in range(1, first.order + 1):
        term = step(term).scale(ratio(n))
        if term.is_zero():
            break
        terms.append(term.coeffs)
    return terms


def _coeff_sum(space: CoeffSpace, terms: Sequence[tuple[Any, ...]], k: int) -> Any:
    """The sum of the nonzero coefficients k of the terms, in order."""
    nonzero = [t[k] for t in terms if not space.is_zero(t[k])]
    return space.sum(nonzero) if nonzero else space.zero()


def _power_sum(
    first: TruncatedSeries, step: Callable[[TruncatedSeries], TruncatedSeries], ratio: Callable[[int], Fraction]
) -> TruncatedSeries:
    """sum_n t_n with t_0 = first and t_n = ratio(n) step(t_(n-1)), mod lambda^(N+1).

    The one power-series loop behind exp, log and the Fer correction.  t_n
    has no coefficient below degree n, so coefficient k sums the nonzero
    coefficients of t_0..t_k once.
    """
    sp, order = first.space, first.order
    terms = _power_terms(first, step, ratio)
    return TruncatedSeries(sp, order, [_coeff_sum(sp, terms[: k + 1], k) for k in range(order + 1)])


def _exp_loop(s: TruncatedSeries) -> tuple[TruncatedSeries, Callable, Callable]:
    """The power loop of exp(s), t_n = s^n / n!, for a zero constant term."""
    if not s.space.is_zero(s.coeff(0)):
        raise NonNilpotentInput("series_exp needs a zero constant term")
    return TruncatedSeries.one(s.space, s.order), lambda t: t * s, lambda n: Fraction(1, n)


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term: sum_n s^n / n! mod lambda^(N+1)."""
    return _power_sum(*_exp_loop(s))


def series_exp_pair(s: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(exp(s), exp(-s)) from one table of powers s^n / n!.

    (-s)^n = (-1)^n s^n, so with E_k and O_k the coefficient-k sums of the
    even and the odd powers, exp(s)_k = E_k + O_k and exp(-s)_k = E_k - O_k.
    Both equal ``series_exp(s)`` and ``series_exp(-s)`` exactly, at the
    Cauchy products of one of them.
    """
    sp, order = s.space, s.order
    terms = _power_terms(*_exp_loop(s))
    plus, minus = [], []
    for k in range(order + 1):
        e, o = _coeff_sum(sp, terms[0 : k + 1 : 2], k), _coeff_sum(sp, terms[1 : k + 1 : 2], k)
        if sp.is_zero(o):
            plus.append(e)
            minus.append(e)
        elif sp.is_zero(e):
            plus.append(o)
            minus.append(sp.neg(o))
        else:
            plus.append(sp.add(e, o))
            minus.append(sp.sub(e, o))
    return TruncatedSeries(sp, order, plus), TruncatedSeries(sp, order, minus)


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with unit constant term: sum_{n>0} -(-1)^n x^n / n, x = s - 1."""
    sp = s.space
    if not sp.eq(s.coeff(0), sp.one()):
        raise BadConstantTerm("series_log needs constant term equal to the unit")
    x = s - TruncatedSeries.one(sp, s.order)
    return _power_sum(x, lambda t: t * x, lambda n: Fraction(-n, n + 1))


def bch(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """log(exp(x) exp(y)) - x - y, computed in the ambient truncated algebra.

    Both inputs need zero constant terms.  The result starts at the degree of
    [x, y]/2, so in a graded setting bch strictly raises the grade.
    """
    sp = x.space
    if not sp.is_zero(x.coeff(0)) or not sp.is_zero(y.coeff(0)):
        raise NonNilpotentInput("bch needs zero constant terms")
    return series_log(series_exp(x) * series_exp(y)) - x - y
