"""Dendriform, tridendriform and pre-Lie contracts, with the adjoined unit.

A dendriform algebra splits an associative product into two half-products,
written here ``prec`` (x "absorbed from the right") and ``succ``:

    (a prec b) prec c = a prec (b * c)            (A1)
    (a succ b) prec c = a succ (b prec c)         (A2)
     a succ (b succ c) = (a * b) succ c           (A3)

with a * b := a prec b + a succ b associative.  The derived bilinear maps

    a rhd b := a succ b - b prec a        (left pre-Lie)
    a lhd b := a prec b - b succ a        (right pre-Lie)

satisfy the pre-Lie identities and share one Lie bracket with ``*``.
A tridendriform algebra (lt, gt, dot, whose sum is associative) is a
dendriform algebra through the collapse prec = lt + dot, succ = gt, so
:class:`Tridendriform` is a :class:`Dendriform` with those two methods.

Contracts here are verified by sampling, not by proof: every concrete
instance registers a sample generator, and the checkers in this module
evaluate the axioms as exact equalities on the samples (the free models get
exhaustive basis checks in their own modules).  Each checker evaluates
all its axioms on one sample in one function, so a product that several
axioms need is computed once, as a local, and always by the instance's own
method (``star``, ``rhd``, ``lhd``), never rebuilt from other products.
The suites run the checkers that read one sample list in lockstep
(``report.run_sampled``) on a :func:`remembered` view of the instance, so a
product that several checkers need is computed once per sample as well.

The unit is adjoined structurally: a :class:`UnitalDendElem` is a rational
multiple of the formal unit plus a carrier element, with

    a prec 1 = a = 1 succ a,   1 prec a = 0 = a succ 1,

while "1 prec 1" and "1 succ 1" stay undefined and raise
:class:`UndefinedUnitProduct`.  The sum product extends totally
(1 * 1 = 1).  On top of this sit the unital series half-products (one
``TruncatedSeries.bilinear`` each) and the order-by-order solvers for

    X = 1 + lambda a prec X,        Y = 1 - Y succ lambda a.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .report import SampledCheck, VerificationReport, run_sampled
from .series import CoeffSpace, TruncatedSeries

__all__ = [
    "UndefinedUnitProduct",
    "Dendriform",
    "Tridendriform",
    "AssocDendriform",
    "UnitalDendElem",
    "UnitalSpace",
    "solve_left",
    "solve_right",
    "series_half_prec",
    "series_half_succ",
    "lift_to_unital",
    "remembered",
    "dendriform_axioms",
    "prelie_identities",
    "tridendriform_axioms",
    "check_dendriform_axioms",
    "check_prelie_identities",
    "check_tridendriform_axioms",
    "check_unit_rules",
    "sample_tuples",
]


class UndefinedUnitProduct(ValueError):
    """Half-product of two elements that both carry the formal unit."""


@dataclass(frozen=True)
class UnitalDendElem:
    """scalar * 1 + vec, with 1 the adjoined dendriform unit."""

    scalar: Fraction
    vec: Any


class Dendriform:
    """Base contract: a carrier coefficient space plus prec/succ.

    ``commutative`` flags the Zinbiel case (x succ y = y prec x), which
    sample-based checkers verify when set.
    """

    name = "dendriform"
    commutative = False

    def __init__(self, space: CoeffSpace):
        self.space = space
        # built here, not on first use, so threads sharing an instance share one space
        self.unital_space = UnitalSpace(self)

    # -- carrier products -------------------------------------------------
    def prec(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def succ(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def star(self, a: Any, b: Any) -> Any:
        return self.space.add(self.prec(a, b), self.succ(a, b))

    def rhd(self, a: Any, b: Any) -> Any:
        return self.space.sub(self.succ(a, b), self.prec(b, a))

    def lhd(self, a: Any, b: Any) -> Any:
        return self.space.sub(self.prec(a, b), self.succ(b, a))

    def sample(self, rng: random.Random) -> Any:
        raise NotImplementedError(f"{self.name} registers no sample generator")

    # -- adjoined unit -----------------------------------------------------
    def embed(self, a: Any) -> UnitalDendElem:
        return UnitalDendElem(Fraction(0), a)

    def half_prec(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        """Bilinear extension of prec; undefined on unit (x) unit pairs."""
        return self._unital_sum("prec", [(x, y)])

    def half_succ(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        return self._unital_sum("succ", [(x, y)])

    def unital_star(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        """Total: the unit cases follow the unit rules, never the half-products."""
        return self._unital_sum("star", [(x, y)])

    def _unital_sum(self, kind: str, pairs: Sequence[tuple[UnitalDendElem, UnitalDendElem]]) -> UnitalDendElem:
        """The sum of x <kind> y over the pairs, for kind "star", "prec" or "succ".

        The unit scalars add up (1 * 1 = 1), and each unit rule gives a term
        c * v: 1 * v = v * 1 = v, v prec 1 = v = 1 succ v, while 1 prec v and
        v succ 1 vanish.  The carrier pairs with both sides nonzero go to one
        ``space.sum_products`` with the carrier product, and one ``space.sum``
        adds the unit terms to that; a lone term is returned as it is.
        """
        sp = self.space
        is_zero = sp.is_zero
        scalar, terms, vecs = Fraction(0), [], []
        for x, y in pairs:
            if kind == "star":
                scalar += x.scalar * y.scalar
            elif x.scalar and y.scalar:
                raise UndefinedUnitProduct(f"1 {kind} 1 is not defined")
            x_zero, y_zero = is_zero(x.vec), is_zero(y.vec)
            if x.scalar and not y_zero and kind != "prec":
                terms.append(y.vec if x.scalar == 1 else sp.scale(x.scalar, y.vec))
            if y.scalar and not x_zero and kind != "succ":
                terms.append(x.vec if y.scalar == 1 else sp.scale(y.scalar, x.vec))
            if not (x_zero or y_zero):
                vecs.append((x.vec, y.vec))
        if vecs:
            terms.append(sp.sum_products(getattr(self, kind), vecs))
        if not terms:
            return UnitalDendElem(scalar, sp.zero())
        return UnitalDendElem(scalar, terms[0] if len(terms) == 1 else sp.sum(terms))


class Tridendriform(Dendriform):
    """Three operations lt, gt, dot whose sum is associative (seven axioms).

    The dendriform methods are the collapse prec = lt + dot, succ = gt.
    ``star`` stays the three-term sum, so the dendriform axioms read
    lt + gt + dot, and only ``Dendriform.star`` (prec + succ) reads the
    collapse.
    """

    name = "tridendriform"

    def lt(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def gt(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def dot(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def prec(self, a: Any, b: Any) -> Any:
        return self.space.add(self.lt(a, b), self.dot(a, b))

    def succ(self, a: Any, b: Any) -> Any:
        return self.gt(a, b)

    def star(self, a: Any, b: Any) -> Any:
        sp = self.space
        return sp.add(sp.add(self.lt(a, b), self.gt(a, b)), self.dot(a, b))


class AssocDendriform(Dendriform):
    """Associative degeneration: prec is the ambient product, succ is zero.

    Here a lhd b reduces to a * b and a rhd b to -(b * a); the left fixed
    point X = 1 + lambda a prec X becomes the geometric series of a.
    """

    def __init__(self, space: CoeffSpace, sampler: Callable[[random.Random], Any], name: str):
        if not space.has_product:
            raise TypeError("associative degeneration needs a space with a product")
        super().__init__(space)
        self._sampler = sampler
        self.name = name

    def prec(self, a, b):
        return self.space.mul(a, b)

    def succ(self, a, b):
        return self.space.zero()

    def sample(self, rng):
        return self._sampler(rng)


class UnitalSpace(CoeffSpace):
    """UnitalDendElem as a coefficient space; the product is the total star."""

    has_product = True

    def __init__(self, dend: Dendriform):
        self.dend = dend
        self.carrier = dend.space
        # whole degrees of the star and half-product series go to _unital_sum,
        # so all their carrier pairs reach the carrier's sum_products in one list
        self.kernels = {
            self.mul: partial(dend._unital_sum, "star"),
            dend.half_prec: partial(dend._unital_sum, "prec"),
            dend.half_succ: partial(dend._unital_sum, "succ"),
        }

    def zero(self) -> UnitalDendElem:
        return UnitalDendElem(Fraction(0), self.carrier.zero())

    def add(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        return UnitalDendElem(x.scalar + y.scalar, self.carrier.add(x.vec, y.vec))

    def sub(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        return UnitalDendElem(x.scalar - y.scalar, self.carrier.sub(x.vec, y.vec))

    def neg(self, x: UnitalDendElem) -> UnitalDendElem:
        return UnitalDendElem(-x.scalar, self.carrier.neg(x.vec))

    def scale(self, c: Fraction, x: UnitalDendElem) -> UnitalDendElem:
        return UnitalDendElem(c * x.scalar, self.carrier.scale(c, x.vec))

    def is_zero(self, x: UnitalDendElem) -> bool:
        return x.scalar == 0 and self.carrier.is_zero(x.vec)

    def eq(self, x: UnitalDendElem, y: UnitalDendElem) -> bool:
        return x.scalar == y.scalar and self.carrier.eq(x.vec, y.vec)

    def sum(self, terms: Sequence[UnitalDendElem]) -> UnitalDendElem:
        return UnitalDendElem(sum(t.scalar for t in terms), self.carrier.sum([t.vec for t in terms]))

    def mul(self, x: UnitalDendElem, y: UnitalDendElem) -> UnitalDendElem:
        return self.dend.unital_star(x, y)

    def one(self) -> UnitalDendElem:
        return UnitalDendElem(Fraction(1), self.carrier.zero())


# -- the two fundamental equations ------------------------------------------


def solve_left(dend: Dendriform, a: Any, order: int) -> TruncatedSeries:
    """The unique X with X = 1 + lambda a prec X, modulo lambda^(order+1)."""
    usp = dend.unital_space
    return TruncatedSeries.iterate(usp, order, usp.one(), partial(dend.half_prec, dend.embed(a)))


def solve_right(dend: Dendriform, a: Any, order: int) -> TruncatedSeries:
    """The unique Y with Y = 1 - Y succ lambda a, modulo lambda^(order+1)."""
    usp = dend.unital_space
    xa = dend.embed(a)
    return TruncatedSeries.iterate(usp, order, usp.one(), lambda y: usp.neg(dend.half_succ(y, xa)))


def _unital(dend: Dendriform, s: TruncatedSeries) -> TruncatedSeries:
    if s.space is not dend.unital_space:
        raise ValueError("series must live over the instance's unital space")
    return s


def series_half_prec(dend: Dendriform, sx: TruncatedSeries, sy: TruncatedSeries) -> TruncatedSeries:
    """Degree-wise bilinear prec on unital series (unit-unit pairs must cancel)."""
    return _unital(dend, sx).bilinear(dend.half_prec, sy)


def series_half_succ(dend: Dendriform, sx: TruncatedSeries, sy: TruncatedSeries) -> TruncatedSeries:
    return _unital(dend, sx).bilinear(dend.half_succ, sy)


def lift_to_unital(dend: Dendriform, s: TruncatedSeries) -> TruncatedSeries:
    """Reinterpret a carrier-coefficient series over the unital space."""
    if s.space is not dend.space:
        raise ValueError("series does not live over this instance's carrier")
    return s.map_coeffs(dend.embed, dend.unital_space)


# -- sample-based contract checks -------------------------------------------


def sample_tuples(instance, rng: random.Random, count: int, arity: int) -> list[tuple]:
    return [tuple(instance.sample(rng) for _ in range(arity)) for _ in range(count)]


def remembered(instance: Dendriform) -> tuple[Dendriform, dict]:
    """A view of ``instance`` that remembers its carrier products, and its memo.

    The view is a shallow copy whose ``lt``, ``gt``, ``dot`` and ``star``
    (for a :class:`Tridendriform`) or ``prec``, ``succ`` and ``star`` (for
    any other instance) first look up ``(operation, id(a), id(b))`` in the
    memo.  A miss calls the instance's own method bound to the view, so
    subclass overrides take effect and a product built from others (the
    collapse prec = lt + dot, ``rhd``, ``lhd``) reads the remembered ones.
    The memo keeps each product's operands, so their ids are not reused
    while it lives; clear it between samples to bound it by one sample.
    The view's ``unital_space`` is still the instance's: use the view for
    carrier products only.
    """
    view = copy.copy(instance)
    memo: dict = {}
    ops = ("lt", "gt", "dot", "star") if isinstance(instance, Tridendriform) else ("prec", "succ", "star")
    for op in ops:
        setattr(view, op, _remember(memo, op, getattr(view, op)))
    return view, memo


def _remember(memo: dict, op: str, product: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def remembered_product(a, b):
        key = (op, id(a), id(b))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (a, b, product(a, b))
        return hit[2]

    return remembered_product


def dendriform_axioms(dend: Dendriform, name: str | None = None) -> SampledCheck:
    """The sampled check behind :func:`check_dendriform_axioms`, for ``run_sampled``."""
    rep = VerificationReport(name or f"dendriform axioms [{dend.name}]")
    eq, prec, succ, star = dend.space.eq, dend.prec, dend.succ, dend.star
    labels = [
        "(A1) (a<b)<c = a<(b*c)",
        "(A2) (a>b)<c = a>(b<c)",
        "(A3) a>(b>c) = (a*b)>c",
        "star associativity",
    ]
    if dend.commutative:
        labels.append("Zinbiel flag: x>y = y<x")

    def holds(a, b, c):
        ab_gt, ab, bc = succ(a, b), star(a, b), star(b, c)
        yield eq(prec(prec(a, b), c), prec(a, bc))
        yield eq(prec(ab_gt, c), succ(a, prec(b, c)))
        yield eq(succ(a, succ(b, c)), succ(ab, c))
        yield eq(star(ab, c), star(a, bc))
        if dend.commutative:
            yield eq(ab_gt, prec(b, a))

    return rep, labels, holds, "triples"


def check_dendriform_axioms(
    dend: Dendriform, triples: Iterable[tuple], name: str | None = None
) -> VerificationReport:
    """(A1)-(A3), star associativity, and the Zinbiel flag when declared.  On an
    instance induced by any linear R, (A2) is associativity of the carrier."""
    return run_sampled(triples, [dendriform_axioms(dend, name)])[0]


def prelie_identities(dend: Dendriform, name: str | None = None) -> SampledCheck:
    """The sampled check behind :func:`check_prelie_identities`, for ``run_sampled``."""
    rep = VerificationReport(name or f"pre-Lie identities [{dend.name}]")
    sp = dend.space
    eq, sub, rhd, lhd, star = sp.eq, sp.sub, dend.rhd, dend.lhd, dend.star
    labels = [
        "left pre-Lie identity for rhd",
        "right pre-Lie identity for lhd",
        "brackets of *, rhd, lhd coincide",
    ]

    def holds(a, b, c):
        ab_r, ba_r, ab_l = rhd(a, b), rhd(b, a), lhd(a, b)
        yield eq(sub(rhd(ab_r, c), rhd(a, rhd(b, c))), sub(rhd(ba_r, c), rhd(b, rhd(a, c))))
        yield eq(sub(lhd(ab_l, c), lhd(a, lhd(b, c))), sub(lhd(lhd(a, c), b), lhd(a, lhd(c, b))))
        br = sub(star(a, b), star(b, a))
        yield eq(br, sub(ab_r, ba_r)) and eq(br, sub(ab_l, lhd(b, a)))

    return rep, labels, holds, "triples"


def check_prelie_identities(
    dend: Dendriform, triples: Iterable[tuple], name: str | None = None
) -> VerificationReport:
    """Left/right pre-Lie identities for rhd/lhd and the shared Lie bracket;
    the bracket check holds by definition for inherited star, rhd and lhd."""
    return run_sampled(triples, [prelie_identities(dend, name)])[0]


def tridendriform_axioms(tri: Tridendriform, name: str | None = None) -> SampledCheck:
    """The sampled check behind :func:`check_tridendriform_axioms`, for ``run_sampled``."""
    rep = VerificationReport(name or f"tridendriform axioms [{tri.name}]")
    eq, lt, gt, dot, star = tri.space.eq, tri.lt, tri.gt, tri.dot, tri.star
    labels = [
        "(x<y)<z = x<(y*z)",
        "(x>y)<z = x>(y<z)",
        "(x*y)>z = x>(y>z)",
        "(x>y).z = x>(y.z)",
        "(x<y).z = x.(y>z)",
        "(x.y)<z = x.(y<z)",
        "(x.y).z = x.(y.z)",
        "star associativity",
    ]

    def holds(x, y, z):
        xy_lt, xy_gt, xy_dot, xy = lt(x, y), gt(x, y), dot(x, y), star(x, y)
        yz_lt, yz_gt, yz_dot, yz = lt(y, z), gt(y, z), dot(y, z), star(y, z)
        yield eq(lt(xy_lt, z), lt(x, yz))
        yield eq(lt(xy_gt, z), gt(x, yz_lt))
        yield eq(gt(xy, z), gt(x, yz_gt))
        yield eq(dot(xy_gt, z), gt(x, yz_dot))
        yield eq(dot(xy_lt, z), dot(x, yz_gt))
        yield eq(lt(xy_dot, z), dot(x, yz_lt))
        yield eq(dot(xy_dot, z), dot(x, yz_dot))
        yield eq(star(xy, z), star(x, yz))

    return rep, labels, holds, "triples"


def check_tridendriform_axioms(
    tri: Tridendriform, triples: Iterable[tuple], name: str | None = None
) -> VerificationReport:
    """The seven axioms plus star associativity.  On an instance induced by any
    linear R, (x>y)<z = x>(y<z) and the four with a dot are carrier associativity."""
    return run_sampled(triples, [tridendriform_axioms(tri, name)])[0]


def check_unit_rules(dend: Dendriform, elems: Iterable[Any]) -> VerificationReport:
    """Unit adjunction rules, including rejection of the unit-unit half-products."""
    rep = VerificationReport(f"unit adjunction [{dend.name}]")
    usp = dend.unital_space
    one = usp.one()

    def unit_rules(a):
        x = dend.embed(a)
        yield (
            usp.eq(dend.half_prec(x, one), x)
            and usp.eq(dend.half_succ(one, x), x)
            and usp.is_zero(dend.half_prec(one, x))
            and usp.is_zero(dend.half_succ(x, one))
            and usp.eq(dend.unital_star(x, one), x)
            and usp.eq(dend.unital_star(one, x), x)
        )

    rep.add_sampled(((a,) for a in elems), ["a<1 = a = 1>a and 1<a = 0 = a>1"], unit_rules, "samples")
    rep.add("1*1 = 1", usp.eq(dend.unital_star(one, one), one))
    for label, op in (("1<1", dend.half_prec), ("1>1", dend.half_succ)):
        try:
            op(one, one)
        except UndefinedUnitProduct:
            rep.add(f"{label} rejected", True)
        else:
            rep.add(f"{label} rejected", False, "no error raised")
    return rep
