"""Rota-Baxter algebras of arbitrary weight and their identity suite.

A Rota-Baxter operator of weight theta on an associative algebra is a linear
map R with

    R(a) R(b) = R( R(a) b + a R(b) + theta a b ),                    (RB)

a generalized integration by parts.  The companion map Rt := -theta id - R
satisfies (RB) with the same weight, and both images are subalgebras.  Every
such operator induces:

  * a tridendriform structure  a<b = aR(b), a>b = R(a)b, a.b = theta ab;
  * through its collapse, a dendriform structure
                               a prec b = aR(b) + theta ab = -a Rt(b),
                               a succ b = R(a)b;
  * a left pre-Lie product     a rhd b = [R(a), b] - theta ba;
  * the double product         a *t b = aR(b) + R(a)b + theta ab, which is
    the induced dendriform ``star`` and for which R and -Rt are algebra
    morphisms: R(a *t b) = R(a)R(b) and Rt(a *t b) = -Rt(a)Rt(b).

On the adjoined dendriform unit the operator extends by R(1u) = 1 and
Rt(1u) = -1 (1u annihilates the carrier multiplicatively), which is exactly
what makes unital exponentials land where they should: R maps the
*t-exponential over the induced unital space to the plain exponential.

The checks in this module verify, per lambda-degree and with exact rational
arithmetic, the factorization theory this buys:

  * Atkinson: Yh (1 - theta lambda a) Xh = 1 for the images Xh = -Rt(X)
    and Yh = R(Y) of the solutions of the two dendriform equations, which
    solve Xh = 1 - lambda Rt(a Xh) and Yh = 1 - lambda R(Yh a);
  * the exponential forms Xh = exp(-Rt(W)), Yh = exp(-R(W)) with W the
    Magnus series of the induced dendriform structure, and the corresponding
    ordered products over the Fer factors; ``atkinson_check`` solves Xh, Yh,
    W and the Fer factors once and returns these as three reports;
  * Spitzer's classical identity (commutative carrier)
        1 + sum_n lambda^n R(aR(a...R(a))) = exp(R(log(1 + theta a lambda)/theta)),
    with the weight-zero degeneration exp(lambda R(a));
  * the weight-theta BCH recursion chi (theta != 0), defined by
        exp(-theta alpha) = exp(R chi(alpha)) exp(Rt chi(alpha)),
    its two equivalent fixed-point forms, the bridge W = chi(alpha_theta)
    with alpha_theta = -log(1 - theta lambda a)/theta, and the change of
    variable chi(alpha) = W((1 - exp(-theta alpha))/theta).

Sign conventions follow the weight normalization in (RB) above throughout:
an idempotent projection onto a subalgebra has weight -1, inclusive grid
sums weight -theta, strict grid sums weight +theta.  Under this one
convention both Spitzer forms hold verbatim with their stated signs; they
concern different equations (Y = 1 + lambda R(aY) versus
Yh = 1 - lambda R(Yh a)), not different normalizations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from typing import Any, Callable

from .dendriform import Dendriform, Tridendriform, UnitalDendElem, lift_to_unital, sample_tuples, solve_left, solve_right
from .magnus_fer import fer, magnus, magnus_from_series
from .report import VerificationReport
from .series import CoeffSpace, TruncatedSeries, bch, series_exp, series_log

__all__ = [
    "RotaBaxter",
    "ZeroWeight",
    "RBTridendriform",
    "RBDendriform",
    "check_rb_relation",
    "atkinson_factors",
    "bch_recursion",
    "atkinson_check",
    "spitzer_classical_check",
    "spitzer_noncommutative_check",
    "exp_image_check",
    "classical_magnus_check",
]


class ZeroWeight(ValueError):
    """The BCH recursion divides by the weight; weight-zero callers use the
    classical Magnus recursion instead."""


class RotaBaxter:
    """A carrier algebra, a weight, an operator, and a sample generator."""

    def __init__(
        self,
        name: str,
        space: CoeffSpace,
        weight: Fraction,
        operator: Callable[[Any], Any],
        sampler: Callable[[random.Random], Any],
        commutative: bool = False,
    ):
        if not space.has_product:
            raise TypeError("Rota-Baxter carrier needs an associative product with unit")
        self.name = name
        self.space = space
        self.weight = Fraction(weight)
        self.r = operator
        self._sampler = sampler
        self.commutative = commutative
        self._neg_weight = -self.weight
        if not self.weight:  # decided once, not by comparing a Fraction with 0 per call: Rt(x) = -R(x)
            self.r_tilde = lambda x: space.neg(operator(x))
        # built here, not on first use, so threads sharing an instance share one dendriform
        self._dend = RBDendriform(self)

    def r_tilde(self, x: Any) -> Any:
        """Rt(x) = -theta x - R(x)."""
        return self.space.sub(self.space.scale(self._neg_weight, x), self.r(x))

    def sample(self, rng: random.Random) -> Any:
        return self._sampler(rng)

    def rescaled(self, c: Fraction) -> "RotaBaxter":
        """c*R is Rota-Baxter of weight c*theta; used to sweep weights."""
        c = Fraction(c)
        return RotaBaxter(
            f"{self.name} (rescaled x{c})",
            self.space,
            c * self.weight,
            lambda x: self.space.scale(c, self.r(x)),
            self._sampler,
            self.commutative,
        )

    def dendriform(self) -> "RBDendriform":
        return self._dend

    # -- unit convention: R(1u) = 1, Rt(1u) = -1 ---------------------------
    def unital_r(self, x: UnitalDendElem) -> Any:
        return self._plus_unit(x.scalar, self.r(x.vec))

    def unital_r_tilde(self, x: UnitalDendElem) -> Any:
        return self._plus_unit(-x.scalar, self.r_tilde(x.vec))

    def _plus_unit(self, c: Fraction, y: Any) -> Any:
        """c * 1 + y, with no unit term when c is zero."""
        sp = self.space
        return sp.add(sp.scale(c, sp.one()), y) if c else y


class RBTridendriform(Tridendriform):
    def __init__(self, rb: RotaBaxter):
        super().__init__(rb.space)
        self.rb = rb
        self.name = f"tridendriform from {rb.name}"

    def lt(self, a, b):
        return self.space.mul(a, self.rb.r(b))

    def gt(self, a, b):
        return self.space.mul(self.rb.r(a), b)

    def dot(self, a, b):
        return self.space.scale(self.rb.weight, self.space.mul(a, b))

    def sample(self, rng):
        return self.rb.sample(rng)


class RBDendriform(Dendriform):
    """prec = aR(b) + theta ab = -a Rt(b), succ = R(a) b."""

    def __init__(self, rb: RotaBaxter):
        super().__init__(rb.space)
        self.rb = rb
        self.name = f"dendriform from {rb.name}"
        # commutative carrier + weight 0 collapses succ to the prec flip
        self.commutative = rb.commutative and rb.weight == 0

    def prec(self, a, b):
        sp = self.space
        return sp.neg(sp.mul(a, self.rb.r_tilde(b)))

    def succ(self, a, b):
        return self.space.mul(self.rb.r(a), b)

    def sample(self, rng):
        return self.rb.sample(rng)


def check_rb_relation(rb: RotaBaxter, samples: int, seed: int = 0) -> VerificationReport:
    """(RB) for R and for Rt, plus the morphism identities for the double product."""
    rep = VerificationReport(f"Rota-Baxter relation [{rb.name}], weight {rb.weight}")
    sp = rb.space
    eq, add, mul, r, rt, star = sp.eq, sp.add, sp.mul, rb.r, rb.r_tilde, rb.dendriform().star
    labels = [
        "R(a)R(b) = R(R(a)b + aR(b) + theta ab)",
        "Rt satisfies the same weight relation",
        "R(a *t b) = R(a)R(b) (image of R closed)",
        "Rt(a *t b) = -Rt(a)Rt(b) (image of Rt closed)",
    ]
    if rb.commutative:
        labels.append("declared commutative carrier")

    def holds(a, b):
        ab, r_a, r_b, rt_a, rt_b = mul(a, b), r(a), r(b), rt(a), rt(b)
        theta_ab = sp.scale(rb.weight, ab)
        r_ab, rt_ab = mul(r_a, r_b), mul(rt_a, rt_b)
        yield eq(r_ab, r(add(add(mul(r_a, b), mul(a, r_b)), theta_ab)))
        yield eq(rt_ab, rt(add(add(mul(rt_a, b), mul(a, rt_b)), theta_ab)))
        # a *t b is the induced dendriform star, not the inner sum above
        d = star(a, b)
        yield eq(r(d), r_ab)
        yield eq(rt(d), sp.neg(rt_ab))
        if rb.commutative:
            yield eq(ab, mul(b, a))

    rep.add_sampled(sample_tuples(rb, random.Random(seed), samples, 2), labels, holds, "pairs")
    return rep


# -- series helpers over the carrier ----------------------------------------


def _one_plus_lambda(space: CoeffSpace, order: int, c: Any) -> TruncatedSeries:
    """The series 1 + lambda c."""
    return TruncatedSeries.one(space, order) + TruncatedSeries.single(space, order, 1, c)


def atkinson_factors(rb: RotaBaxter, a: Any, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(Xh, Yh) = (-Rt(X), R(Y)) for X = 1 + lambda a prec X and Y = 1 - Y succ lambda a
    over the induced dendriform.  As a prec X = -a Rt(X), Y succ a = R(Y) a and
    R(1u) = 1 = -Rt(1u), they solve Xh = 1 - lambda Rt(a Xh) and Yh = 1 - lambda R(Yh a)
    for any linear R."""
    dend, sp = rb.dendriform(), rb.space
    xh = -solve_left(dend, a, order).map_coeffs(rb.unital_r_tilde, sp)
    return xh, solve_right(dend, a, order).map_coeffs(rb.unital_r, sp)


def bch_recursion(
    rb: RotaBaxter, alpha: TruncatedSeries, variant: str = "two_sided"
) -> TruncatedSeries:
    """The weight-theta BCH recursion chi, solved by ascending degree.

    chi is the unique deformation of the identity on lambda*A[[lambda]] with
    exp(-theta alpha) = exp(R chi(alpha)) exp(Rt chi(alpha)).  Fixed-point
    forms (the bch terms raise the degree, so each coefficient closes):

      two_sided:  chi = alpha + (1/theta) bch(R chi, Rt chi)
      one_sided:  chi = alpha + (1/theta) bch(theta alpha, R chi)
    """
    if rb.weight == 0:
        raise ZeroWeight("weight-zero instances use the classical Magnus recursion")
    if variant not in ("two_sided", "one_sided"):
        raise ValueError(f"unknown variant {variant!r}")
    sp = rb.space
    if alpha.space is not sp:
        raise ValueError("alpha must live over the instance carrier")
    if not sp.is_zero(alpha.coeff(0)):
        raise ValueError("alpha needs zero constant term")
    n_max = alpha.order
    theta = rb.weight
    chi = [sp.zero() for _ in range(n_max + 1)]
    if n_max >= 1:
        chi[1] = alpha.coeff(1)
    theta_alpha = alpha.scale(theta)
    for n in range(2, n_max + 1):
        # degree n of the bch terms only needs the series modulo lambda^(n+1)
        known = TruncatedSeries(sp, n, chi[: n + 1])
        if variant == "two_sided":
            corr = bch(known.map_coeffs(rb.r), known.map_coeffs(rb.r_tilde))
        else:
            corr = bch(theta_alpha.truncated(n), known.map_coeffs(rb.r))
        chi[n] = sp.add(alpha.coeff(n), sp.scale(1 / theta, corr.coeff(n)))
    return TruncatedSeries(sp, n_max, chi)


def atkinson_check(rb: RotaBaxter, a: Any, order: int) -> list[VerificationReport]:
    """Atkinson's factorization and its exponential and Fer-product forms.

    Xh, Yh, W, R(W), Rt(W) and the Fer factors U_n are solved once and shared
    by three reports:
      * "Atkinson factorization": Xh and Yh solve their recursions,
        Yh (1 - theta lambda a) Xh = 1, and the Magnus-exponential splitting
        1 - theta lambda a = exp(R(W)) exp(Rt(W));
      * "factor exponentials": Xh = exp(-Rt(W)) and Yh = exp(-R(W));
      * "factor products": the forward product of exp(-Rt(U_n)) is Xh and
        the reversed product of exp(-R(U_n)) is Yh.

    Three labels hold for any linear R with Rt = -theta id - R, so they test
    other code than (RB).  Both "substituted back" checks test the dendriform
    solvers and the unit convention R(1u) = 1, Rt(1u) = -1 (see
    ``atkinson_factors``).  The splitting tests the Magnus recursion,
    ``series_exp`` and the carrier.  Proof: W rhd b = R(W) b + b Rt(W) =: T(b)
    is a left plus a right multiplication, and the two commute.  The left
    Magnus recursion reads W = f(T)(lambda a) with f(z) = z/(e^z - 1), so
    g(T)(W) = lambda a with g(z) = (e^z - 1)/z.  T(1) = R(W) + Rt(W) =
    -theta W, hence exp(R(W)) exp(Rt(W)) - 1 = (e^T - 1)(1) = g(T)(T(1)) =
    -theta lambda a.  The other five labels need (RB).
    """
    one = TruncatedSeries.one(rb.space, order)
    xh, yh = atkinson_factors(rb, a, order)
    mid = _one_plus_lambda(rb.space, order, rb.space.scale(-rb.weight, a))
    w = magnus(rb.dendriform(), a, order)
    r_w, rt_w = w.map_coeffs(rb.r), w.map_coeffs(rb.r_tilde)

    atk = VerificationReport(f"Atkinson factorization [{rb.name}]")
    lam_a = TruncatedSeries.single(rb.space, order, 1, a)
    atk.add_residuals("Xh substituted back into Xh = 1 - lambda Rt(a Xh)", xh, one - (lam_a * xh).map_coeffs(rb.r_tilde))
    atk.add_residuals("Yh substituted back into Yh = 1 - lambda R(Yh a)", yh, one - (yh * lam_a).map_coeffs(rb.r))
    atk.add_residuals("Yh (1 - theta lambda a) Xh = 1", yh * mid * xh, one)
    atk.add_residuals("1 - theta lambda a = exp(R(W)) exp(Rt(W))", mid, series_exp(r_w) * series_exp(rt_w))

    exps = VerificationReport(f"factor exponentials [{rb.name}]")
    exps.add_residuals("Xh = exp(-Rt(W))", xh, series_exp(-rt_w))
    exps.add_residuals("Yh = exp(-R(W))", yh, series_exp(-r_w))

    def product(factors, op):  # exp(0) = 1 enters no product
        exponents = [e for e in (-u.map_coeffs(op) for u in factors) if not e.is_zero()]
        return reduce(TruncatedSeries.__mul__, map(series_exp, exponents)) if exponents else one

    prods = VerificationReport(f"factor products [{rb.name}]")
    factors = fer(rb.dendriform(), a, order)
    prods.add_residuals("forward product of exp(-Rt(U_n)) = Xh", product(factors, rb.r_tilde), xh)
    prods.add_residuals("reversed product of exp(-R(U_n)) = Yh", product(reversed(factors), rb.r), yh)
    return [atk, exps, prods]


def _iterated_series(rb: RotaBaxter, a: Any, order: int) -> TruncatedSeries:
    """1 + sum_n lambda^n R(a R(a ... R(a)))  (innermost first)."""
    sp = rb.space
    return TruncatedSeries.iterate(sp, order, sp.one(), lambda z: rb.r(sp.mul(a, z)))


def spitzer_classical_check(rb: RotaBaxter, a: Any, order: int) -> VerificationReport:
    """Commutative carriers: the iterated-R series is one exponential.

    For weight theta != 0 the exponent is R(log(1 + theta a lambda)/theta);
    at theta = 0 it degenerates to lambda R(a).
    """
    if not rb.commutative:
        raise ValueError("classical Spitzer requires a commutative carrier")
    rep = VerificationReport(f"classical Spitzer [{rb.name}], weight {rb.weight}")
    sp = rb.space
    lhs = _iterated_series(rb, a, order)
    if rb.weight != 0:
        inner = series_log(_one_plus_lambda(sp, order, sp.scale(rb.weight, a))).scale(1 / rb.weight)
        rhs = series_exp(inner.map_coeffs(rb.r))
        label = "iterated series = exp(R(log(1 + theta a lambda)/theta))"
    else:
        rhs = series_exp(TruncatedSeries.single(sp, order, 1, rb.r(a)))
        label = "iterated series = exp(lambda R(a)) at weight zero"
    rep.add_residuals(label, lhs, rhs)
    return rep


def spitzer_noncommutative_check(
    rb: RotaBaxter, a: Any, order: int, alpha: TruncatedSeries | None = None
) -> VerificationReport:
    """The BCH-recursion bridge between Magnus and the iterated-R series.

    Checks, per degree through the given order:
      * W = chi(alpha_t) with alpha_t = -log(1 - theta lambda a)/theta;
      * the two chi fixed-point forms agree, and the defining factorization
        exp(-theta alpha_t) = exp(R chi) exp(Rt chi) holds;
      * the iterated series 1 + sum lambda^n R(aR(...)) equals
        exp(R(chi(log(1 + theta a lambda)/theta)));
      * the change of variable chi(alpha) = W((1 - exp(-theta alpha))/theta)
        on the supplied alpha (defaults to lambda a).
    Only the iterated series needs (RB).  The other four hold for any linear R
    (R chi + Rt chi = -theta chi and the Atkinson splitting hold for any).
    """
    if rb.weight == 0:
        raise ZeroWeight("use spitzer_classical_check / classical_magnus_check at weight zero")
    rep = VerificationReport(f"non-commutative Spitzer [{rb.name}], weight {rb.weight}")
    sp = rb.space
    theta = rb.weight
    one = TruncatedSeries.one(sp, order)

    alpha_t = -series_log(_one_plus_lambda(sp, order, sp.scale(-theta, a))).scale(1 / theta)
    chi_two = bch_recursion(rb, alpha_t, "two_sided")
    chi_one = bch_recursion(rb, alpha_t, "one_sided")
    rep.add_residuals("two-sided and one-sided chi forms agree", chi_two, chi_one)

    w = magnus(rb.dendriform(), a, order)
    rep.add_residuals("W = chi(-log(1 - theta lambda a)/theta)", w, chi_two)

    rep.add_residuals(
        "exp(-theta alpha) = exp(R chi) exp(Rt chi)",
        series_exp(alpha_t.scale(-theta)),
        series_exp(chi_two.map_coeffs(rb.r)) * series_exp(chi_two.map_coeffs(rb.r_tilde)),
    )

    plus = series_log(_one_plus_lambda(sp, order, sp.scale(theta, a))).scale(1 / theta)
    rep.add_residuals(
        "iterated series = exp(R(chi(log(1 + theta a lambda)/theta)))",
        _iterated_series(rb, a, order),
        series_exp(bch_recursion(rb, plus).map_coeffs(rb.r)),
    )

    if alpha is None:
        alpha = TruncatedSeries.single(sp, order, 1, a)
    substituted = (one - series_exp(alpha.scale(-theta))).scale(1 / theta)
    rep.add_residuals(
        "chi(alpha) = W((1 - exp(-theta alpha))/theta)",
        bch_recursion(rb, alpha),
        magnus_from_series(rb.dendriform(), substituted),
    )
    return rep


def exp_image_check(rb: RotaBaxter, a: Any, order: int) -> VerificationReport:
    """R maps the double-product exponential to the plain exponential:
    R(exp_{*t}(lambda a)) = exp(lambda R(a)).

    The left side is ``series_exp`` over the induced unital space, whose
    product is the double product, mapped by R with R(1u) = 1.
    """
    rep = VerificationReport(f"exponential image [{rb.name}]")
    sp = rb.space
    lam_a = TruncatedSeries.single(sp, order, 1, a)
    lhs = series_exp(lift_to_unital(rb.dendriform(), lam_a)).map_coeffs(rb.unital_r, sp)
    rhs = series_exp(TruncatedSeries.single(sp, order, 1, rb.r(a)))
    rep.add_residuals("R(exp_*t(lambda a)) = exp(lambda R(a))", lhs, rhs)
    return rep


def classical_magnus_check(rb: RotaBaxter, a: Any, order: int) -> VerificationReport:
    """At weight zero the induced recursion is the commutator-form Magnus
    recursion: rhd coincides with ad_{R(.)} and both fixed points agree.
    This holds for any linear R, as the induced rhd is R(a)b - bR(a)."""
    if rb.weight != 0:
        raise ValueError("classical reduction concerns weight-zero instances")
    rep = VerificationReport(f"classical Magnus reduction [{rb.name}]")
    sp = rb.space
    ad_r = SimpleNamespace(space=sp, rhd=lambda x, y: sp.sub(sp.mul(rb.r(x), y), sp.mul(y, rb.r(x))))
    rep.add_residuals("induced recursion = ad_{R(.)} recursion", magnus(rb.dendriform(), a, order), magnus(ad_r, a, order))
    return rep
