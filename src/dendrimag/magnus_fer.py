"""Pre-Lie Magnus and Fer expansions, generic over any dendriform instance.

Both expansions solve the pair of fixed-point equations

    X = 1 + lambda a prec X,        Y = 1 - Y succ lambda a

in the unital series algebra over a dendriform carrier.

Magnus form: there is a unique series W in lambda*A[[lambda]] with
X = exp*(W) and Y = exp*(-W), and it satisfies the Bernoulli-weighted
fixed point, in two equivalent shapes:

    W = sum_m (-1)^m (B_m/m!) (. lhd W)^m (lambda a)      (right form)
    W = sum_m (B_m/m!) (W rhd .)^m (lambda a)             (left form)

Each operator application raises the lambda-degree, so the degree-n
coefficient only involves lower ones and the recursion closes order by
order; that grading argument is the entire evaluation strategy here (no
iteration-to-convergence).

Fer form: X is an ordered product exp*(U_0) * exp*(U_1) * ... with
U_0 = lambda a and

    U_{n+1} = sum_{l>0} ((-1)^l l / (l+1)!) (U_n rhd .)^l (U_n),

and Y the reversed product of exp*(-U_n).  Each correction is a power
series in the operator U_n rhd ., summed by the loop behind exp and log.
The lowest degree of U_n is 2^n, so floor(log2 N) + 1 factors saturate order N.

A "pre-Lie ops" bundle is anything with a ``space`` and ``rhd`` (and
``lhd`` for the right Magnus form); every Dendriform instance qualifies,
as do the free rooted-tree and formal-expression models.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb

from .dendriform import (
    Dendriform,
    lift_to_unital,
    series_half_prec,
    series_half_succ,
    solve_left,
    solve_right,
)
from .lincomb import LinComb
from .prelie_expr import eval_rooted, formal_ops
from .report import VerificationReport
from .scalars import bernoulli_weight
from .series import TruncatedSeries, _power_sum, bilinear_terms, series_exp

__all__ = [
    "magnus",
    "magnus_from_series",
    "verify_magnus",
    "fer",
    "fer_depth",
    "verify_fer",
    "magnus_free_component",
    "beta_integral",
    "power_sum_bridge_check",
]

MAGNUS_VARIANTS = ("left_rhd", "right_lhd")

# The float steppers that ``ode`` builds from these recursions: method ->
# (convergence order, exponentials per step).  The table lives here, free of
# numpy, so the CLI can offer ``solve --method`` without loading the float stack.
_METHOD_META = {
    "magnus2": (2, 1),
    "magnus4": (4, 1),
    "fer1": (2, 1),
    "fer2": (4, 2),
}
METHODS = tuple(sorted(_METHOD_META))


def magnus_from_series(ops, b: TruncatedSeries, variant: str = "left_rhd") -> TruncatedSeries:
    """The Magnus fixed point W(b) for a series input b in lambda*A[[lambda]].

    Solved by ascending degree; ``variant`` selects the left (rhd-based) or
    right (lhd-based) shape of the recursion, which must agree.
    """
    sp = ops.space
    if b.space is not sp:
        raise ValueError("input series must live over the ops' carrier space")
    if not sp.is_zero(b.coeff(0)):
        raise ValueError("Magnus input needs zero constant term")
    left = variant == "left_rhd"
    if left:
        op, weight = ops.rhd, bernoulli_weight  # W rhd x
    elif variant == "right_lhd":
        op, weight = ops.lhd, lambda m: Fraction(-1) ** m * bernoulli_weight(m)  # x lhd W
    else:
        raise ValueError(f"unknown variant {variant!r}; use one of {MAGNUS_VARIANTS}")

    N = b.order
    omega = [sp.zero() for _ in range(N + 1)]
    # powers[m][k]: degree-k coefficient of the m-th operator power applied to b.
    # Entry [m][n] is final once written: it only involves omega below degree n.
    powers = [list(b.coeffs)]
    for n in range(1, N + 1):
        terms = [powers[0][n]]
        for m in range(1, n):
            if len(powers) <= m:
                powers.append([sp.zero() for _ in range(N + 1)])
            xs, ys = (omega, powers[m - 1]) if left else (powers[m - 1], omega)
            (val,) = bilinear_terms(sp, op, xs, ys, n, n)
            powers[m][n] = val
            w = weight(m)
            if w:  # B_m vanishes for odd m >= 3
                terms.append(sp.scale(w, val))
        omega[n] = sp.sum(terms)
    return TruncatedSeries(sp, N, omega)


def magnus(ops, a, order: int, variant: str = "left_rhd") -> TruncatedSeries:
    """The Magnus series for the single-element input lambda*a."""
    if order < 1:
        raise ValueError("order must be >= 1")
    b = TruncatedSeries.single(ops.space, order, 1, a)
    return magnus_from_series(ops, b, variant)


def verify_magnus(dend: Dendriform, a, order: int) -> VerificationReport:
    """exp*(W) against the left solution and exp*(-W) against the right one."""
    rep = VerificationReport(f"magnus order {order} [{dend.name}]")
    w_left = magnus(dend, a, order, "left_rhd")
    w_right = magnus(dend, a, order, "right_lhd")
    rep.add_residuals("left and right recursion shapes agree", w_left, w_right)
    w = lift_to_unital(dend, w_left)
    rep.add_residuals("exp*(W) solves X = 1 + lambda a<X", series_exp(w), solve_left(dend, a, order))
    rep.add_residuals("exp*(-W) solves Y = 1 - Y>lambda a", series_exp(-w), solve_right(dend, a, order))
    return rep


def fer_depth(order: int) -> int:
    """floor(log2 N) + 1; U_n vanishes modulo lambda^(N+1) beyond this index."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return order.bit_length()  # == floor(log2(order)) + 1


def fer_step_series(ops, u: TruncatedSeries) -> TruncatedSeries:
    """One Fer correction: sum_{l>0} ((-1)^l l/(l+1)!) (u rhd .)^l (u).

    A power series in the operator u rhd ., summed by the exp/log loop: its
    l-th term is -(l+1)/(l(l+2)) times u rhd (term l-1), from -(u rhd u)/2.
    """
    sp, order = ops.space, u.order
    step = lambda t: TruncatedSeries(sp, order, bilinear_terms(sp, ops.rhd, u.coeffs, t.coeffs, 0, order))
    return _power_sum(step(u).scale(Fraction(-1, 2)), step, lambda l: Fraction(-(l + 1), l * (l + 2)))


def fer(ops, a, order: int) -> list[TruncatedSeries]:
    """The Fer factors U_0..U_k, k = fer_depth(order), truncated at ``order``."""
    u = TruncatedSeries.single(ops.space, order, 1, a)
    factors = [u]
    for _ in range(fer_depth(order)):
        u = fer_step_series(ops, u)
        factors.append(u)
    return factors


# The closed two-term recursion is checked for U_1 and U_2, from U_0 and U_1.
_CLOSED_STEPS = (1, 2)


def _fer_closed_step(
    dend: Dendriform, u_unital: TruncatedSeries, e_plus: TruncatedSeries, e_minus: TruncatedSeries
) -> TruncatedSeries:
    """The two-term closed recursion ((exp*(-u) - 1) + exp*(-u) > u) < exp*(u),
    given e_plus = exp*(u) and e_minus = exp*(-u)."""
    one = TruncatedSeries.one(dend.unital_space, u_unital.order)
    return series_half_prec(dend, e_minus - one + series_half_succ(dend, e_minus, u_unital), e_plus)


def verify_fer(dend: Dendriform, a, order: int, exact_onsets: bool = False) -> VerificationReport:
    """Ordered exponential products against both fixed points, plus onsets
    and agreement of the pre-Lie form with the closed two-term recursion.

    Generically the n-th correction starts at degree >= 2^n (or vanishes,
    e.g. whenever the pre-Lie product degenerates); ``exact_onsets`` upgrades
    this to equality, which holds in the free model.
    """
    rep = VerificationReport(f"fer order {order} [{dend.name}]")
    factors = fer(dend, a, order)
    lifted = [lift_to_unital(dend, u) for u in factors]

    # exp*(U_n) and exp*(-U_n) are kept for the U_n that the closed-step checks read
    kept = {n - 1 for n in _CLOSED_STEPS if n < len(factors)}
    e_plus = {n: series_exp(lifted[n]) for n in kept}
    exps = (e_plus[n] if n in kept else series_exp(u) for n, u in enumerate(lifted))
    prod = reduce(TruncatedSeries.__mul__, exps)
    rep.add_residuals(f"forward product of {len(factors)} exponentials equals X", prod, solve_left(dend, a, order))
    e_minus = {n: series_exp(-lifted[n]) for n in kept}
    exps = (e_minus[n] if n in kept else series_exp(-lifted[n]) for n in reversed(range(len(lifted))))
    prod = reduce(TruncatedSeries.__mul__, exps)
    rep.add_residuals("reversed product of negated exponentials equals Y", prod, solve_right(dend, a, order))

    for n, u in enumerate(factors):
        onset = u.low_degree()
        expected = 2**n
        if expected > order:
            rep.add(f"U_{n} vanishes modulo truncation", onset is None, f"low degree {onset}")
        elif exact_onsets:
            rep.add(f"U_{n} has lowest degree {expected}", onset == expected, f"low degree {onset}")
        else:
            rep.add(
                f"U_{n} starts at degree >= {expected}",
                onset is None or onset >= expected,
                f"low degree {onset}",
            )

    for n in _CLOSED_STEPS:
        if n >= len(factors):
            break
        closed = _fer_closed_step(dend, lifted[n - 1], e_plus[n - 1], e_minus[n - 1])
        rep.add_residuals(f"pre-Lie form of U_{n} matches the closed recursion", lifted[n], closed)
    return rep


def magnus_free_component(n: int) -> tuple[LinComb, LinComb]:
    """Degree-n Magnus coefficient for the free generator.

    Returns (raw, rooted): the combination of formal pre-Lie monomials
    exactly as the recursion produces it, and its expansion in the
    rooted-tree basis.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    ops = formal_ops()
    series = magnus(ops, ops.generator(), n)
    raw = series.coeff(n)
    return raw, eval_rooted(raw)


def beta_integral(p: int, q: int) -> Fraction:
    """Exact integral of (1-s)^q s^p over [0, 1], by binomial expansion.

    Validates the identity p! q! / (p+q+1)! used in deriving the Magnus
    fixed point; the library itself never calls it.
    """
    if p < 0 or q < 0:
        raise ValueError("exponents must be >= 0")
    return sum(
        (Fraction((-1) ** j * comb(q, j), p + j + 1) for j in range(q + 1)),
        Fraction(0),
    )


def power_sum_bridge_check(dend: Dendriform, a, order: int, n_max: int) -> VerificationReport:
    """sum_{p+q=n} W^*p > W < W^*q = W^*(n+1) for the Magnus series W."""
    rep = VerificationReport(f"power-sum bridge [{dend.name}]")
    w = lift_to_unital(dend, magnus(dend, a, order))
    powers = [TruncatedSeries.one(dend.unital_space, order)]
    for _ in range(n_max + 1):
        powers.append(powers[-1] * w)
    succ_w = [series_half_succ(dend, power, w) for power in powers[: n_max + 1]]  # W^*p > W
    for n in range(n_max + 1):
        total = TruncatedSeries.zero(dend.unital_space, order)
        for p in range(n + 1):
            total = total + series_half_prec(dend, succ_w[p], powers[n - p])
        rep.add_residuals(f"n = {n}", total, powers[n + 1])
    return rep
