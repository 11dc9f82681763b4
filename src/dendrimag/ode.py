"""Floating-point Magnus and Fer integrators for x'(t) = A(t) x(t).

A(t) is restricted to matrix polynomials, so every inner integral in the
expansions is exact and the only error sources are series truncation and
floating point (quadrature design is deliberately out of scope).

Over a step [t0, t0+h] write A(t0 + s) = sum_k B_k s^k.  With integration
as the weight-zero operator (rhd(x, y) = [I(x), y]), the pre-Lie Magnus and
Fer recursions make each step exponent a fixed rational combination of
h^p B_{w_1} ... B_{w_k}.  These weight tables come from the exact ``magnus``
/ ``fer`` run once per method and degree over a carrier of such words;
``integrate`` then evaluates them in numpy on whole batches of steps.

Grade-to-order bookkeeping: the grade-d term of the step exponent scales at
least as h^d, so keeping grade 1 gives a second-order method and grades up
to 3 a fourth-order one.  The grade-2 term is a commutator with an inner
integral and is actually O(h^3), not O(h^2), which is why "order 2" needs
only grade 1; the same cancellation makes the two-exponential Fer variant
fourth order.  ``METHODS`` (defined in ``magnus_fer``) names the four
steppers: ``magnus2`` and ``magnus4`` keep grades 1 and 1..3 of the Magnus
exponent; ``fer1`` takes exp(I(U_0)) alone and ``fer2`` follows it with the
first Fer correction truncated at grade 3.

``convergence_sweep`` measures each step count against a self-consistent
reference (the order-4 method on a 64x finer grid, not an external solver),
as max-norm differences at the horizon; ``fit_slope`` turns the sweep into
a least-squares slope of log(error) against log(h).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .lincomb import LinComb, LinCombSpace, bilinear, combine
from .magnus_fer import _METHOD_META, METHODS, fer, magnus

__all__ = [
    "NonFinite",
    "DegenerateFit",
    "matrix_exp",
    "FloatMatrixPoly",
    "StepResult",
    "integrate",
    "METHODS",
    "REFERENCE_REFINEMENT",
    "reference_solution",
    "convergence_sweep",
    "fit_slope",
    "rows_to_csv",
    "liouville_defect",
    "default_test_problem",
]


class NonFinite(FloatingPointError):
    """A matrix operation produced inf or nan."""


class DegenerateFit(ValueError):
    """Errors sit at machine precision; a log-log slope is meaningless."""


# Diagonal Pade approximant of degree 13 with scaling and squaring.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_BOUND = 5.371920351148152


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with the fixed degree-13 diagonal approximant.

    Takes one square matrix or a stack of shape (..., n, n); every matrix
    gets its own squaring count from its 1-norm.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix_exp input has non-finite entries")
    n = a.shape[-1]
    a = a.reshape(-1, n, n)
    norms = np.maximum(np.abs(a).sum(axis=1).max(axis=1), _PADE13_BOUND)  # 1-norms
    squarings = np.ceil(np.log2(norms / _PADE13_BOUND)).astype(int)
    a = np.ldexp(a, -squarings[:, None, None])  # exact division by 2^squarings
    ident = np.eye(n)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        sel = squarings > k
        r[sel] = r[sel] @ r[sel]
    if not np.all(np.isfinite(r)):
        raise NonFinite("matrix_exp overflowed")
    return r.reshape(np.shape(m))


def _shifted(coeffs: Sequence[np.ndarray], t0s: np.ndarray) -> np.ndarray:
    """Coefficients of s -> A(t0 + s) for every t0 in ``t0s``, shape (steps, d+1, n, n)."""
    n = coeffs[0].shape[0]
    out = np.zeros((len(t0s), len(coeffs), n, n))
    for j, c in enumerate(coeffs):
        for k in range(j + 1):
            out[:, k] += (math.comb(j, k) * t0s ** (j - k))[:, None, None] * c
    if not np.all(np.isfinite(out)):
        raise NonFinite("shifted polynomial coefficients have non-finite entries")
    return out


class FloatMatrixPoly:
    """A(t) = sum_j A_j t^j with square float matrix coefficients."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs: Sequence[np.ndarray]):
        cs = [np.array(c, dtype=float) for c in coeffs]
        if not cs:
            raise ValueError("need at least one coefficient")
        n = cs[0].shape[0]
        for c in cs:
            if c.shape != (n, n):
                raise ValueError("coefficients must be square matrices of one size")
            if not np.all(np.isfinite(c)):
                raise NonFinite("polynomial coefficient has non-finite entries")
        while len(cs) > 1 and not cs[-1].any():
            cs.pop()
        self.coeffs = cs
        self.n = n

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


Row = tuple[int, float, float, float | None]


def _integral_bracket(x, y) -> LinComb:
    """[I(x), y] on basis pairs (word, p) = s^p B_word; I(s^p) = s^(p+1)/(p+1)."""
    (wx, px), (wy, py) = x, y
    p = px + 1 + py
    return combine(((1, LinComb.single((wx + wy, p))), (-1, LinComb.single((wy + wx, p)))), px + 1)


@functools.cache
def _weight_tables(method: str, degree: int) -> tuple:
    """Per exponential factor of one step, its (word, power, weight) terms:
    the exponent is the sum of weight * h^power * B_{w_1} ... B_{w_k}, from the
    exact recursions truncated at grade (order - 1) and integrated over [0, h]."""
    order, nexp = _METHOD_META[method]
    ops = SimpleNamespace(space=LinCombSpace(), rhd=bilinear(_integral_bracket))
    a = LinComb({((k,), k): 1 for k in range(degree + 1)})
    if method.startswith("magnus"):
        factors = [magnus(ops, a, order - 1)]
    else:
        factors = fer(ops, a, order - 1)[:nexp]
    # grades have distinct word lengths, so their terms never collide
    return tuple(
        tuple(sorted((w, p + 1, Fraction(v, g.den * (p + 1))) for g in f.coeffs for (w, p), v in g.num.items()))
        for f in factors
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NonFinite below instead
def _transitions(a: FloatMatrixPoly, t0s: np.ndarray, h: float, method: str) -> np.ndarray:
    """Step transition matrices over [t0, t0+h] for every t0, shape (steps, n, n)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    b = _shifted(a.coeffs, t0s)
    u = None
    for table in _weight_tables(method, a.degree):
        exponents = np.zeros((len(t0s), a.n, a.n))
        for word, power, weight in table:
            prod = b[:, word[0]]
            for k in word[1:]:
                prod = prod @ b[:, k]
            exponents += (float(weight) * h**power) * prod
        e = matrix_exp(exponents)
        u = e if u is None else u @ e
    if not np.all(np.isfinite(u)):
        raise NonFinite("step transition overflowed")
    return u


@dataclass
class StepResult:
    final: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    a: FloatMatrixPoly, horizon: float, steps: int, method: str = "magnus4", t_start: float = 0.0
) -> StepResult:
    """Compose uniform steps of the chosen method from t_start to t_start+horizon."""
    if steps < 1:
        raise ValueError("need at least one step")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")
    h = horizon / steps
    t0s = t_start + np.arange(steps) * h
    block = max(1, 2048 // (a.n * a.n))  # steps per batch: 2048 entries per stacked array
    phi = np.eye(a.n)
    for lo in range(0, steps, block):
        for u in _transitions(a, t0s[lo : lo + block], h, method):
            phi = u @ phi
    if not np.all(np.isfinite(phi)):
        raise NonFinite("propagator overflowed")
    return StepResult(phi)


# The reference grid is this many times finer than the finest sweep.
REFERENCE_REFINEMENT = 64


def reference_solution(a: FloatMatrixPoly, horizon: float, finest_steps: int) -> np.ndarray:
    """Order-4 Magnus on a grid ``REFERENCE_REFINEMENT`` times finer than the finest sweep."""
    return integrate(a, horizon, finest_steps * REFERENCE_REFINEMENT, "magnus4").final


def convergence_sweep(
    a: FloatMatrixPoly, horizon: float, method: str, step_counts: Sequence[int], reference=None
) -> tuple[list[Row], np.ndarray]:
    """(steps, h, error, slope_window) per step count, against the fine
    reference, together with the final at the finest step count."""
    counts = sorted(step_counts)
    if reference is None:
        reference = reference_solution(a, horizon, counts[-1])
    rows: list[Row] = []
    prev: tuple[float, float] | None = None
    for steps in counts:
        h = horizon / steps
        final = integrate(a, horizon, steps, method).final
        err = float(np.max(np.abs(final - reference)))
        window = None
        if prev is not None and err > 0 and prev[1] > 0:
            window = math.log(prev[1] / err) / math.log(prev[0] / h)
        rows.append((steps, h, err, window))
        prev = (h, err)
    return rows, final


def fit_slope(rows: Sequence[Row]) -> float:
    """Least-squares slope of log(error) vs log(h) over convergence rows."""
    if len(rows) < 4:
        raise ValueError("need at least 4 step counts for a stable fit")
    errors = [r[2] for r in rows]
    if any(e < 1e-13 for e in errors):
        raise DegenerateFit(f"errors at machine precision: {errors}")
    hs = [r[1] for r in rows]
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)


def rows_to_csv(rows: Sequence[Row]) -> str:
    lines = ["steps,h,error,slope_window"]
    for steps, h, err, window in rows:
        lines.append(f"{steps},{h!r},{err!r},{'' if window is None else repr(window)}")
    return "\n".join(lines) + "\n"


def liouville_defect(a: FloatMatrixPoly, horizon: float, steps: int, method: str) -> float:
    """Relative mismatch of det(Phi(T)) against exp of the integrated trace.

    The step exponents' higher grades are nested commutators, hence
    traceless, so the determinant identity survives truncation exactly and
    only floating point shows up here.
    """
    phi = integrate(a, horizon, steps, method).final
    trace_integral = sum(np.trace(c) * horizon ** (j + 1) / (j + 1) for j, c in enumerate(a.coeffs))
    expected = math.exp(trace_integral)
    return abs(float(np.linalg.det(phi)) - expected) / abs(expected)


def default_test_problem() -> FloatMatrixPoly:
    """A fixed noncommuting 2x2 polynomial family: rotation plus t-scaled shear."""
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a1 = np.array([[0.6, 0.3], [0.0, -0.6]])
    a2 = np.array([[0.0, 0.0], [0.5, 0.0]])
    return FloatMatrixPoly([a0, a1, a2])
