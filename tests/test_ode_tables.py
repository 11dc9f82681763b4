"""The float integrator's weight tables and its batched evaluation.

The exact gate recomputes every step exponent with the exact Magnus / Fer
recursions on the integration dendriform of ``matrix_poly_rb`` (polynomials
with 2x2 rational matrix coefficients) and compares it with the tables
applied to the same rational coefficients: the residual must be zero.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.linalg

from dendrimag.instances import matrix_poly_rb
from dendrimag.magnus_fer import fer, magnus
from dendrimag.matrices import RatMatrix, random_matrix
from dendrimag.ode import FloatMatrixPoly, METHODS, _transitions, _weight_tables, integrate, matrix_exp
from dendrimag.polys import Poly

# method -> the exact series whose grades 1..N make each exponential factor
EXACT_FACTORS = {
    "magnus2": lambda ops, a: [magnus(ops, a, 1)],
    "magnus4": lambda ops, a: [magnus(ops, a, 3)],
    "fer1": lambda ops, a: fer(ops, a, 1)[:1],
    "fer2": lambda ops, a: fer(ops, a, 3)[:2],
}

POINTS = [(Fraction(0), Fraction(1, 2)), (Fraction(3, 7), Fraction(2, 5))]


def _shifted_exact(coeffs, t0):
    """Coefficients of s -> A(t0 + s), by the binomial theorem."""
    n = coeffs[0].n
    out = [RatMatrix.zeros(n) for _ in coeffs]
    for j, c in enumerate(coeffs):
        for k in range(j + 1):
            out[k] = out[k] + c.scale(comb(j, k) * t0 ** (j - k))
    return out


def _exact_exponents(method, bs, h):
    """Each factor's series for the local polynomial sum_k B_k s^k, summed over
    its grades and integrated over [0, h]."""
    rb = matrix_poly_rb(n=bs[0].n)
    out = []
    for series in EXACT_FACTORS[method](rb.dendriform(), Poly(rb.space.base, bs)):
        total = RatMatrix.zeros(bs[0].n)
        for grade in series.coeffs:
            total = total + grade.integrate().eval_at(h)
        out.append(total)
    return out


def _table_exponent(table, bs, h):
    n = bs[0].n
    total = RatMatrix.zeros(n)
    for word, power, weight in table:
        prod = RatMatrix.identity(n)
        for k in word:
            prod = prod @ bs[k]
        total = total + prod.scale(weight * h**power)
    return total


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_weight_tables_are_the_exact_recursion(rng, method, degree):
    coeffs = [random_matrix(rng, 2, span=3) for _ in range(degree)]
    coeffs.append(RatMatrix([[1, -2], [3, Fraction(1, 2)]]))  # nonzero top coefficient
    tables = _weight_tables(method, degree)
    for t0, h in POINTS:
        bs = _shifted_exact(coeffs, t0)
        exact = _exact_exponents(method, bs, h)
        assert len(tables) == len(exact)
        for table, expected in zip(tables, exact):
            assert _table_exponent(table, bs, h) - expected == RatMatrix.zeros(2)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_float_step_matches_exact_exponent(rng, method):
    coeffs = [random_matrix(rng, 2, span=3) for _ in range(3)]
    a = FloatMatrixPoly([np.array([[float(x) for x in row] for row in c.rows]) for c in coeffs])
    for t0, h in POINTS:
        expected = np.eye(2)
        for e in _exact_exponents(method, _shifted_exact(coeffs, t0), h):
            expected = expected @ scipy.linalg.expm(np.array([[float(x) for x in r] for r in e.rows]))
        got = _transitions(a, np.array([float(t0)]), float(h), method)[0]
        assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, float(np.max(np.abs(expected))))


def test_matrix_exp_stack_matches_single_matrices():
    # scales spread the 1-norms so the matrices need different squaring counts
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3, 4, 3, 3)) * np.array([0.01, 1.0, 9.0, 60.0])[:, None, None]
    out = matrix_exp(stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(*stack.shape[:2]):
        assert np.array_equal(out[idx], matrix_exp(stack[idx]))
        oracle = scipy.linalg.expm(stack[idx])
        assert np.max(np.abs(out[idx] - oracle)) / max(1.0, float(np.max(np.abs(oracle)))) <= 1e-12


@pytest.mark.parametrize("method", METHODS)
def test_batches_split_long_runs_without_changing_steps(method):
    # at n = 8 one batch holds 32 steps, so 130 steps span five batches
    rng = np.random.default_rng(11)
    a = FloatMatrixPoly([c / np.linalg.norm(c, 1) for c in rng.normal(size=(2, 8, 8))])
    res = integrate(a, 1.0, 130, method)
    h = 1.0 / 130
    expected = np.eye(8)
    for k in range(130):
        expected = _transitions(a, np.array([k * h]), h, method)[0] @ expected
    assert np.array_equal(res.final, expected)
