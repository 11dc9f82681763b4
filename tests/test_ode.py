import numpy as np
import pytest
import scipy.linalg

from dendrimag.ode import (
    DegenerateFit,
    FloatMatrixPoly,
    METHODS,
    NonFinite,
    _shifted,
    _transitions,
    convergence_sweep,
    default_test_problem,
    fit_slope,
    integrate,
    liouville_defect,
    matrix_exp,
    reference_solution,
    rows_to_csv,
)

STEP_COUNTS = [8, 16, 32, 64, 128]


@pytest.fixture(scope="module")
def problem():
    return default_test_problem()


@pytest.fixture(scope="module")
def reference(problem):
    return reference_solution(problem, 1.0, STEP_COUNTS[-1])


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    d = np.diag([0.3, -1.2, 2.5])
    assert np.allclose(matrix_exp(d), np.diag(np.exp([0.3, -1.2, 2.5])), rtol=1e-14)


def test_matrix_exp_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(n), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def test_matrix_exp_against_independent_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(n, n)) * float(rng.choice([0.2, 1.0, 4.0]))
        ours = matrix_exp(m)
        oracle = scipy.linalg.expm(m)
        denom = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(ours - oracle)) / denom <= 1e-12


def test_matrix_exp_rejects_bad_input():
    with pytest.raises(NonFinite):
        matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))


def test_constant_problem_single_step_exact():
    c = np.array([[0.0, 2.0], [-1.0, 0.3]])
    a = FloatMatrixPoly([c])
    expected = scipy.linalg.expm(c)
    for method in METHODS:
        out = integrate(a, 1.0, 1, method).final
        assert np.max(np.abs(out - expected)) <= 1e-10


def test_commuting_family_is_exact():
    # A(t) = f(t) C with scalar f: all commutators vanish, any method
    # reproduces exp(C * integral of f)
    c = np.array([[0.1, 1.0], [-2.0, 0.4]])
    a = FloatMatrixPoly([c, 0.5 * c])  # f(t) = 1 + t/2
    f_int = 1.0 + 0.25  # integral over [0, 1]
    expected = scipy.linalg.expm(f_int * c)
    for method in METHODS:
        out = integrate(a, 1.0, 4, method).final
        assert np.max(np.abs(out - expected)) <= 1e-10


def test_step_input_validation(problem):
    with pytest.raises(ValueError):
        _transitions(problem, np.array([0.0]), -0.1, "magnus4")
    with pytest.raises(ValueError):
        integrate(problem, 1.0, 0)
    with pytest.raises(ValueError):
        integrate(problem, 1.0, 4, "rk4")


def test_single_step_equals_integrate(problem):
    u = _transitions(problem, np.array([0.0]), 1.0, "magnus4")[0]
    assert np.array_equal(integrate(problem, 1.0, 1, "magnus4").final, u)


def test_composition_consistency(problem):
    full = integrate(problem, 1.0, 8, "magnus4").final
    first = integrate(problem, 0.5, 4, "magnus4").final
    second = integrate(problem, 0.5, 4, "magnus4", t_start=0.5).final
    assert np.max(np.abs(second @ first - full)) <= 1e-13


@pytest.mark.parametrize(
    "method,lo,hi",
    [("magnus2", 1.6, 2.4), ("fer1", 1.6, 2.4), ("magnus4", 3.6, 4.4), ("fer2", 3.6, 4.4)],
)
def test_convergence_slopes(problem, reference, method, lo, hi):
    slope = fit_slope(convergence_sweep(problem, 1.0, method, STEP_COUNTS, reference)[0])
    assert lo <= slope <= hi, f"{method} slope {slope}"


def test_errors_decrease_monotonically(problem, reference):
    for method in METHODS:
        rows, _ = convergence_sweep(problem, 1.0, method, STEP_COUNTS, reference)
        errors = [r[2] for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:])), (method, errors)


def test_degenerate_fit_on_constant_problem():
    a = FloatMatrixPoly([np.array([[0.0, 1.0], [-1.0, 0.0]])])
    with pytest.raises(DegenerateFit):
        fit_slope(convergence_sweep(a, 1.0, "magnus4", STEP_COUNTS)[0])


def test_convergence_needs_enough_counts(problem):
    with pytest.raises(ValueError):
        fit_slope(convergence_sweep(problem, 1.0, "magnus4", [8, 16])[0])


def test_liouville_determinant(problem):
    # the default problem is traceless; the shifted one checks the trace integral too
    traced = FloatMatrixPoly([c + (0.3 - 0.2 * j) * np.eye(2) for j, c in enumerate(problem.coeffs)])
    for method in ("magnus2", "magnus4", "fer1", "fer2"):
        assert liouville_defect(problem, 1.0, 64, method) <= 1e-8
        assert liouville_defect(traced, 1.5, 64, method) <= 1e-8


def test_fer_and_magnus_agree_within_error_bounds(problem, reference):
    # same order, same truncation grades: the two fourth-order methods land
    # within the sum of their individual errors, and likewise at order two
    for pair in (("magnus4", "fer2"), ("magnus2", "fer1")):
        for steps in (16, 64):
            finals = {m: integrate(problem, 1.0, steps, m).final for m in pair}
            errs = {m: np.max(np.abs(finals[m] - reference)) for m in pair}
            gap = np.max(np.abs(finals[pair[0]] - finals[pair[1]]))
            assert gap <= errs[pair[0]] + errs[pair[1]] + 1e-14


def test_csv_format(problem, reference):
    rows, _ = convergence_sweep(problem, 1.0, "magnus4", [8, 16, 32, 64], reference)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "steps,h,error,slope_window"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "8" and first[3] == ""
    # float fields round-trip
    assert float(first[1]) == 0.125
    later = lines[2].split(",")
    assert later[3] != ""


def test_poly_shift_matches_evaluation(problem):
    def value(coeffs, t):
        return sum(c * t**j for j, c in enumerate(coeffs))

    t0s = np.array([0.3, -1.25])
    for t0, shifted in zip(t0s, _shifted(problem.coeffs, t0s)):
        for s in (0.0, 0.17, 0.5):
            assert np.allclose(value(shifted, s), value(problem.coeffs, t0 + s), atol=1e-14)
