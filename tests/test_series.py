from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

from dendrimag.dendriform import UndefinedUnitProduct, UnitalDendElem, lift_to_unital, series_half_prec, series_half_succ
from dendrimag.matrices import MatrixSpace, random_matrix
from dendrimag.series import (
    RATIONALS,
    BadConstantTerm,
    NonNilpotentInput,
    TruncatedSeries,
    bch,
    series_exp,
    series_log,
)


def scalar_series(order, coeffs):
    return TruncatedSeries(RATIONALS, order, [Fraction(c) for c in coeffs])


def test_exp_of_zero_is_unit():
    s = TruncatedSeries.zero(RATIONALS, 4)
    assert series_exp(s) == TruncatedSeries.one(RATIONALS, 4)


def test_exp_of_lambda():
    s = scalar_series(3, [0, 1])
    assert series_exp(s) == scalar_series(3, [1, 1, Fraction(1, 2), Fraction(1, 6)])
    s = scalar_series(8, [0, 1])
    assert series_exp(s) == scalar_series(8, [Fraction(1, factorial(n)) for n in range(9)])


def test_log_of_unit_is_zero():
    assert series_log(TruncatedSeries.one(RATIONALS, 5)).is_zero()


def test_log_of_one_plus_lambda():
    s = scalar_series(3, [1, 1])
    assert series_log(s) == scalar_series(3, [0, 1, Fraction(-1, 2), Fraction(1, 3)])
    s = scalar_series(8, [1, 1])
    assert series_log(s) == scalar_series(8, [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, 9)])


def test_exp_requires_nilpotent_input():
    with pytest.raises(NonNilpotentInput):
        series_exp(scalar_series(3, [1, 1]))


def test_log_requires_unit_constant_term():
    with pytest.raises(BadConstantTerm):
        series_log(scalar_series(3, [2, 1]))


def _random_matrix_series(rng, space, order, lowest=1):
    coeffs = [space.zero()] * lowest
    coeffs += [random_matrix(rng, space.n, span=3) for _ in range(order + 1 - lowest)]
    return TruncatedSeries(space, order, coeffs)


def test_exp_log_roundtrip_matrix_series(rng):
    space = MatrixSpace(3)
    for _ in range(50):
        s = _random_matrix_series(rng, space, 6)
        assert series_log(series_exp(s)) == s
        u = TruncatedSeries.one(space, 6) + s
        assert series_exp(series_log(u)) == u


def test_exp_log_roundtrip_scalar_and_grid(rng):
    from dendrimag.grids import GridSpace, random_gridseq

    for _ in range(20):
        s = scalar_series(8, [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)])
        assert series_log(series_exp(s)) == s
    gsp = GridSpace(Fraction(1, 2), 5)
    for _ in range(20):
        coeffs = [gsp.zero()] + [random_gridseq(rng, gsp.theta, 5) for _ in range(4)]
        s = TruncatedSeries(gsp, 4, coeffs)
        assert series_log(series_exp(s)) == s


def test_exp_log_roundtrip_remaining_spaces(rng):
    # polynomial coefficients, matrices at the full order bound, and the
    # unital dendriform space of the free model
    from dendrimag.polys import PolySpace, random_poly

    psp = PolySpace()
    for _ in range(10):
        coeffs = [psp.zero()] + [random_poly(rng, 2) for _ in range(6)]
        s = TruncatedSeries(psp, 6, coeffs)
        assert series_log(series_exp(s)) == s

    msp = MatrixSpace(2)
    s = _random_matrix_series(rng, msp, 8)
    assert series_log(series_exp(s)) == s

    from dendrimag.pbt import free_dendriform

    dend = free_dendriform()
    usp = dend.unital_space
    coeffs = [usp.zero()] + [dend.embed(dend.sample(rng)) for _ in range(5)]
    s = TruncatedSeries(usp, 5, coeffs)
    assert series_log(series_exp(s)) == s


def test_bch_of_x_and_zero_vanishes(rng):
    space = MatrixSpace(3)
    x = _random_matrix_series(rng, space, 4)
    assert bch(x, TruncatedSeries.zero(space, 4)).is_zero()
    assert bch(TruncatedSeries.zero(space, 4), x).is_zero()


def test_bch_commuting_scalars_vanish():
    x = scalar_series(5, [0, 2])
    y = scalar_series(5, [0, 0, Fraction(1, 3)])
    assert bch(x, y).is_zero()


@pytest.mark.parametrize("order", range(1, 7))
def test_bch_inverse_argument_vanishes(order, rng):
    space = MatrixSpace(2)
    x = _random_matrix_series(rng, space, order)
    assert bch(x, -x).is_zero()


def test_bch_degree_two_is_half_commutator(rng):
    space = MatrixSpace(3)
    for _ in range(25):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        x = TruncatedSeries.single(space, 2, 1, a)
        y = TruncatedSeries.single(space, 2, 1, b)
        out = bch(x, y)
        half_comm = ((a @ b) - (b @ a)).scale(Fraction(1, 2))
        assert out.coeff(0).is_zero() and out.coeff(1).is_zero()
        assert out.coeff(2) == half_comm


def test_series_equality_needs_all_coefficients():
    s = scalar_series(3, [0, 1, 2, 3])
    t = scalar_series(3, [0, 1, 2, 4])
    assert s != t
    assert s.truncated(2) == t.truncated(2)


def test_iterate_applies_the_step_once_per_degree():
    s = TruncatedSeries.iterate(RATIONALS, 4, Fraction(3), lambda c: c / 2 - 1)
    assert s == scalar_series(4, [3, Fraction(1, 2), Fraction(-3, 4), Fraction(-11, 8), Fraction(-27, 16)])
    assert TruncatedSeries.iterate(RATIONALS, 0, Fraction(3), None) == scalar_series(0, [3])


def test_shift_and_low_degree():
    s = scalar_series(4, [1, 2])
    shifted = TruncatedSeries.single(RATIONALS, 4, 2, Fraction(1)) * s  # lambda^2 s
    assert shifted == scalar_series(4, [0, 0, 1, 2])
    assert shifted.low_degree() == 2
    assert TruncatedSeries.zero(RATIONALS, 4).low_degree() is None


# -- the shared truncated bilinear loop --------------------------------------


def _naive(space, op, sx, sy):
    """Degree-wise double sum with no zero skipping."""
    out = []
    for n in range(sx.order + 1):
        acc = space.zero()
        for i in range(n + 1):
            acc = space.add(acc, op(sx.coeff(i), sy.coeff(n - i)))
        out.append(acc)
    return TruncatedSeries(space, sx.order, out)


def _sparse_series(rng, space, order, sample):
    """Zero at degree 0 and at the top degree, random zeros in between."""
    coeffs = [space.zero()] + [space.zero() if rng.random() < 0.3 else sample() for _ in range(order - 1)]
    return TruncatedSeries(space, order, coeffs + [space.zero()])


def _sparse_matrix_series(rng, space, order):
    return _sparse_series(rng, space, order, lambda: random_matrix(rng, space.n, span=3))


def test_series_product_matches_naive_double_sum(rng):
    space = MatrixSpace(3)
    one = TruncatedSeries.one(space, 5)
    for _ in range(10):
        x = _sparse_matrix_series(rng, space, 5)
        y = _sparse_matrix_series(rng, space, 5)
        for a, b in ((x, y), (one + x, y), (x, one + y), (one + x, one + y)):
            assert a * b == _naive(space, space.mul, a, b)


@pytest.mark.parametrize("model", ["tri_rb", "free"])
def test_half_products_match_naive_double_sum(model, request, rng):
    # the unital space sums each degree through _unital_sum: the free model's carrier
    # pairs go to one pair-list kernel, and one carrier sum adds the unit terms
    from dendrimag.pbt import free_dendriform

    if model == "free":
        dend = free_dendriform()
        sample = lambda: dend.sample(rng)
    else:
        tri_rb = request.getfixturevalue("tri_rb")
        dend = tri_rb.dendriform()
        sample = lambda: random_matrix(rng, tri_rb.space.n, span=3)
    one = TruncatedSeries.one(dend.unital_space, 5)
    for _ in range(5):
        x = lift_to_unital(dend, _sparse_series(rng, dend.space, 5, sample))
        y = lift_to_unital(dend, _sparse_series(rng, dend.space, 5, sample))
        for a, b in ((x, y), (one + x, y), (x, one + y)):
            assert series_half_prec(dend, a, b) == _naive(dend.unital_space, dend.half_prec, a, b)
            assert series_half_succ(dend, a, b) == _naive(dend.unital_space, dend.half_succ, a, b)


def test_lincomb_series_product_matches_naive_double_sum(rng):
    # the free model's kernel table hands all nonzero pairs of one degree to one
    # pair-list kernel, over mixed denominators: star, rhd, and lhd with its
    # operands swapped as in the right Magnus shape
    from dendrimag.lincomb import LinComb
    from dendrimag.pbt import _sums, free_dendriform, trees_of_degree
    from dendrimag.series import bilinear_terms

    dend = free_dendriform()
    space = dend.space
    swapped_lhd = lambda x, y: dend.lhd(y, x)

    def check(x, y):
        for op in (dend.star, dend.rhd):
            assert bilinear_terms(space, op, x.coeffs, y.coeffs, 0, x.order) == list(_naive(space, op, x, y).coeffs)
        lhd = bilinear_terms(space, dend.lhd, y.coeffs, x.coeffs, 0, x.order)
        assert lhd == list(_naive(space, swapped_lhd, x, y).coeffs)

    # degree 2 of the series is dense * dense, degree 4 single * single, and degree 3
    # two dense * single pairs: the trees of degree 6 sum into a list (500 and
    # 2 * 100 >= C_6 = 132 by the pair bound) and into a dict (20 < 132)
    threes = trees_of_degree(3)
    dense = [LinComb([(t, Fraction(k + 1, q)) for k, t in enumerate(threes)]) for q in (3, 5)]
    single = [LinComb.single(threes[k], Fraction(-2, q)) for k, q in ((1, 7), (4, 11))]
    x = TruncatedSeries(space, 4, [space.zero(), dense[0], single[0]])
    y = TruncatedSeries(space, 4, [space.zero(), dense[1], single[1]])
    kinds = [type(_sums([(x.coeff(i), y.coeff(n - i)) for i in range(1, n)])[1][6]) for n in (2, 3, 4)]
    assert kinds == [list, list, defaultdict]
    check(x, y)

    gen = TruncatedSeries(space, 5, [dend.generator()])  # a nonzero degree-0 term

    def sample():
        return dend.sample(rng).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))

    for _ in range(5):
        x, y = _sparse_series(rng, space, 5, sample), _sparse_series(rng, space, 5, sample)
        for a, b in ((x, y), (gen + x, y), (x, gen + y), (gen + x, gen + y), (x, -x)):
            check(a, b)


@pytest.mark.parametrize("carrier", ["free", "matrix_poly"])
def test_unital_series_product_matches_naive_double_sum(carrier, rng):
    # UnitalSpace.sum adds the unit parts and hands the carrier parts to carrier.sum
    from dendrimag.instances import matrix_poly_rb
    from dendrimag.pbt import free_dendriform

    dend = free_dendriform() if carrier == "free" else matrix_poly_rb().dendriform()
    usp = dend.unital_space
    one = TruncatedSeries.one(usp, 4)

    def sample():  # unit parts above degree 0 too, so each degree sums several
        return UnitalDendElem(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), dend.sample(rng))

    for _ in range(3):
        x, y = _sparse_series(rng, usp, 4, sample), _sparse_series(rng, usp, 4, sample)
        for a, b in ((x, y), (one + x, y), (x, one + y), (one + x, one + y)):
            assert a * b == _naive(usp, usp.mul, a, b)


def test_half_product_of_two_unit_constant_terms_is_undefined(tri_rb):
    dend = tri_rb.dendriform()
    one = TruncatedSeries.one(dend.unital_space, 3)
    with pytest.raises(UndefinedUnitProduct):
        series_half_prec(dend, one, one)


def test_half_product_rejects_series_over_another_space(tri_rb):
    dend = tri_rb.dendriform()
    carrier_one = TruncatedSeries.one(tri_rb.space, 3)
    with pytest.raises(ValueError):
        series_half_prec(dend, carrier_one, carrier_one)
