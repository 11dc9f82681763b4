import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from dendrimag import rota_baxter
from dendrimag.dendriform import check_tridendriform_axioms, sample_tuples
from dendrimag.grids import GridSeq, NonSummable, random_gridseq
from dendrimag.instances import grid_rb, matrix_poly_rb, poly_rb, summation_rb, triangular_rb
from dendrimag.magnus_fer import magnus
from dendrimag.matrices import RatMatrix, random_matrix, triangular_project
from dendrimag.polys import Poly, ibp_power_check, random_poly
from dendrimag.rota_baxter import (
    RBTridendriform,
    ZeroWeight,
    atkinson_check,
    atkinson_factors,
    bch_recursion,
    check_rb_relation,
    classical_magnus_check,
    exp_image_check,
    spitzer_classical_check,
    spitzer_noncommutative_check,
)
from dendrimag.series import RATIONALS, TruncatedSeries, bch, series_exp
from dendrimag.suites import suite_spitzer


def test_rb_relation_all_instances(tri_rb, grid_strict, grid_incl, poly_scalar, poly_matrix):
    for rb in (tri_rb, grid_strict, grid_incl, poly_scalar, poly_matrix, summation_rb()):
        rep = check_rb_relation(rb, 200, seed=11)
        assert rep.ok, rep.summary()


def test_declared_weights(tri_rb, grid_strict, grid_incl, poly_scalar):
    assert tri_rb.weight == -1
    assert grid_strict.weight == Fraction(1, 2)
    assert grid_incl.weight == Fraction(-1, 2)
    assert poly_scalar.weight == 0


def test_rescaled_weight_relation(tri_rb):
    for c in (Fraction(-1), Fraction(-1, 2), Fraction(-1, 7)):
        rb = tri_rb.rescaled(c)
        assert rb.weight == -c
        assert check_rb_relation(rb, 50, seed=5).ok


def test_r_tilde_is_minus_weight_minus_r(rng):
    base = [triangular_rb(), grid_rb(), grid_rb(strict=False), summation_rb(), poly_rb(), matrix_poly_rb()]
    for rb in base + [rb.rescaled(c) for rb in base for c in (Fraction(-1, 2), Fraction(3), Fraction(0))]:
        for _ in range(4):
            x = rb.sample(rng)
            assert rb.space.eq(rb.r_tilde(x), x.scale(-rb.weight) - rb.r(x)), rb.name


def test_r_tilde_at_weight_zero_builds_no_fraction(poly_scalar, poly_matrix, rng):
    samples = [(rb, rb.sample(rng)) for rb in (poly_scalar, poly_matrix) for _ in range(4)]
    made = []
    original = vars(Fraction)["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        results = [(rb, x, rb.r_tilde(x)) for rb, x in samples]
    finally:
        Fraction.__new__ = original
    assert made == []
    assert all(rt == -rb.r(x) for rb, x, rt in results)


def test_triangular_projection_basics(rng):
    m = RatMatrix([[1, 2], [3, 4]])
    assert triangular_project(m) == RatMatrix([[0, 2], [0, 0]])
    for _ in range(50):
        x = random_matrix(rng, 3)
        assert triangular_project(triangular_project(x)) == triangular_project(x)


def test_induced_tridendriform_axioms(tri_rb, grid_strict, rng):
    for rb in (tri_rb, grid_strict):
        tri = RBTridendriform(rb)
        triples = sample_tuples(tri, rng, 200, 3)
        rep = check_tridendriform_axioms(tri, triples)
        assert rep.ok, rep.summary()


def test_summation_instance_tridendriform(summation_tri, rng):
    triples = sample_tuples(summation_tri, rng, 200, 3)
    rep = check_tridendriform_axioms(summation_tri, triples)
    assert rep.ok, rep.summary()


def test_double_product_specialization(rng):
    # the induced star is a *t b = aR(b) + R(a)b + theta ab, written out, on every
    # instance; at weight zero (the polynomial instances) the theta ab term drops
    for rb in (triangular_rb(), grid_rb(), grid_rb(strict=False), summation_rb(), poly_rb(), matrix_poly_rb()):
        sp, r, star = rb.space, rb.r, rb.dendriform().star
        for _ in range(20):
            a, b = rb.sample(rng), rb.sample(rng)
            expected = sp.add(sp.add(sp.mul(a, r(b)), sp.mul(r(a), b)), sp.scale(rb.weight, sp.mul(a, b)))
            assert sp.eq(star(a, b), expected), rb.name


def test_atkinson_factor_zero_input(tri_rb):
    assert atkinson_factors(tri_rb, tri_rb.space.zero(), 5) == (TruncatedSeries.one(tri_rb.space, 5),) * 2


def test_atkinson_factor_recursion_residual(tri_rb, rng):
    # substitute the solutions back into their defining equations
    sp = tri_rb.space
    a = tri_rb.sample(rng)
    order = 6
    xh, yh = atkinson_factors(tri_rb, a, order)
    one = TruncatedSeries.one(sp, order)
    ax = TruncatedSeries.single(sp, order, 1, a) * xh
    assert xh == one - ax.map_coeffs(tri_rb.r_tilde)
    ya = yh * TruncatedSeries.single(sp, order, 1, a)
    assert yh == one - ya.map_coeffs(tri_rb.r)


def test_atkinson_and_factor_forms(tri_rb, grid_strict, grid_incl, rng):
    for rb in (tri_rb, grid_strict, grid_incl):
        a = rb.sample(rng)
        reports = atkinson_check(rb, a, 6)
        assert [len(r.checks) for r in reports] == [4, 2, 2]
        assert all(r.ok for r in reports), [r.summary() for r in reports]
    assert all(r.ok for r in atkinson_check(tri_rb, tri_rb.space.zero(), 6))


def test_bch_recursion_requires_nonzero_weight(poly_scalar):
    alpha = TruncatedSeries.zero(poly_scalar.space, 3)
    with pytest.raises(ZeroWeight):
        bch_recursion(poly_scalar, alpha)


def test_bch_recursion_commutative_is_identity(grid_strict, rng):
    coeffs = [grid_strict.space.zero()] + [grid_strict.sample(rng) for _ in range(4)]
    alpha = TruncatedSeries(grid_strict.space, 4, coeffs)
    assert bch_recursion(grid_strict, alpha) == alpha


def test_bch_recursion_degree_two_oracle(tri_rb, rng):
    # expanding the defining factorization to second order gives
    # chi(lambda a) = lambda a + (1/2)[a, R(a)] lambda^2 + ...
    sp = tri_rb.space
    for _ in range(10):
        a = tri_rb.sample(rng)
        alpha = TruncatedSeries.single(sp, 3, 1, a)
        chi = bch_recursion(tri_rb, alpha)
        ra = tri_rb.r(a)
        expected = sp.scale(Fraction(1, 2), sp.sub(sp.mul(a, ra), sp.mul(ra, a)))
        assert sp.eq(chi.coeff(1), a)
        assert sp.eq(chi.coeff(2), expected)


def test_bch_recursion_variants_agree(tri_rb, rng):
    sp = tri_rb.space
    coeffs = [sp.zero()] + [tri_rb.sample(rng) for _ in range(5)]
    alpha = TruncatedSeries(sp, 5, coeffs)
    assert bch_recursion(tri_rb, alpha, "two_sided") == bch_recursion(tri_rb, alpha, "one_sided")


@pytest.mark.parametrize("variant", ["two_sided", "one_sided"])
def test_bch_recursion_matches_full_order_reference(tri_rb, rng, variant):
    # reference: every degree read off the bch terms evaluated at the full order
    sp, theta, order = tri_rb.space, tri_rb.weight, 6
    alpha = TruncatedSeries(sp, order, [sp.zero()] + [tri_rb.sample(rng) for _ in range(order)])
    chi = [sp.zero() for _ in range(order + 1)]
    chi[1] = alpha.coeff(1)
    for n in range(2, order + 1):
        known = TruncatedSeries(sp, order, chi)
        if variant == "two_sided":
            corr = bch(known.map_coeffs(tri_rb.r), known.map_coeffs(tri_rb.r_tilde))
        else:
            corr = bch(alpha.scale(theta), known.map_coeffs(tri_rb.r))
        chi[n] = sp.add(alpha.coeff(n), sp.scale(1 / theta, corr.coeff(n)))
    assert bch_recursion(tri_rb, alpha, variant) == TruncatedSeries(sp, order, chi)


def test_spitzer_classical_grid_weights(grid_strict, grid_incl, rng):
    for rb in (grid_strict, grid_incl):
        assert spitzer_classical_check(rb, rb.sample(rng), 6).ok
        assert spitzer_classical_check(rb, rb.space.zero(), 6).ok


def test_spitzer_classical_rejects_noncommutative(tri_rb):
    with pytest.raises(ValueError):
        spitzer_classical_check(tri_rb, tri_rb.space.zero(), 3)


def test_spitzer_weight_zero_exponential_solution(poly_scalar):
    # constant integrand: the iterated integrals are t^n/n!
    one_poly = Poly(RATIONALS, [Fraction(1)])
    rep = spitzer_classical_check(poly_scalar, one_poly, 6)
    assert rep.ok, rep.summary()
    z = poly_scalar.space.one()
    for n in range(1, 5):
        z = poly_scalar.r(poly_scalar.space.mul(one_poly, z))
        import math

        assert z == Poly(RATIONALS, [0] * n + [Fraction(1, math.factorial(n))])


def test_spitzer_noncommutative_native_and_rescaled(tri_rb, rng):
    a = tri_rb.sample(rng)
    assert spitzer_noncommutative_check(tri_rb, a, 5).ok
    for w in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
        rb = tri_rb.rescaled(-w)
        assert rb.weight == w
        assert spitzer_noncommutative_check(rb, a, 5).ok


def test_spitzer_noncommutative_random_alpha(tri_rb, rng):
    sp = tri_rb.space
    coeffs = [sp.zero()] + [tri_rb.sample(rng) for _ in range(4)]
    alpha = TruncatedSeries(sp, 4, coeffs)
    rep = spitzer_noncommutative_check(tri_rb, tri_rb.sample(rng), 4, alpha=alpha)
    assert rep.ok, rep.summary()


def test_spitzer_noncommutative_reduces_on_commutative_carrier(grid_strict, rng):
    rep = spitzer_noncommutative_check(grid_strict, grid_strict.sample(rng), 5)
    assert rep.ok, rep.summary()


def test_exp_image_all_instances(tri_rb, poly_scalar, rng):
    for rb in (tri_rb, poly_scalar):
        assert exp_image_check(rb, rb.sample(rng), 6).ok
        assert exp_image_check(rb, rb.space.zero(), 6).ok


def test_series_layer_scales_and_adds_no_zero_matrix(tri_rb, monkeypatch):
    # zero coefficients pass through TruncatedSeries.scale, stay out of the
    # exp/log sums, and R(1u) = 1 enters only with a nonzero scalar; at the
    # parent the check below made 70 scales, 53 of them of a zero matrix
    calls = {"scale": 0, "zero scale": 0, "add": 0}
    scale, add = RatMatrix.scale, RatMatrix.__add__

    def counted_scale(self, c):
        calls["scale"] += 1
        calls["zero scale"] += self.is_zero()
        return scale(self, c)

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(RatMatrix, "scale", counted_scale)
    monkeypatch.setattr(RatMatrix, "__add__", counted_add)
    rep = exp_image_check(tri_rb, tri_rb.sample(random.Random(3)), 5)
    assert rep.ok, rep.summary()
    # 7 scales of power-sum terms, 4 of R~ inside prec and one unit term (degree 0);
    # a unit term at each of degrees 1..5 would add 5 scales and 5 additions
    assert calls == {"scale": 12, "zero scale": 0, "add": 5}
    for key in calls:
        calls[key] = 0
    assert all(r.ok for r in suite_spitzer(5, 1729))
    assert calls["scale"] < 5553 and calls["add"] < 3572
    # map_coeffs sends zero coefficients to zero without calling R, Rt or the
    # rescaled operator; calling them would add 277 scales of a zero matrix
    assert calls == {"scale": 2194, "zero scale": 0, "add": 2093}


def test_map_coeffs_calls_no_map_on_zero_coefficients(tri_rb):
    sp = tri_rb.space
    a = tri_rb.sample(random.Random(5))
    s = TruncatedSeries(sp, 3, [sp.zero(), a, sp.zero(), sp.scale(2, a)])
    seen = []

    def r(x):
        seen.append(x)
        return tri_rb.r(x)

    mapped = s.map_coeffs(r)
    assert seen == [a, sp.scale(2, a)]
    assert list(mapped.coeffs) == [sp.zero(), tri_rb.r(a), sp.zero(), tri_rb.r(sp.scale(2, a))]
    usp = tri_rb.dendriform().unital_space
    lifted = s.map_coeffs(tri_rb.dendriform().embed, usp)
    assert lifted.space is usp and usp.is_zero(lifted.coeffs[0]) and usp.is_zero(lifted.coeffs[2])


def test_dendriform_from_threads_is_one_object(monkeypatch):
    # a slow constructor widens any check-then-act window in dendriform()
    class SlowDendriform(rota_baxter.RBDendriform):
        def __init__(self, rb):
            time.sleep(0.01)
            super().__init__(rb)

    monkeypatch.setattr(rota_baxter, "RBDendriform", SlowDendriform)
    rb = triangular_rb()
    workers = 8
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = rb.dendriform()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert isinstance(results[0], SlowDendriform)
    assert all(r is results[0] for r in results)


def test_classical_magnus_reduction(poly_scalar, poly_matrix, grid_strict, rng):
    assert classical_magnus_check(poly_scalar, poly_scalar.sample(rng), 5).ok
    assert classical_magnus_check(poly_matrix, poly_matrix.sample(rng), 5).ok
    with pytest.raises(ValueError):
        classical_magnus_check(grid_strict, grid_strict.sample(rng), 3)


def test_unit_convention_consistency(tri_rb, rng):
    # 1u succ x computes to R(1u) x and x prec 1u to -x Rt(1u)
    dend = tri_rb.dendriform()
    usp = dend.unital_space
    sp = tri_rb.space
    one = usp.one()
    for _ in range(20):
        x = tri_rb.sample(rng)
        xe = dend.embed(x)
        r_one = tri_rb.unital_r(one)  # = carrier unit
        rt_one = tri_rb.unital_r_tilde(one)  # = minus the carrier unit
        assert usp.eq(dend.half_succ(one, xe), dend.embed(sp.mul(r_one, x)))
        assert usp.eq(dend.half_prec(xe, one), dend.embed(sp.neg(sp.mul(x, rt_one))))


def test_unital_operator_extension_is_multiplicative(tri_rb, rng):
    # R extended by R(1u) = 1 turns unital stars into carrier products
    dend = tri_rb.dendriform()
    usp = dend.unital_space
    sp = tri_rb.space
    for _ in range(20):
        x = usp.add(usp.one(), dend.embed(tri_rb.sample(rng)))
        y = usp.add(
            usp.scale(Fraction(random.Random(3).randint(-2, 2)), usp.one()),
            dend.embed(tri_rb.sample(rng)),
        )
        lhs = tri_rb.unital_r(dend.unital_star(x, y))
        rhs = sp.mul(tri_rb.unital_r(x), tri_rb.unital_r(y))
        assert sp.eq(lhs, rhs)
        lhs = sp.neg(tri_rb.unital_r_tilde(dend.unital_star(x, y)))
        rhs = sp.mul(sp.neg(tri_rb.unital_r_tilde(x)), sp.neg(tri_rb.unital_r_tilde(y)))
        assert sp.eq(lhs, rhs)


# -- grid operators ----------------------------------------------------------


def test_grid_sum_example():
    f = GridSeq(Fraction(1), [1, 1, 1])
    assert f.sum_incl() == GridSeq(Fraction(1), [1, 2, 3])
    assert f.sum_strict() == GridSeq(Fraction(1), [0, 1, 2])
    assert f.tail_sum() == GridSeq(Fraction(1), [2, 1, 0])


def test_skewderivation_rule(rng):
    theta = Fraction(1, 3)
    for _ in range(100):
        f = random_gridseq(rng, theta, 6)
        g = random_gridseq(rng, theta, 6)
        lhs = (f * g).diff()
        rhs = f.diff() * g + f * g.diff() + (f.diff() * g.diff()).scale(theta)
        assert lhs == rhs


def test_summation_inverts_difference(rng):
    theta = Fraction(2, 5)
    for _ in range(100):
        f = random_gridseq(rng, theta, 7)
        assert f.diff().shift_sum() == f


def test_shift_sum_needs_zero_total():
    f = GridSeq(Fraction(1), [1, 2])
    with pytest.raises(NonSummable):
        f.shift_sum()


def test_grid_mismatched_theta_rejected():
    with pytest.raises(ValueError):
        GridSeq(Fraction(1), [1]) + GridSeq(Fraction(2), [1])


# -- polynomial operators ----------------------------------------------------


def test_poly_integrate_monomials():
    for n in range(6):
        p = Poly(RATIONALS, [0] * n + [1])
        expected = Poly(RATIONALS, [0] * (n + 1) + [Fraction(1, n + 1)])
        assert p.integrate() == expected


def test_integration_by_parts_squared(rng):
    for _ in range(20):
        a = random_poly(rng, 3)
        ia = a.integrate()
        assert ia * ia == ((a * ia).integrate()).scale(2)


@pytest.mark.parametrize("n", [*range(7), 9])  # 9: one past the CLI's MAX_ORDER
def test_ibp_power_check(n, rng):
    rep = ibp_power_check(random_poly(rng, 3), n)
    assert rep.ok, rep.summary()


def test_ibp_quintic_on_random_cubic(rng):
    rep = ibp_power_check(random_poly(rng, 3), 5)
    assert rep.ok


def test_factor_exponential_consistency_with_magnus(tri_rb, rng):
    # Xh and Yh really are the exponentials of -Rt(W) and -R(W)
    a = tri_rb.sample(rng)
    w = magnus(tri_rb.dendriform(), a, 5)
    xh, _ = atkinson_factors(tri_rb, a, 5)
    assert xh == series_exp(-w.map_coeffs(tri_rb.r_tilde))
