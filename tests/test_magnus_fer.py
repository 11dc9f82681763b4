import math
import random
from fractions import Fraction

import pytest

from dendrimag import magnus_fer
from dendrimag.dendriform import lift_to_unital, series_half_prec, series_half_succ, solve_left
from dendrimag.lincomb import LinComb
from dendrimag.magnus_fer import (
    beta_integral,
    fer,
    fer_depth,
    magnus,
    magnus_free_component,
    power_sum_bridge_check,
    verify_fer,
    verify_magnus,
)
from dendrimag.pbt import free_dendriform
from dendrimag.prelie_expr import GEN, PreLieExpr, eval_rooted, formal_ops, monomial_count, rewrite_reduce
from dendrimag.rooted import RootedTree, VERTEX, rooted_ops
from dendrimag.series import TruncatedSeries, series_exp, series_exp_pair, series_log


def expr(shape):
    if shape == "a":
        return GEN
    left, right = shape
    return PreLieExpr(expr(left), expr(right))


AA = ("a", "a")


def test_low_degree_components_match_closed_forms():
    raw1, _ = magnus_free_component(1)
    assert raw1 == LinComb.single(GEN)
    raw2, rooted2 = magnus_free_component(2)
    assert raw2 == LinComb.single(expr(AA), Fraction(-1, 2))
    assert rooted2 == LinComb.single(RootedTree((VERTEX,)), Fraction(-1, 2))
    raw3, _ = magnus_free_component(3)
    assert raw3 == (
        LinComb.single(expr((AA, "a")), Fraction(1, 4))
        + LinComb.single(expr(("a", AA)), Fraction(1, 12))
    )


def test_degree_four_component_and_reduction():
    raw4, rooted4 = magnus_free_component(4)
    expected = (
        LinComb.single(expr(((AA, "a"), "a")), Fraction(-1, 8))
        + LinComb.single(expr((("a", AA), "a")), Fraction(-1, 24))
        + LinComb.single(expr(("a", (AA, "a"))), Fraction(-1, 24))
        + LinComb.single(expr((AA, AA)), Fraction(-1, 24))
    )
    assert raw4 == expected
    assert monomial_count(raw4) == 4

    reduced = rewrite_reduce(raw4)
    assert reduced == (
        LinComb.single(expr(((AA, "a"), "a")), Fraction(-1, 6))
        + LinComb.single(expr(("a", (AA, "a"))), Fraction(-1, 12))
    )
    assert eval_rooted(reduced) == rooted4


def test_degree_five_counts():
    raw5, rooted5 = magnus_free_component(5)
    assert monomial_count(raw5) == 10
    reduced5 = rewrite_reduce(raw5)
    assert monomial_count(reduced5) == 7
    assert eval_rooted(reduced5) == rooted5


def test_magnus_zero_input(tri_rb):
    dend = tri_rb.dendriform()
    w = magnus(dend, dend.space.zero(), 4)
    assert w.is_zero()
    x = solve_left(dend, dend.space.zero(), 4)
    assert x == TruncatedSeries.one(dend.unital_space, 4)


def test_magnus_variants_agree_everywhere(tri_rb, grid_strict, poly_matrix, rng):
    free = free_dendriform()
    assert magnus(free, free.generator(), 8) == magnus(free, free.generator(), 8, "right_lhd")
    for rb in (tri_rb, grid_strict, poly_matrix):
        dend = rb.dendriform()
        a = rb.sample(rng)
        assert magnus(dend, a, 6) == magnus(dend, a, 6, "right_lhd")


def test_magnus_rejects_bad_variant_and_order(tri_rb):
    dend = tri_rb.dendriform()
    with pytest.raises(ValueError):
        magnus(dend, dend.space.zero(), 3, "sideways")
    with pytest.raises(ValueError):
        magnus(dend, dend.space.zero(), 0)


def test_verify_magnus_free_model_order_8():
    free = free_dendriform()
    rep = verify_magnus(free, free.generator(), 8)
    assert rep.ok, rep.summary()


def test_verify_magnus_instances_order_6(tri_rb, grid_strict, poly_scalar, poly_matrix, rng):
    for rb in (tri_rb, grid_strict, poly_scalar, poly_matrix):
        rep = verify_magnus(rb.dendriform(), rb.sample(rng), 6)
        assert rep.ok, rep.summary()


def test_associative_degeneration_log_form(assoc_dend, rng):
    a = assoc_dend.sample(rng)
    order = 8
    w = lift_to_unital(assoc_dend, magnus(assoc_dend, a, order))
    usp = assoc_dend.unital_space
    one = TruncatedSeries.one(usp, order)
    lam_a = TruncatedSeries.single(usp, order, 1, assoc_dend.embed(a))
    assert w == -series_log(one - lam_a)
    assert series_exp(w) == solve_left(assoc_dend, a, order)


def test_fer_factor_low_degrees():
    free = free_dendriform()
    a = free.generator()
    factors = fer(free, a, 6)
    u0, u1 = factors[0], factors[1]
    assert u0 == TruncatedSeries.single(free.space, 6, 1, a)
    aa = free.rhd(a, a)
    assert u1.coeff(2) == aa.scale(Fraction(-1, 2))
    assert u1.coeff(3) == free.rhd(a, aa).scale(Fraction(1, 3))
    assert u1.coeff(4) == free.rhd(a, free.rhd(a, aa)).scale(Fraction(-1, 8))


def test_fer_depth():
    assert fer_depth(1) == 1
    assert fer_depth(3) == 2
    assert fer_depth(6) == 3
    assert fer_depth(8) == 4
    with pytest.raises(ValueError):
        fer_depth(0)


def test_verify_fer_free_model():
    free = free_dendriform()
    rep = verify_fer(free, free.generator(), 6, exact_onsets=True)
    assert rep.ok, rep.summary()
    rep = verify_fer(free, free.generator(), 8, exact_onsets=True)
    assert rep.ok, rep.summary()


def test_free_model_magnus_and_fer_order_9():
    # one order past the CLI bound: 4862 planar trees in the top degree
    free = free_dendriform()
    for rep, checks in (
        (verify_magnus(free, free.generator(), 9), 3),
        (verify_fer(free, free.generator(), 9, exact_onsets=True), 9),
    ):
        hard = [c for c in rep.checks if not c.informational]
        assert len(hard) == checks and all(c.ok for c in hard), rep.summary()


def test_magnus_free_component_past_the_cli_bound():
    # the library takes any degree >= 1; 9 is one past the CLI's MAX_ORDER
    ops = formal_ops()
    formal = magnus(ops, ops.generator(), 9).coeff(9)
    assert magnus_free_component(9) == (formal, eval_rooted(formal))
    rooted = rooted_ops()
    assert eval_rooted(formal) == magnus(rooted, rooted.generator(), 9).coeff(9)
    with pytest.raises(ValueError, match="degree"):
        magnus_free_component(0)


def test_verify_fer_zero_input(tri_rb):
    dend = tri_rb.dendriform()
    rep = verify_fer(dend, dend.space.zero(), 4)
    assert rep.ok, rep.summary()


def test_verify_fer_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, rng):
    for rb in (tri_rb, grid_strict, poly_scalar, poly_matrix):
        rep = verify_fer(rb.dendriform(), rb.sample(rng), 6)
        assert rep.ok, rep.summary()


@pytest.mark.parametrize("p", range(9))
@pytest.mark.parametrize("q", range(9))
def test_beta_integral_closed_form(p, q):
    assert beta_integral(p, q) == Fraction(
        math.factorial(p) * math.factorial(q), math.factorial(p + q + 1)
    )


def test_power_sum_bridge_free_model():
    free = free_dendriform()
    rep = power_sum_bridge_check(free, free.generator(), 6, 5)
    assert rep.ok, rep.summary()


def test_power_sum_bridge_computes_each_half_product_once(monkeypatch):
    # n_max = 5: one W^*p > W per p = 0..5, one (W^*p > W) < W^*q per p + q <= 5
    calls = {"succ": 0, "prec": 0}

    def counted(kind, f):
        def wrapper(*args):
            calls[kind] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(magnus_fer, "series_half_succ", counted("succ", series_half_succ))
    monkeypatch.setattr(magnus_fer, "series_half_prec", counted("prec", series_half_prec))
    free = free_dendriform()
    rep = power_sum_bridge_check(free, free.generator(), 4, 5)
    assert rep.ok, rep.summary()
    assert calls == {"succ": 6, "prec": 21}


def test_fer_products_multiply_only_the_exponentials_of_nonzero_factors(monkeypatch):
    # The last Fer factor is zero modulo truncation, and poly_rb's rhd vanishes,
    # so there every U_n with n > 0 is.  exp*(0) = 1 enters no ordered product
    # and no product starts from the unit series; products that did would
    # multiply 2, 6 and 2 factors exp of a zero series.  Each exp*(+-x) pair
    # shares one table of powers and no pair is built for a zero factor:
    # building exp*(x) and exp*(-x) apart made 42, 12 and 43 products, and 16
    # in verify_magnus.
    from dendrimag import rota_baxter
    from dendrimag.instances import poly_rb, triangular_rb

    products, zero_factors = [0], [0]
    zero_exps = []  # the objects themselves, kept alive, so no id is reused

    def counted_exp(s):
        e = series_exp(s)
        if s.is_zero():
            zero_exps.append(e)
        return e

    def counted_pair(s):
        pair = series_exp_pair(s)
        if s.is_zero():
            zero_exps.extend(pair)
        return pair

    def counted_mul(x, y):
        products[0] += 1
        zero_factors[0] += sum(e is x or e is y for e in zero_exps)
        return cauchy(x, y)

    cauchy = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    for module in (magnus_fer, rota_baxter):
        monkeypatch.setattr(module, "series_exp_pair", counted_pair)
    monkeypatch.setattr(rota_baxter, "series_exp", counted_exp)
    free, p, tri = free_dendriform(), poly_rb(), triangular_rb()
    runs = [
        lambda: [verify_fer(free, free.generator(), 8)],
        lambda: [verify_fer(p.dendriform(), p.sample(random.Random(1)), 5)],
        lambda: rota_baxter.atkinson_check(tri, tri.sample(random.Random(1)), 5),
        lambda: [verify_magnus(free, free.generator(), 8)],
    ]
    counts = []
    for run in runs:
        products[0] = zero_factors[0] = 0
        reports = run()
        assert all(r.ok for r in reports), [r.summary() for r in reports]
        counts.append((products[0], zero_factors[0]))
    assert counts == [(24, 0), (5, 0), (35, 0), (8, 0)]


def test_left_absorption_integral_identity():
    # (exp*(-b) - 1) < exp*(b) expands to the exact weighted double sum
    # -sum_{p,q} (-1)^p / (p! q! (p+q+1)) b^*p > b < b^*q  for b = lambda a
    free = free_dendriform()
    order = 5
    usp = free.unital_space
    b = TruncatedSeries.single(usp, order, 1, free.embed(free.generator()))
    one = TruncatedSeries.one(usp, order)
    lhs = series_half_prec(free, series_exp(-b) - one, series_exp(b))
    rhs = TruncatedSeries.zero(usp, order)
    powers = [one]
    for _ in range(order):
        powers.append(powers[-1] * b)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            mid = series_half_prec(free, series_half_succ(free, powers[p], b), powers[q])
            rhs = rhs + mid.scale(Fraction((-1) ** (p + 1), math.factorial(p) * math.factorial(q) * (p + q + 1)))
    assert lhs == rhs
