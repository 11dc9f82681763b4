import random

import pytest

from dendrimag.dendriform import (
    Dendriform,
    UndefinedUnitProduct,
    check_dendriform_axioms,
    check_prelie_identities,
    check_tridendriform_axioms,
    check_unit_rules,
    sample_tuples,
    series_half_prec,
    solve_left,
    solve_right,
)
from dendrimag.instances import standard_rb_instances
from dendrimag.pbt import free_dendriform
from dendrimag.rota_baxter import RBTridendriform
from dendrimag.series import TruncatedSeries


def all_dendriform_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend):
    return [
        free_dendriform(),
        tri_rb.dendriform(),
        grid_strict.dendriform(),
        poly_scalar.dendriform(),
        poly_matrix.dendriform(),
        assoc_dend,
    ]


def test_unit_rules_all_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend, rng):
    for dend in all_dendriform_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend):
        elems = [dend.sample(rng) for _ in range(10)]
        rep = check_unit_rules(dend, elems)
        assert rep.ok, rep.summary()


def test_unit_unit_half_products_raise(tri_rb):
    dend = tri_rb.dendriform()
    one = dend.unital_space.one()
    with pytest.raises(UndefinedUnitProduct):
        dend.half_prec(one, one)
    with pytest.raises(UndefinedUnitProduct):
        dend.half_succ(one, one)
    # mixed elements with unit components on both sides hit the same atom
    x = dend.unital_space.add(one, dend.embed(tri_rb.sample(random.Random(1))))
    with pytest.raises(UndefinedUnitProduct):
        dend.half_prec(x, x)


def test_sampled_axioms_and_prelie(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend, rng):
    for dend in all_dendriform_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend):
        triples = sample_tuples(dend, rng, 60, 3)
        assert check_dendriform_axioms(dend, triples).ok
        assert check_prelie_identities(dend, triples).ok


def test_zinbiel_flag_on_commutative_weight_zero(poly_scalar, rng):
    dend = poly_scalar.dendriform()
    assert dend.commutative
    for _ in range(30):
        a, b = dend.sample(rng), dend.sample(rng)
        assert dend.succ(a, b) == dend.prec(b, a)
        # the derived left pre-Lie product collapses entirely
        assert dend.space.is_zero(dend.rhd(a, b))


def test_associative_degeneration_prelie(assoc_dend, rng):
    sp = assoc_dend.space
    for _ in range(30):
        a, b = assoc_dend.sample(rng), assoc_dend.sample(rng)
        assert sp.eq(assoc_dend.lhd(a, b), sp.mul(a, b))
        assert sp.eq(assoc_dend.rhd(a, b), sp.neg(sp.mul(b, a)))


def test_words_low_indices(tri_rb, rng):
    # X and (-1)^n Y carry the words a prec (a prec ...) and (... succ a) succ a
    dend = tri_rb.dendriform()
    a = tri_rb.sample(rng)
    usp = dend.unital_space
    x, y = solve_left(dend, a, 2), solve_right(dend, a, 2)
    assert usp.eq(x.coeff(0), usp.one())
    assert usp.eq(y.coeff(0), usp.one())
    assert usp.eq(x.coeff(1), dend.embed(a))
    assert usp.eq(y.coeff(1), usp.neg(dend.embed(a)))
    assert usp.eq(x.coeff(2), dend.embed(dend.prec(a, a)))
    assert usp.eq(y.coeff(2), dend.embed(dend.succ(a, a)))


def test_solve_left_zero_input(tri_rb):
    dend = tri_rb.dendriform()
    zero = dend.space.zero()
    x = solve_left(dend, zero, 5)
    assert x == TruncatedSeries.one(dend.unital_space, 5)


def test_solve_substitution_residual_all_instances(
    tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend, rng
):
    # X - 1 - lambda a < X = 0 and Y - 1 + lambda Y > a = 0 modulo lambda^9
    from dendrimag.dendriform import series_half_succ

    order = 8
    for dend in all_dendriform_instances(tri_rb, grid_strict, poly_scalar, poly_matrix, assoc_dend):
        a = dend.sample(rng)
        usp = dend.unital_space
        one = TruncatedSeries.one(usp, order)
        lam_a = TruncatedSeries.single(usp, order, 1, dend.embed(a))
        x = solve_left(dend, a, order)
        assert (x - one - series_half_prec(dend, lam_a, x)).is_zero()
        y = solve_right(dend, a, order)
        assert (y - one + series_half_succ(dend, y, lam_a)).is_zero()


def test_solve_truncation_coherence(tri_rb, rng):
    dend = tri_rb.dendriform()
    a = tri_rb.sample(rng)
    full = solve_left(dend, a, 8)
    for m in range(9):
        assert full.truncated(m) == solve_left(dend, a, m)


def test_geometric_series_in_associative_degeneration(assoc_dend, rng):
    a = assoc_dend.sample(rng)
    x = solve_left(assoc_dend, a, 6)
    power = assoc_dend.space.one()
    for n in range(7):
        coeff = x.coeff(n)
        if n == 0:
            assert coeff.scalar == 1 and assoc_dend.space.is_zero(coeff.vec)
        else:
            power = assoc_dend.space.mul(power, a) if n > 1 else a
            assert coeff.scalar == 0 and assoc_dend.space.eq(coeff.vec, power)


def test_tridendriform_collapse(poly_scalar, summation_tri, rng):
    # weight zero kills the dot product, so the collapse returns (lt, gt)
    tri = RBTridendriform(poly_scalar)
    for _ in range(20):
        a, b = tri.sample(rng), tri.sample(rng)
        assert tri.space.is_zero(tri.dot(a, b))
        assert tri.space.eq(tri.prec(a, b), tri.lt(a, b))
        assert tri.space.eq(tri.succ(a, b), tri.gt(a, b))
    # collapsed star (prec + succ) agrees with the three-term star in general
    triples = sample_tuples(summation_tri, rng, 40, 3)
    assert check_tridendriform_axioms(summation_tri, triples).ok
    assert check_dendriform_axioms(summation_tri, triples).ok
    for a, b, _ in triples:
        assert summation_tri.space.eq(Dendriform.star(summation_tri, a, b), summation_tri.star(a, b))


def test_induced_prec_matches_both_formulas(tri_rb, grid_strict, rng):
    # a prec b = aR(b) + theta ab and also -a Rt(b)
    for rb in (tri_rb, grid_strict):
        dend = rb.dendriform()
        sp = rb.space
        for _ in range(30):
            a, b = rb.sample(rng), rb.sample(rng)
            explicit = sp.add(sp.mul(a, rb.r(b)), sp.scale(rb.weight, sp.mul(a, b)))
            assert sp.eq(dend.prec(a, b), explicit)
            assert sp.eq(dend.prec(a, b), sp.neg(sp.mul(a, rb.r_tilde(b))))


def test_induced_rhd_closed_form(tri_rb, poly_matrix, rng):
    # a rhd b = [R(a), b] - theta ba; at weight zero just the commutator
    for rb in (tri_rb, poly_matrix):
        dend = rb.dendriform()
        sp = rb.space
        for _ in range(20):
            a, b = rb.sample(rng), rb.sample(rng)
            ra = rb.r(a)
            expected = sp.sub(sp.mul(ra, b), sp.mul(b, ra))
            expected = sp.sub(expected, sp.scale(rb.weight, sp.mul(b, a)))
            assert sp.eq(dend.rhd(a, b), expected)


def test_standard_instances_cover_three_carriers():
    names = [rb.name for rb in standard_rb_instances()]
    assert len(names) == 3 and len(set(names)) == 3
