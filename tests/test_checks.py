"""The checks themselves can fail.

Every hard check in a report comes from ``add_sampled`` (pass counts over
samples) or ``add_residuals`` (per-degree residuals).  Each deliberately
broken instance below breaks some identities of its contract and keeps the
others, and its report must fail exactly the broken ones.  One zero sample,
on which every bilinear identity holds, rides along with the random ones,
so a failing count reads 1/n: the counter counts, it does not just flag.
"""

import random
from fractions import Fraction

import pytest

from dendrimag.dendriform import (
    AssocDendriform,
    UndefinedUnitProduct,
    UnitalDendElem,
    check_dendriform_axioms,
    check_prelie_identities,
    check_tridendriform_axioms,
    check_unit_rules,
    sample_tuples,
)
from dendrimag.instances import grid_rb, matrix_poly_rb, triangular_rb
from dendrimag.matrices import MatrixSpace, random_matrix, triangular_project
from dendrimag.report import VerificationReport
from dendrimag.rota_baxter import RBDendriform, RBTridendriform, RotaBaxter, check_rb_relation
from dendrimag.series import RATIONALS, TruncatedSeries

N = 12


def _with_zero(space, samples):
    """The random samples behind one all-zero sample of the same arity."""
    return [tuple(space.zero() for _ in samples[0])] + samples


def _assert_fails_exactly(rep: VerificationReport, broken: set[str], n: int, noun: str) -> None:
    hard = {c.label: c for c in rep.checks if not c.informational}
    assert broken <= set(hard), rep.summary()
    for label, c in hard.items():
        if label in broken:
            assert not c.ok and c.detail == f"1/{n} {noun}", rep.summary()
        else:
            assert c.ok and c.detail in ("", f"{n}/{n} {noun}"), rep.summary()
    assert not rep.ok


def test_add_sampled_reads_a_generator_once():
    rep = VerificationReport("counts")
    samples = ((x,) for x in (1, 2, 3))
    rep.add_sampled(samples, [("positive", lambda x: x > 0), ("odd", lambda x: x % 2)], "samples")
    assert [(c.label, c.ok, c.detail) for c in rep.checks] == [
        ("positive", True, "3/3 samples"),
        ("odd", False, "2/3 samples"),
    ]
    assert not rep.ok


def test_add_sampled_on_no_samples_passes_with_zero_count():
    rep = VerificationReport("empty")
    rep.add_sampled([], [("anything", lambda *s: False)], "pairs")
    assert [(c.ok, c.detail) for c in rep.checks] == [(True, "0/0 pairs")]


def test_add_residuals_names_each_nonzero_degree():
    lhs = TruncatedSeries(RATIONALS, 5, [Fraction(k, 3) for k in range(6)])
    rhs = TruncatedSeries(RATIONALS, 5, [Fraction(k, 3) + (k in (2, 4)) for k in range(6)])
    rep = VerificationReport("residuals")
    rep.add_residuals("differ at 2 and 4", lhs, rhs)
    rep.add_residuals("agree", lhs, lhs)
    assert [(c.ok, c.detail) for c in rep.checks] == [
        (False, "nonzero residual at degrees [2, 4]"),
        (True, "all residuals zero"),
    ]


class _SuccIsProduct(AssocDendriform):
    """prec = succ = ab: (A2) and star associativity survive, (A1) and (A3) do not."""

    def succ(self, a, b):
        return self.space.mul(a, b)


def test_dendriform_with_succ_as_product_fails_a1_a3_and_prelie():
    dend = _SuccIsProduct(MatrixSpace(3), lambda rng: random_matrix(rng, 3), "succ is the product")
    triples = _with_zero(dend.space, sample_tuples(dend, random.Random(11), N, 3))
    _assert_fails_exactly(
        check_dendriform_axioms(dend, triples),
        {"(A1) (a<b)<c = a<(b*c)", "(A3) a>(b>c) = (a*b)>c"},
        N + 1,
        "triples",
    )
    # rhd and lhd are both the commutator: not pre-Lie, but the brackets agree
    _assert_fails_exactly(
        check_prelie_identities(dend, triples),
        {"left pre-Lie identity for rhd", "right pre-Lie identity for lhd"},
        N + 1,
        "triples",
    )


def test_false_zinbiel_flag_fails_only_the_flag():
    dend = AssocDendriform(MatrixSpace(3), lambda rng: random_matrix(rng, 3), "declared Zinbiel")
    dend.commutative = True
    triples = _with_zero(dend.space, sample_tuples(dend, random.Random(12), N, 3))
    _assert_fails_exactly(
        check_dendriform_axioms(dend, triples), {"Zinbiel flag: x>y = y<x"}, N + 1, "triples"
    )


def _triangular(weight: Fraction, commutative: bool = False) -> RotaBaxter:
    return RotaBaxter(
        f"triangular projection declared weight {weight}",
        MatrixSpace(3),
        weight,
        triangular_project,
        lambda rng: random_matrix(rng, 3),
        commutative,
    )


class _ZeroFirst(RotaBaxter):
    """Draws the zero element first, then the wrapped instance's samples."""

    def __init__(self, rb: RotaBaxter):
        super().__init__(rb.name, rb.space, rb.weight, rb.r, rb.sample, rb.commutative)
        self._drawn = 0

    def sample(self, rng):
        self._drawn += 1
        return self.space.zero() if self._drawn <= 2 else super().sample(rng)


def test_triangular_projection_with_weight_plus_one_fails_every_relation():
    rep = check_rb_relation(_ZeroFirst(_triangular(Fraction(1))), N + 1, seed=5)
    _assert_fails_exactly(
        rep,
        {
            "R(a)R(b) = R(R(a)b + aR(b) + theta ab)",
            "Rt satisfies the same weight relation",
            "R(a *t b) = R(a)R(b) (image of R closed)",
            "Rt(a *t b) = -Rt(a)Rt(b) (image of Rt closed)",
        },
        N + 1,
        "pairs",
    )


def test_noncommutative_carrier_declared_commutative_fails_only_that():
    rep = check_rb_relation(_ZeroFirst(_triangular(Fraction(-1), commutative=True)), N + 1, seed=6)
    _assert_fails_exactly(rep, {"declared commutative carrier"}, N + 1, "pairs")


class _LtGtSwapped(RBTridendriform):
    def lt(self, a, b):
        return super().gt(a, b)

    def gt(self, a, b):
        return super().lt(a, b)


@pytest.mark.parametrize("make_rb", [triangular_rb, grid_rb], ids=["matrices", "grid"])
def test_tridendriform_with_lt_gt_swapped(make_rb):
    tri = _LtGtSwapped(make_rb())
    triples = _with_zero(tri.space, sample_tuples(tri, random.Random(13), N, 3))
    # dot and the sum product are untouched, so only their two axioms survive
    _assert_fails_exactly(
        check_tridendriform_axioms(tri, triples),
        {
            "(x<y)<z = x<(y*z)",
            "(x>y)<z = x>(y<z)",
            "(x*y)>z = x>(y>z)",
            "(x>y).z = x>(y.z)",
            "(x<y).z = x.(y>z)",
            "(x.y)<z = x.(y<z)",
        },
        N + 1,
        "triples",
    )
    _assert_fails_exactly(
        check_dendriform_axioms(tri.as_dendriform(), triples),
        {"(A1) (a<b)<c = a<(b*c)", "(A2) (a>b)<c = a>(b<c)", "(A3) a>(b>c) = (a*b)>c"},
        N + 1,
        "triples",
    )


class _PrecIgnoresUnit(RBDendriform):
    """half_prec drops the a<1 = a term; the unit-unit product still raises."""

    def half_prec(self, x, y):
        if x.scalar != 0 and y.scalar != 0:
            raise UndefinedUnitProduct("1 prec 1 is not defined")
        return UnitalDendElem(Fraction(0), self.prec(x.vec, y.vec))


@pytest.mark.parametrize("make_rb", [triangular_rb, matrix_poly_rb], ids=["matrices", "matrix_poly"])
def test_half_prec_ignoring_the_unit_fails_only_the_sample_rule(make_rb):
    dend = _PrecIgnoresUnit(make_rb())
    rng = random.Random(14)
    elems = [dend.space.zero()] + [dend.sample(rng) for _ in range(N)]
    _assert_fails_exactly(
        check_unit_rules(dend, elems), {"a<1 = a = 1>a and 1<a = 0 = a>1"}, N + 1, "samples"
    )
