"""The checks themselves can fail.

Every hard check in a report comes from ``add_sampled`` (pass counts over
samples) or ``add_residuals`` (per-degree residuals).  Each deliberately
broken instance below breaks some identities of its contract and keeps the
others, and its report must fail exactly the broken ones.  One zero sample,
on which every bilinear identity holds, rides along with the random ones,
so a failing count reads 1/n: the counter counts, it does not just flag.
"""

import operator
import random
import threading
from fractions import Fraction

import pytest

from dendrimag import magnus_fer, suites
from dendrimag.dendriform import (
    AssocDendriform,
    Dendriform,
    UndefinedUnitProduct,
    UnitalDendElem,
    check_dendriform_axioms,
    check_prelie_identities,
    check_tridendriform_axioms,
    check_unit_rules,
    sample_tuples,
)
from dendrimag.grids import GridSeq
from dendrimag.instances import SummationTridendriform, grid_rb, matrix_poly_rb, triangular_rb
from dendrimag.matrices import MatrixSpace, RatMatrix, random_matrix, triangular_project
from dendrimag.pbt import free_dendriform, trees_of_degree
from dendrimag.polys import Poly
from dendrimag.report import VerificationReport
from dendrimag.rota_baxter import (
    RBDendriform,
    RBTridendriform,
    RotaBaxter,
    atkinson_check,
    check_rb_relation,
    classical_magnus_check,
    exp_image_check,
    spitzer_noncommutative_check,
)
from dendrimag.scalars import reduced
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
    rep.add_sampled(samples, ["positive", "odd"], lambda x: (x > 0, x % 2), "samples")
    assert [(c.label, c.ok, c.detail) for c in rep.checks] == [
        ("positive", True, "3/3 samples"),
        ("odd", False, "2/3 samples"),
    ]
    assert not rep.ok


def test_add_sampled_runs_every_identity_on_a_sample_before_the_next():
    seen = []

    def holds(x):
        for label in ("p", "q"):
            seen.append((label, x))
            yield True

    rep = VerificationReport("order")
    rep.add_sampled(((x,) for x in (1, 2)), ["p", "q"], holds, "samples")
    assert seen == [("p", 1), ("q", 1), ("p", 2), ("q", 2)]
    assert [(c.ok, c.detail) for c in rep.checks] == [(True, "2/2 samples")] * 2


def test_add_sampled_on_no_samples_fails_with_zero_count():
    rep = VerificationReport("empty")
    rep.add_sampled(iter(()), ["anything"], lambda *s: (True,), "pairs")
    assert [(c.ok, c.detail) for c in rep.checks] == [(False, "0/0 pairs")]
    assert not rep.ok


def test_each_product_is_computed_once_per_sample(monkeypatch):
    """Carrier products per sample on the 3x3 triangular projection.

    A product that several identities share is computed once per sample;
    computing any of them once per identity would raise these counts.
    """
    calls = [0]
    matmul = RatMatrix.__matmul__

    def counted(self, other):
        calls[0] += 1
        return matmul(self, other)

    monkeypatch.setattr(RatMatrix, "__matmul__", counted)
    rb = triangular_rb()
    triples = sample_tuples(rb, random.Random(20), N, 3)
    runs = [
        (lambda: check_dendriform_axioms(rb.dendriform(), triples), 18),
        (lambda: check_prelie_identities(rb.dendriform(), triples), 38),
        (lambda: check_tridendriform_axioms(RBTridendriform(rb), triples), 32),
        (lambda: check_rb_relation(rb, N, seed=20), 9),
    ]
    for check, per_sample in runs:
        calls[0] = 0
        assert check().ok
        assert calls[0] == per_sample * N


def test_add_residuals_names_a_residual_at_degree_zero():
    lhs = TruncatedSeries(RATIONALS, 3, [Fraction(1), Fraction(2), Fraction(0), Fraction(5)])
    rhs = TruncatedSeries(RATIONALS, 3, [Fraction(0), Fraction(2), Fraction(0), Fraction(5)])
    rep = VerificationReport("residuals")
    rep.add_residuals("differ at 0 only", lhs, rhs)
    assert [(c.ok, c.detail) for c in rep.checks] == [(False, "nonzero residual at degrees [0]")]


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


def test_verify_magnus_against_a_wrong_right_solution_fails_only_that_check(monkeypatch):
    true_right = magnus_fer.solve_right

    def wrong_right(dend, a, order):
        y = true_right(dend, a, order)
        coeffs = list(y.coeffs)
        coeffs[3] = y.space.add(coeffs[3], y.space.one())
        return TruncatedSeries(y.space, order, coeffs)

    monkeypatch.setattr(magnus_fer, "solve_right", wrong_right)
    rb = triangular_rb()
    rep = magnus_fer.verify_magnus(rb.dendriform(), rb.sample(random.Random(19)), 5)
    assert [(c.label, c.ok, c.detail) for c in rep.checks] == [
        ("left and right recursion shapes agree", True, "all residuals zero"),
        ("exp*(W) solves X = 1 + lambda a<X", True, "all residuals zero"),
        ("exp*(-W) solves Y = 1 - Y>lambda a", False, "nonzero residual at degrees [3]"),
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


class _StarDoubled(AssocDendriform):
    """star = 2ab while prec and succ stay correct: only checks that call star see it."""

    def star(self, a, b):
        return self.space.scale(Fraction(2), self.space.mul(a, b))


def test_checkers_call_the_instances_own_star():
    dend = _StarDoubled(MatrixSpace(3), lambda rng: random_matrix(rng, 3), "star doubled")
    triples = _with_zero(dend.space, sample_tuples(dend, random.Random(15), N, 3))
    # (A1) reads star(b, c); star associativity holds for 2ab, and (A2), (A3) see only succ = 0
    _assert_fails_exactly(
        check_dendriform_axioms(dend, triples), {"(A1) (a<b)<c = a<(b*c)"}, N + 1, "triples"
    )
    # rhd and lhd come from prec and succ, so only the bracket of star disagrees
    _assert_fails_exactly(
        check_prelie_identities(dend, triples), {"brackets of *, rhd, lhd coincide"}, N + 1, "triples"
    )


def _symmetrised(space, a, b):
    """ab + ba: commutative and, on matrices, not associative."""
    return space.add(space.mul(a, b), space.mul(b, a))


class _StarSymmetrised(AssocDendriform):
    """star = ab + ba while prec = ab and succ = 0 stay correct."""

    def star(self, a, b):
        return _symmetrised(self.space, a, b)


def test_non_associative_star_fails_star_associativity():
    dend = _StarSymmetrised(MatrixSpace(3), lambda rng: random_matrix(rng, 3), "star symmetrised")
    triples = _with_zero(dend.space, sample_tuples(dend, random.Random(21), N, 3))
    # (A1) reads star(b, c); (A2) and (A3) see only succ = 0
    _assert_fails_exactly(
        check_dendriform_axioms(dend, triples),
        {"(A1) (a<b)<c = a<(b*c)", "star associativity"},
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


def test_doubled_projection_fails_the_factorization_and_every_factor_form():
    # 2P is not Rota-Baxter of weight -1: (2P(a))(2P(b)) = 4P(a)P(b), but
    # 2P(2P(a)b + 2aP(b) - ab) = 2P(a)P(b) + 2P(P(a)b + aP(b))
    space = MatrixSpace(3)
    rb = RotaBaxter(
        "doubled triangular projection",
        space,
        Fraction(-1),
        lambda x: space.scale(2, triangular_project(x)),
        lambda rng: random_matrix(rng, 3),
    )
    reports = atkinson_check(rb, rb.sample(random.Random(19)), 6)
    failed = {(r.name, c.label) for r in reports for c in r.checks if not c.ok}
    assert failed == {
        ("Atkinson factorization [doubled triangular projection]", "Yh (1 - theta lambda a) Xh = 1"),
        ("factor exponentials [doubled triangular projection]", "Xh = exp(-Rt(W))"),
        ("factor exponentials [doubled triangular projection]", "Yh = exp(-R(W))"),
        ("factor products [doubled triangular projection]", "forward product of exp(-Rt(U_n)) = Xh"),
        ("factor products [doubled triangular projection]", "reversed product of exp(-R(U_n)) = Yh"),
    }, [r.summary() for r in reports]
    assert [len(r.checks) for r in reports] == [4, 2, 2]



def _random_linear_operator(seed: int, n: int = 3):
    """x -> M vec(x) on n x n matrices, for a seeded random n^2 x n^2 rational M:
    linear, and (almost surely) Rota-Baxter of no weight.  Runs on the int
    numerators: M vec(x) = (num(M) num(x)) / (den(M) den(x))."""
    m = random_matrix(random.Random(seed), n * n)
    rows = [m.num[k : k + n * n] for k in range(0, len(m.num), n * n)]

    def r(x):
        return RatMatrix._make(n, *reduced([sum(map(operator.mul, row, x.num)) for row in rows], m.den * x.den))

    return r


def _random_linear_rb(weight=-1) -> RotaBaxter:
    """The panel's operator: ``_random_linear_operator(5)`` on 3 x 3 matrices."""
    return RotaBaxter(
        "random linear R", MatrixSpace(3), Fraction(weight), _random_linear_operator(5), lambda rng: random_matrix(rng, 3)
    )


# The hard checks that a linear operator which is not Rota-Baxter fails, by
# report; every other hard check of these reports holds for any linear R.
_FAILS_FOR_ANY_LINEAR_R = {
    "Rota-Baxter relation": {
        "R(a)R(b) = R(R(a)b + aR(b) + theta ab)",
        "Rt satisfies the same weight relation",
        "R(a *t b) = R(a)R(b) (image of R closed)",
        "Rt(a *t b) = -Rt(a)Rt(b) (image of Rt closed)",
    },
    "Atkinson factorization": {"Yh (1 - theta lambda a) Xh = 1"},
    "factor exponentials": {"Xh = exp(-Rt(W))", "Yh = exp(-R(W))"},
    "factor products": {"forward product of exp(-Rt(U_n)) = Xh", "reversed product of exp(-R(U_n)) = Yh"},
    "magnus order 5": {"exp*(W) solves X = 1 + lambda a<X", "exp*(-W) solves Y = 1 - Y>lambda a"},
    "fer order 5": {
        "forward product of 4 exponentials equals X",
        "reversed product of negated exponentials equals Y",
        "pre-Lie form of U_1 matches the closed recursion",
    },
    "exponential image": {"R(exp_*t(lambda a)) = exp(lambda R(a))"},
    "dendriform axioms": {"(A1) (a<b)<c = a<(b*c)", "(A3) a>(b>c) = (a*b)>c", "star associativity"},
    "pre-Lie identities": {"left pre-Lie identity for rhd", "right pre-Lie identity for lhd"},
    "tridendriform axioms": {"(x<y)<z = x<(y*z)", "(x*y)>z = x>(y>z)", "star associativity"},
    "non-commutative Spitzer": {"iterated series = exp(R(chi(log(1 + theta a lambda)/theta)))"},
    "classical Magnus reduction": set(),
}


@pytest.mark.parametrize("weight", [-1, 0, 2])
def test_random_linear_operator_fails_exactly_the_checks_that_read_rota_baxter(weight):
    """Negative control: every RB checker on a random linear R.

    A check that goes blind to a broken operator, or a check that is an
    identity for any linear R and starts failing, changes the failing set.
    """
    rb = _random_linear_rb(weight)
    a, order, dend = random_matrix(random.Random(19), 3), 5, rb.dendriform()
    triples = sample_tuples(rb, random.Random(20), N, 3)
    reports = [
        check_rb_relation(rb, N, seed=20),
        *atkinson_check(rb, a, order),
        magnus_fer.verify_magnus(dend, a, order),
        magnus_fer.verify_fer(dend, a, order),
        exp_image_check(rb, a, order),
        check_dendriform_axioms(dend, triples),
        check_prelie_identities(dend, triples),
        check_tridendriform_axioms(RBTridendriform(rb), triples),
        spitzer_noncommutative_check(rb, a, order) if weight else classical_magnus_check(rb, a, order),
    ]
    failed = {r.name.split(" [")[0]: {c.label for c in r.checks if not c.ok} for r in reports}
    assert all(not c.informational for r in reports for c in r.checks)
    assert failed == {k: v for k, v in _FAILS_FOR_ANY_LINEAR_R.items() if k in failed}, [r.summary() for r in reports]
    assert len(failed) == len(reports)
    assert sum(len(r.checks) for r in reports) == (44 if weight else 40)


# The labels of the Atkinson, Magnus and weight-zero reduction reports that
# _FAILS_FOR_ANY_LINEAR_R leaves out: identities of any linear R (see the
# atkinson_check, verify_magnus and classical_magnus_check docstrings).
_HOLDS_FOR_ANY_LINEAR_R = (
    "Xh substituted back into Xh = 1 - lambda Rt(a Xh)",
    "Yh substituted back into Yh = 1 - lambda R(Yh a)",
    "1 - theta lambda a = exp(R(W)) exp(Rt(W))",
    "left and right recursion shapes agree",
    "induced recursion = ad_{R(.)} recursion",
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structural_identities_hold_for_any_linear_operator(n):
    """Oracle: a random linear R on n x n matrices, at four weights and
    orders 1 to 6, passes every label that no Rota-Baxter property backs."""
    assert not set(_HOLDS_FOR_ANY_LINEAR_R) & set().union(*_FAILS_FOR_ANY_LINEAR_R.values())
    space, a = MatrixSpace(n), random_matrix(random.Random(19), n)
    for weight in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)):
        rb = RotaBaxter("random linear R", space, weight, _random_linear_operator(5, n), lambda rng: random_matrix(rng, n))
        labels = _HOLDS_FOR_ANY_LINEAR_R if weight == 0 else _HOLDS_FOR_ANY_LINEAR_R[:-1]
        for order in range(1, 7):
            reports = [atkinson_check(rb, a, order)[0], magnus_fer.verify_magnus(rb.dendriform(), a, order)]
            if weight == 0:
                reports.append(classical_magnus_check(rb, a, order))
            ok = {c.label: c.ok for r in reports for c in r.checks}
            assert [label for label in labels if not ok[label]] == [], (weight, order)


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
        check_dendriform_axioms(tri, triples),
        {"(A1) (a<b)<c = a<(b*c)", "(A2) (a>b)<c = a>(b<c)", "(A3) a>(b>c) = (a*b)>c"},
        N + 1,
        "triples",
    )


class _TriStarSymmetrised(RBTridendriform):
    """star = ab + ba instead of aR(b) + R(a)b + theta ab; lt, gt and dot stay correct."""

    def star(self, a, b):
        return _symmetrised(self.space, a, b)


class _DotSymmetrised(RBTridendriform):
    """dot = theta (ab + ba): not associative, and star changes with it."""

    def dot(self, a, b):
        return self.space.scale(self.rb.weight, _symmetrised(self.space, a, b))


@pytest.mark.parametrize(
    "make_tri, broken",
    [
        (
            _TriStarSymmetrised,
            {"(x<y)<z = x<(y*z)", "(x*y)>z = x>(y>z)", "star associativity"},
        ),
        (
            _DotSymmetrised,
            {
                "(x<y)<z = x<(y*z)",
                "(x*y)>z = x>(y>z)",
                "(x>y).z = x>(y.z)",
                "(x<y).z = x.(y>z)",
                "(x.y)<z = x.(y<z)",
                "(x.y).z = x.(y.z)",
                "star associativity",
            },
        ),
    ],
    ids=["star", "dot"],
)
def test_tridendriform_with_a_non_associative_product(make_tri, broken):
    tri = make_tri(triangular_rb())
    triples = _with_zero(tri.space, sample_tuples(tri, random.Random(22), N, 3))
    _assert_fails_exactly(check_tridendriform_axioms(tri, triples), broken, N + 1, "triples")


class _PrecDropsDot(RBTridendriform):
    """prec = lt instead of lt + dot; lt, gt, dot and star stay correct."""

    def prec(self, a, b):
        return self.lt(a, b)


@pytest.mark.parametrize("make_tri", [_PrecDropsDot, _TriStarSymmetrised], ids=["prec", "star"])
def test_collapse_report_catches_a_broken_collapse(monkeypatch, make_tri):
    monkeypatch.setattr(suites, "RBTridendriform", make_tri)
    reports = {r.name: r for r in suites.suite_tridendriform(5, 2024)}
    name = "tridendriform from triangular projection 3x3"
    collapse = reports[f"collapse to dendriform [{name}]"]
    assert [(c.ok, c.detail) for c in collapse.checks] == [(False, "0/200 pairs")], collapse.summary()
    assert reports["collapse to dendriform [summation tridendriform]"].ok
    if make_tri is _PrecDropsDot:
        # the dendriform axioms read the three-term star, so with prec = lt they
        # are tridendriform axioms 1-3 and hold: only the collapse report fails
        assert reports[f"dendriform axioms [{name}-as-dendriform]"].ok
        assert [r.name for r in reports.values() if not r.ok] == [f"collapse to dendriform [{name}]"]


@pytest.mark.parametrize(
    "factor, weight, op",
    [(2, -1, triangular_project), (1, 1, triangular_project), (1, 0, lambda x: x)],
    ids=["2P-weight-minus-1", "P-weight-plus-1", "identity-weight-0"],
)
def test_exp_image_fails_for_an_operator_that_is_not_rota_baxter(factor, weight, op):
    space = MatrixSpace(3)
    scaled = lambda x: space.scale(factor, op(x))
    rb = RotaBaxter("not Rota-Baxter", space, Fraction(weight), scaled, lambda rng: random_matrix(rng, 3))
    assert not check_rb_relation(rb, N, seed=23).ok
    rep = exp_image_check(rb, rb.sample(random.Random(23)), 5)
    assert [(c.label, c.ok) for c in rep.checks] == [("R(exp_*t(lambda a)) = exp(lambda R(a))", False)], rep.summary()


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


class _SuccKeepsLeftOfUnit(RBDendriform):
    """half_succ(x, 1) returns x instead of 0; the other unit rules hold."""

    def half_succ(self, x, y):
        if y.scalar and not x.scalar:
            return UnitalDendElem(Fraction(0), x.vec)
        return super().half_succ(x, y)


def test_half_succ_keeping_x_before_the_unit_fails_only_the_sample_rule():
    dend = _SuccKeepsLeftOfUnit(triangular_rb())
    rng = random.Random(16)
    elems = [dend.space.zero()] + [dend.sample(rng) for _ in range(N)]
    _assert_fails_exactly(
        check_unit_rules(dend, elems), {"a<1 = a = 1>a and 1<a = 0 = a>1"}, N + 1, "samples"
    )


class _PrecAcceptsUnitUnit(RBDendriform):
    """half_prec(1, 1) returns the unit instead of raising."""

    def half_prec(self, x, y):
        if x.scalar and y.scalar:
            return self.unital_space.one()
        return super().half_prec(x, y)


def test_half_prec_accepting_unit_unit_fails_only_its_rejection():
    dend = _PrecAcceptsUnitUnit(triangular_rb())
    rng = random.Random(17)
    rep = check_unit_rules(dend, [dend.sample(rng) for _ in range(N)])
    assert [(c.label, c.ok, c.detail) for c in rep.checks if not c.ok] == [
        ("1<1 rejected", False, "no error raised")
    ], rep.summary()
    assert {c.label: c.detail for c in rep.checks}["a<1 = a = 1>a and 1<a = 0 = a>1"] == f"{N}/{N} samples"
    assert not rep.ok


def test_threads_sharing_an_instance_get_one_summary():
    tri = RBTridendriform(triangular_rb())
    triples = sample_tuples(tri, random.Random(18), 20, 3)
    start = threading.Barrier(8)
    summaries = [None] * 8

    def run(i):
        start.wait()
        summaries[i] = check_tridendriform_axioms(tri, triples).summary()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert summaries[0] is not None and "20/20 triples" in summaries[0]
    assert summaries == [summaries[0]] * 8


# -- the lockstep suites against each checker run on its own ----------------


def _reference_tridendriform(seed: int) -> list[VerificationReport]:
    """The per-instance reports of suite_tridendriform, one checker at a time
    on the plain instance."""
    reports = []
    for idx, tri in enumerate((SummationTridendriform(), suites.RBTridendriform(suites.triangular_rb()))):
        triples = sample_tuples(tri, random.Random(seed + idx), suites.SAMPLE_TRIPLES, 3)
        collapse = VerificationReport(f"collapse to dendriform [{tri.name}]")
        holds = lambda a, b, _: (tri.space.eq(Dendriform.star(tri, a, b), tri.star(a, b)),)
        collapse.add_sampled(triples, ["dendriform star equals tridendriform star"], holds, "pairs")
        reports += [
            check_tridendriform_axioms(tri, triples),
            check_dendriform_axioms(tri, triples, f"dendriform axioms [{tri.name}-as-dendriform]"),
            collapse,
        ]
    return reports


def _reference_dendriform(seed: int) -> list[VerificationReport]:
    """The axiom and pre-Lie reports of suite_dendriform, one checker at a time
    on the plain instance."""
    free, deg = free_dendriform(), suites.EXHAUSTIVE_DEGREE
    triples = list(suites._basis_triples(trees_of_degree, deg))
    reports = [
        check_dendriform_axioms(free, triples, f"dendriform axioms [free model, exhaustive degree <= {deg}]"),
        check_prelie_identities(free, triples, f"pre-Lie identities [free model, exhaustive degree <= {deg}]"),
    ]
    instances = [rb.dendriform() for rb in suites.standard_rb_instances()]
    instances += [suites.matrix_poly_rb().dendriform(), suites.assoc_matrix_dendriform()]
    for idx, dend in enumerate(instances):
        triples = sample_tuples(dend, random.Random(seed + idx), suites.SAMPLE_TRIPLES, 3)
        reports += [check_dendriform_axioms(dend, triples), check_prelie_identities(dend, triples)]
    return reports


def _assert_suite_matches_reference(suite, reference, seed: int) -> None:
    got = {r.name: r for r in suite(5, seed)}
    want = reference(seed)
    assert [got.get(r.name) for r in want] == want


@pytest.mark.parametrize("seed", [1, 101, 2024])
def test_lockstep_suites_match_each_checker_run_alone(seed):
    """Names, labels, verdicts and pass counts, report for report."""
    _assert_suite_matches_reference(suites.suite_tridendriform, _reference_tridendriform, seed)
    _assert_suite_matches_reference(suites.suite_dendriform, _reference_dendriform, seed)


@pytest.mark.parametrize("broken", ["prec", "star", "random-R"])
def test_lockstep_suites_fail_as_each_checker_run_alone(monkeypatch, broken):
    """The same on broken instances, so that failing counts match too."""
    if broken == "random-R":
        monkeypatch.setattr(suites, "triangular_rb", _random_linear_rb)
        monkeypatch.setattr(suites, "standard_rb_instances", lambda: [_random_linear_rb()])
    else:
        monkeypatch.setattr(suites, "RBTridendriform", {"prec": _PrecDropsDot, "star": _TriStarSymmetrised}[broken])
    assert not all(r.ok for r in _reference_tridendriform(2024))
    _assert_suite_matches_reference(suites.suite_tridendriform, _reference_tridendriform, 2024)
    if broken == "random-R":
        assert not all(r.ok for r in _reference_dendriform(2024))
        _assert_suite_matches_reference(suites.suite_dendriform, _reference_dendriform, 2024)


def test_lockstep_suites_compute_each_product_once_per_sample(monkeypatch):
    """Carrier products of the two suites, and the memo bounded by one sample.

    Each checker run alone makes 13000 RatMatrix, 13300 GridSeq products in
    suite_tridendriform(5, 2024), and 16800, 11200 and 22600 RatMatrix,
    GridSeq and Poly products in suite_dendriform(8, 2024).
    """
    calls = {}
    for cls, name in ((RatMatrix, "__matmul__"), (GridSeq, "__mul__"), (Poly, "__mul__")):

        def counted(self, other, product=getattr(cls, name), cls=cls):
            calls[cls] = calls.get(cls, 0) + 1
            return product(self, other)

        monkeypatch.setattr(cls, name, counted)
    memos, largest = [], [0]
    remembered, run_sampled = suites.remembered, suites.run_sampled

    def spy_remembered(instance):
        view, memo = remembered(instance)
        memos.append(memo)
        return view, memo

    def spy_run_sampled(samples, checks, reset):
        def spy_reset():
            largest[0] = max(largest[0], len(memos[-1]))
            reset()

        return run_sampled(samples, checks, spy_reset)

    monkeypatch.setattr(suites, "remembered", spy_remembered)
    monkeypatch.setattr(suites, "run_sampled", spy_run_sampled)
    for suite, order, want, memo_size in (
        (suites.suite_tridendriform, 5, {RatMatrix: 5400, GridSeq: 5700}, 31),
        (suites.suite_dendriform, 8, {RatMatrix: 10800, GridSeq: 7200, Poly: 14400}, 41),
    ):
        calls.clear()
        largest[0] = 0
        assert all(r.ok for r in suite(order, 2024))
        assert calls == want
        assert largest[0] == memo_size


def test_threads_running_the_lockstep_suites_get_one_summary():
    start = threading.Barrier(8)
    summaries = [None] * 8

    def run(i):
        start.wait()
        reports = suites.suite_tridendriform(5, 101) + suites.suite_dendriform(5, 101)
        summaries[i] = "\n".join(r.summary() for r in reports)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert summaries[0] is not None and "FAIL" not in summaries[0]
    assert summaries == [summaries[0]] * 8
