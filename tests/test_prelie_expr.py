import random
import sys
import threading
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, lcm

import pytest

from dendrimag import prelie_expr
from dendrimag.lincomb import LinComb
from dendrimag.magnus_fer import magnus_free_component
from dendrimag.prelie_expr import (
    GEN,
    PreLieExpr,
    eval_planar,
    eval_rooted,
    minimal_forms,
    monomial_count,
    rewrite_reduce,
)
from dendrimag.rooted import VERTEX, graft, rooted_trees_of_degree


def expr(shape):
    """Tiny builder: nested pairs denote applications."""
    if shape == "a":
        return GEN
    left, right = shape
    return PreLieExpr(expr(left), expr(right))


AA = ("a", "a")


def test_generator_evaluates_to_basis():
    assert eval_rooted(LinComb.single(GEN)) == LinComb.single(VERTEX)
    planar = eval_planar(LinComb.single(GEN))
    assert planar.support_count() == 1


def test_prelie_relation_instance_holds_in_both_models():
    lhs = LinComb.single(expr((AA, AA)))
    rhs = (
        LinComb.single(expr(((AA, "a"), "a")))
        - LinComb.single(expr((("a", AA), "a")))
        + LinComb.single(expr(("a", (AA, "a"))))
    )
    assert eval_rooted(lhs) == eval_rooted(rhs)
    assert eval_planar(lhs) == eval_planar(rhs)
    # the relation itself is zero in the free pre-Lie algebra
    assert minimal_forms(lhs - rhs) == [LinComb.zero()]


def _random_expr(rng, degree):
    if degree == 1:
        return GEN
    split = rng.randint(1, degree - 1)
    return PreLieExpr(_random_expr(rng, split), _random_expr(rng, degree - split))


def test_rooted_equality_is_universal(rng):
    # rooted trees are the free pre-Lie algebra, so the kernel of eval_rooted spans
    # every pre-Lie relation: adding any integer kernel combination keeps a
    # combination equal in the rooted model and in the planar (dendriform) model
    for _ in range(100):
        degree = rng.randint(2, 5)
        exprs = prelie_expr._expressions_of_degree(degree)
        start = LinComb(
            [(_random_expr(rng, degree), Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        )
        kernel = prelie_expr._kernel(degree)
        ys = [rng.randint(-3, 3) for _ in kernel]
        relation = sum((LinComb(zip(exprs, k)).scale(y) for y, k in zip(ys, kernel)), LinComb.zero())
        moved = start + relation
        assert relation.is_zero() == (not any(ys))
        assert eval_rooted(start) == eval_rooted(moved)
        assert eval_planar(start) == eval_planar(moved)


def test_rewrite_reduce_minimal_input_unchanged():
    combo = LinComb.single(expr(AA), Fraction(-1, 2))
    assert rewrite_reduce(combo) == combo
    assert rewrite_reduce(LinComb.zero()) == LinComb.zero()
    assert minimal_forms(LinComb.zero()) == [LinComb.zero()]
    # below degree 4 the rooted-tree map is injective: every combination is its only form
    three = LinComb.single(expr((AA, "a")), Fraction(2)) - LinComb.single(expr(("a", AA)), Fraction(1, 3))
    assert minimal_forms(three) == [three]
    for degree in (1, 2, 3):
        assert prelie_expr._kernel(degree) == ()
        for combo in _seeded_combos(degree, 2400 + degree, 4):
            assert minimal_forms(combo) == [combo]


def test_rewrite_reduce_rejects_mixed_degrees():
    combo = LinComb.single(GEN) + LinComb.single(expr(AA))
    with pytest.raises(ValueError):
        rewrite_reduce(combo)
    with pytest.raises(ValueError):
        minimal_forms(combo)


def _left_comb(degree):
    e = GEN
    for _ in range(degree - 1):
        e = PreLieExpr(e, GEN)
    return e


def test_rewrite_reduce_rejects_degree_above_five(monkeypatch):
    # degree 6 would enumerate C(42, 22) subsets: the bound must come first
    def unreachable(n):
        raise AssertionError(f"enumerated degree {n}")

    monkeypatch.setattr(prelie_expr, "_expressions_of_degree", unreachable)
    monkeypatch.setattr(prelie_expr, "_kernel", unreachable)
    for degree in (6, 7, 40):
        combo = LinComb.single(_left_comb(degree), Fraction(1, 2))
        for reduce in (rewrite_reduce, minimal_forms):
            with pytest.raises(ValueError, match=f"degree {degree} "):
                reduce(combo)


# -- independent minimality oracle ---------------------------------------------
# Brute force over supports, smallest first.  It enumerates expressions and
# evaluates them by grafting on its own, decides each support by plain
# elimination (integer cross-multiplication, then Fraction back-substitution),
# and shares no code with minimal_forms.


def _all_expressions(n):
    if n == 1:
        return [GEN]
    return [PreLieExpr(x, y) for k in range(1, n) for x in _all_expressions(k) for y in _all_expressions(n - k)]


def _grafted(e):
    if e.is_gen:
        return LinComb.single(VERTEX)
    return graft(_grafted(e.left), _grafted(e.right))


def _solve_on_support(columns, target):
    """The c with sum_j c_j columns[j] == target, None when there is none.

    Columns and target are integer vectors.  A consistent system with
    dependent columns fails the test: at the smallest consistent support
    size that cannot happen.
    """
    rows = [[col[k] for col in columns] + [target[k]] for k in range(len(target))]
    width = len(columns)
    rank = 0
    for j in range(width):
        p = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j]
            if f:
                rows[i] = [top[j] * x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    if any(row[width] for row in rows[rank:]):
        return None
    assert rank == width, "a consistent support with dependent columns"
    sol = [Fraction(0)] * width
    for j in reversed(range(width)):
        row = rows[j]
        sol[j] = (row[width] - sum(row[k] * sol[k] for k in range(j + 1, width))) / Fraction(row[j])
    return sol


def _brute_force_minimum(combo):
    """(fewest monomials, every form with that many) for a nonzero homogeneous combo."""
    (degree,) = {e.degree for e in combo.terms}
    exprs = _all_expressions(degree)
    images = [_grafted(e) for e in exprs]
    trees = sorted({t for img in images for t in img.terms}, key=str)
    columns = [[int(img.coeff(t)) for t in trees] for img in images]
    den = lcm(*(c.denominator for c in combo.terms.values()))
    scaled = sum((img.scale(combo.coeff(e) * den) for e, img in zip(exprs, images)), LinComb.zero())
    target = [int(scaled.coeff(t)) for t in trees]
    for size in range(len(exprs) + 1):
        forms = []
        for support in combinations(range(len(exprs)), size):
            sol = _solve_on_support([columns[j] for j in support], target)
            if sol is not None:
                assert all(c != 0 for c in sol), "a smaller support was missed"
                forms.append(LinComb(zip((exprs[j] for j in support), (c / den for c in sol))))
        if forms:
            return size, forms
    raise AssertionError("no representative found")


def test_degree_five_minimum_is_seven_by_brute_force():
    raw5, rooted5 = magnus_free_component(5)
    size, forms = _brute_force_minimum(raw5)
    # no support of 6 or fewer monomials is consistent
    assert size == 7
    assert len(forms) == 12
    assert all(eval_rooted(f) == rooted5 for f in forms)
    assert set(minimal_forms(raw5)) == set(forms)


def test_random_low_degree_minimum_matches_brute_force(rng):
    for _ in range(30):
        degree = rng.randint(2, 4)
        combo = LinComb(
            [(_random_expr(rng, degree), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(rng.randint(1, 4))]
        )
        if combo.is_zero():
            continue
        size, forms = _brute_force_minimum(combo)
        assert monomial_count(rewrite_reduce(combo)) == size
        assert set(minimal_forms(combo)) == set(forms)


def test_single_monomial_is_its_only_minimal_form():
    for degree in range(1, 6):
        for e in _all_expressions(degree):
            single = LinComb.single(e, Fraction(-3, 2))
            assert minimal_forms(single) == [single]
    single = LinComb.single(expr((AA, AA)))
    assert rewrite_reduce(single) == single


def test_support_counts():
    assert monomial_count(LinComb.zero()) == 0
    assert monomial_count(LinComb.single(GEN)) == 1


# -- the prefix walk against the all-subsets loop ---------------------------------


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over plain Fractions, pivots sought in the first
    ``ncols`` columns: (pivot columns, rows).  Shares no code with prelie_expr."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        a = rows[r][col]
        top = rows[r] = [v / a for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(col)
    return pivots, rows


@cache
def _full_rank_inverses(n):
    """(Z, K_Z^-1) for each d-subset Z of the degree-n expressions on which the
    d x d matrix K_Z of the kernel rows has full rank: the right half of
    _gauss_jordan([K_Z | I]).  Each K_Z is inverted once per degree."""
    kernel = prelie_expr._kernel(n)
    d = len(kernel)
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    out = []
    for zeros in combinations(range(len(kernel[0])), d):
        pivots, rows = _gauss_jordan([[k[z] for k in kernel] + e for z, e in zip(zeros, eye)], d)
        if len(pivots) == d:
            out.append((zeros, [row[d:] for row in rows]))
    return out


def _all_subsets_minimal_forms(combo):
    """minimal_forms as one Fraction solve per d-subset of the kernel rows, with
    no pruning: the loop the depth-first walk replaces."""
    (n,) = {e.degree for e in combo.num}
    exprs = prelie_expr._expressions_of_degree(n)
    kernel = prelie_expr._kernel(n)
    x0 = [combo.coeff(e) for e in exprs]
    best, found = len(exprs), set()
    for zeros, inverse in _full_rank_inverses(n):
        c = [-sum(v * x0[z] for v, z in zip(row, zeros)) for row in inverse]
        x = [v + sum(ci * k[i] for ci, k in zip(c, kernel)) for i, v in enumerate(x0)]
        size = len(x) - x.count(0)
        if size < best:
            best, found = size, set()
        if size == best:
            found.add(LinComb(zip(exprs, x)))
    return sorted(found, key=prelie_expr._rank)


def _seeded_combos(degree, seed, count):
    # half of them put weight on expressions 0 and 6, whose degree-5 kernel rows are zero
    rng = random.Random(seed)
    exprs = prelie_expr._expressions_of_degree(degree)
    combos = []
    while len(combos) < count:
        terms = [(rng.choice(exprs), Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(rng.randint(1, 9))]
        if len(combos) % 2:
            terms += [(exprs[0], Fraction(rng.randint(1, 5), 2)), (exprs[min(6, len(exprs) - 1)], Fraction(-rng.randint(1, 5)))]
        combo = LinComb(terms)
        if not combo.is_zero():
            combos.append(combo)
    return combos


def test_prefix_walk_matches_all_subsets_loop():
    raw4, _ = magnus_free_component(4)
    raw5, _ = magnus_free_component(5)
    combos = [raw4, raw5] + _seeded_combos(4, 2404, 8) + _seeded_combos(5, 2405, 8)
    for combo in combos:
        assert minimal_forms(combo) == _all_subsets_minimal_forms(combo), str(combo)
    assert len(minimal_forms(raw5)) == 12


def test_degree_five_solves_only_full_rank_subsets(monkeypatch):
    # 438 of the C(14, 5) = 2002 zero sets have full rank; a walk that stops
    # pruning, or that skips a full-rank set, solves a different number
    kernel = prelie_expr._kernel(5)
    assert len(kernel) == 5 and len(kernel[0]) == 14
    assert {z for z in range(14) if not any(k[z] for k in kernel)} == {0, 6}
    full_rank = len(_full_rank_inverses(5))
    assert full_rank == 438
    solves = []
    leaf = prelie_expr._leaf_form

    def counted(*args):
        solves.append(args[0])
        return leaf(*args)

    monkeypatch.setattr(prelie_expr, "_leaf_form", counted)
    raw5, _ = magnus_free_component(5)
    assert len(minimal_forms(raw5)) == 12
    assert len(solves) == 438
    # each leaf holds one pivot in each of the d kernel columns
    assert all(sorted(c for c, _ in pivots) == list(range(5)) for pivots in solves)
    solves.clear()
    raw4, _ = magnus_free_component(4)
    minimal_forms(raw4)
    # degree 4: one kernel vector over 5 expressions, zero at one coordinate
    assert len(solves) == 4


def test_kernel_is_a_basis_of_the_rooted_tree_kernel():
    # the image matrix comes from the test's own grafting, not from eval_rooted
    dims = []
    for n in range(1, 6):
        exprs = prelie_expr._expressions_of_degree(n)
        images = [_grafted(e) for e in exprs]
        trees = sorted({t for img in images for t in img.terms}, key=str)
        matrix = [[img.coeff(t) for img in images] for t in trees]
        kernel = prelie_expr._kernel(n)
        assert all(sum(m * v for m, v in zip(row, k)) == 0 for row in matrix for k in kernel)
        # rank(image) = #trees and the kernel vectors are independent, so they span the kernel
        assert len(_gauss_jordan(matrix, len(exprs))[0]) == len(trees) == len(rooted_trees_of_degree(n))
        assert len(_gauss_jordan(kernel, len(exprs))[0]) == len(kernel)
        assert len(kernel) == comb(2 * n - 2, n - 1) // n - len(trees)
        dims.append(len(kernel))
    assert dims == [0, 0, 0, 1, 5]


def test_minimal_forms_from_threads_with_cold_caches():
    raw5, _ = magnus_free_component(5)
    want = minimal_forms(raw5)
    prelie_expr._kernel.cache_clear()
    prelie_expr._expressions_of_degree.cache_clear()
    workers = 8
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = minimal_forms(raw5)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == want for r in results)
