import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from dendrimag.dendriform import Dendriform, check_dendriform_axioms, check_prelie_identities, series_half_prec
from dendrimag.lincomb import LinComb, bilinear
from dendrimag.magnus_fer import fer, magnus
from dendrimag.pbt import (
    GENERATOR,
    LEAF,
    PBT,
    FreeDendriform,
    _tree_at,
    ascii_render,
    free_dendriform,
    trees_of_degree,
)
from dendrimag.prelie_expr import GEN, PreLieExpr, eval_planar, eval_rooted, formal_ops
from dendrimag.rooted import RootedTree, VERTEX, graft, rooted_ops, rooted_trees_of_degree
from dendrimag.series import TruncatedSeries

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115]


@pytest.mark.parametrize("n", range(9))
def test_catalan_counts(n):
    assert len(trees_of_degree(n)) == CATALAN[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_rooted_tree_counts(n):
    assert len(rooted_trees_of_degree(n)) == ROOTED_COUNTS[n - 1]


def test_tree_string_grammar_roundtrip():
    strings = set()
    for n in range(6):
        for t in trees_of_degree(n):
            if t is not LEAF:
                assert str(t) == f"({t.left}^{t.right})"
            strings.add(str(t))
    assert len(strings) == sum(CATALAN[:6])  # distinct trees print distinctly
    assert str(LEAF) == "o"
    assert str(GENERATOR) == "(o^o)"
    assert "o" in ascii_render(GENERATOR)


def test_interning_gives_identity_equality():
    assert PBT(LEAF, LEAF) is GENERATOR
    assert RootedTree((VERTEX,)) is RootedTree((VERTEX,))
    # child order does not matter for rooted trees
    ladder = RootedTree((VERTEX,))
    assert RootedTree((ladder, VERTEX)) is RootedTree((VERTEX, ladder))


def _random_shape(rng, size):
    """A binary shape with ``size`` internal nodes, as nested pairs (None for a leaf)."""
    if size == 0:
        return None
    left = rng.randrange(size)
    return (_random_shape(rng, left), _random_shape(rng, size - 1 - left))


def _build(shape, kind):
    if shape is None:
        return {"pbt": LEAF, "rooted": VERTEX, "expr": GEN}[kind]
    left, right = _build(shape[0], kind), _build(shape[1], kind)
    if kind == "rooted":
        return RootedTree((left, right))
    return (PBT if kind == "pbt" else PreLieExpr)(left, right)


def test_interning_is_thread_safe():
    # 8 threads build the same fresh trees at once; a lost intern race would
    # hand two threads distinct objects for one tree
    rng = random.Random(20261017)
    shapes = [_random_shape(rng, 60) for _ in range(40)]
    kinds = ("pbt", "rooted", "expr")
    workers = 8
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = [[_build(s, kind) for s in shapes] for kind in kinds]

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
    again = [[_build(s, kind) for s in shapes] for kind in kinds]
    for built in results:
        assert built is not None
        for trees, expected in zip(built, again):
            assert all(x is y for x, y in zip(trees, expected))


@pytest.mark.parametrize("n", range(10))
def test_tree_index_is_its_position(n):
    trees = trees_of_degree(n)
    assert all(trees[t.index] is t for t in trees)
    assert all(_tree_at(n, k) is t for k, t in enumerate(trees))


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _rank(t):
    """Position of t among the trees of its degree, ordered by left degree, then
    left position, then right position, as trees_of_degree lists them."""
    if t is LEAF:
        return 0
    n, i = t.degree, t.left.degree
    before = sum(_catalan(k) * _catalan(n - 1 - k) for k in range(i))
    return before + _rank(t.left) * _catalan(n - 1 - i) + _rank(t.right)


def test_deep_tree_index_needs_no_enumeration():
    # a degree-60 tree is one of C_60 ~ 1.6e33; its position comes from the
    # Catalan offsets alone, and no new degree is ever listed
    rng = random.Random(60)
    listed = trees_of_degree.cache_info().currsize
    trees = [_build(_random_shape(rng, 60), "pbt") for _ in range(5)]
    assert trees_of_degree.cache_info().currsize == listed
    for t in trees:
        assert t.degree == 60
        assert t.index == _rank(t) and 0 <= t.index < _catalan(60)


def _product_results(dend, pairs):
    ops = (dend.star, dend.prec, dend.succ, dend.rhd, dend.lhd)
    return [op(a, b) for a, b in pairs for op in ops]


def _series_results(dend, xs, ys):
    """A unital series product and a series_half_prec, each summing the carrier
    pairs of a whole degree in one pair-list kernel, with the unit terms added
    after it."""
    usp = dend.unital_space
    x = TruncatedSeries(usp, 4, [usp.one()] + [dend.embed(c) for c in xs])
    y = TruncatedSeries(usp, 4, [usp.zero()] + [dend.embed(c) for c in ys])
    return [(x * y).coeffs, series_half_prec(dend, x, y).coeffs]


def test_product_table_fills_safely_from_threads():
    # 8 threads fill the star rows of one fresh instance at once, each taking
    # the pairs in its own order and running the series products first or
    # last; a row published half built, or an entry lost in a race, would
    # change some thread's products
    rng = random.Random(20261018)
    trees = [t for n in range(1, 5) for t in trees_of_degree(n)]

    def combo():
        return LinComb([(rng.choice(trees), Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(3)])

    pairs = [(a, b) for a, b in ((combo(), combo()) for _ in range(60)) if not (a.is_zero() or b.is_zero())]
    xs, ys = [combo() for _ in range(4)], [combo() for _ in range(4)]
    expected = _product_results(FreeDendriform(), pairs)
    expected_series = _series_results(FreeDendriform(), xs, ys)
    shared = FreeDendriform()
    workers = 8
    orders = [random.Random(i).sample(range(len(pairs)), len(pairs)) for i in range(workers)]
    results = [None] * workers
    series_results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=30)
        if i % 2:
            series_results[i] = _series_results(shared, xs, ys)
        got = _product_results(shared, [pairs[k] for k in orders[i]])
        results[i] = {k: got[5 * m : 5 * m + 5] for m, k in enumerate(orders[i])}
        if not i % 2:
            series_results[i] = _series_results(shared, xs, ys)

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
    for got in results:
        assert got is not None
        assert [x for k in range(len(pairs)) for x in got[k]] == expected
    assert series_results == [expected_series] * workers


def test_generator_products():
    dend = free_dendriform()
    a = dend.generator()
    left = dend.prec(a, a)
    right = dend.succ(a, a)
    assert left.support_count() == 1 and right.support_count() == 1
    (tl, cl), = left.sorted_terms()
    (tr, cr), = right.sorted_terms()
    assert cl == 1 and cr == 1 and tl is not tr
    assert {tl, tr} == set(trees_of_degree(2))
    assert dend.star(a, a) == left + right


def test_unit_rules_through_unital_layer():
    dend = free_dendriform()
    a = dend.embed(dend.generator())
    one = dend.unital_space.one()
    assert dend.unital_space.eq(dend.half_prec(a, one), a)
    assert dend.unital_space.is_zero(dend.half_succ(a, one))


def _basis_pairs(max_total):
    for i in range(1, max_total):
        for j in range(1, max_total - i + 1):
            for s in trees_of_degree(i):
                for t in trees_of_degree(j):
                    yield LinComb.single(s), LinComb.single(t)


def test_fused_products_match_generic_formulas(rng):
    """FreeDendriform's cached star/rhd and lhd = -(b rhd a) against the
    Dendriform base formulas built from prec and succ."""
    dend = free_dendriform()
    pairs = list(_basis_pairs(6)) + [(dend.sample(rng), dend.sample(rng)) for _ in range(40)]
    for a, b in pairs:
        assert dend.star(a, b) == Dendriform.star(dend, a, b)
        assert dend.rhd(a, b) == Dendriform.rhd(dend, a, b)
        assert dend.lhd(a, b) == Dendriform.lhd(dend, a, b)


@pytest.mark.parametrize("order", range(1, 7))
def test_expansions_in_the_model_equal_evaluated_formal_ones(order):
    """Magnus and Fer run on a model's ops equal the formal expansions evaluated there."""
    formal = formal_ops()
    raw = [magnus(formal, formal.generator(), order)] + fer(formal, formal.generator(), order)
    for ops, evaluate in ((free_dendriform(), eval_planar), (rooted_ops(), eval_rooted)):
        direct = [magnus(ops, ops.generator(), order)] + fer(ops, ops.generator(), order)
        assert len(raw) == len(direct)
        for u, v in zip(raw, direct):
            assert [evaluate(c) for c in u.coeffs] == list(v.coeffs)


def _basis_triples(kind, max_total):
    degrees = []
    for i in range(1, max_total - 1):
        for j in range(1, max_total - i):
            for k in range(1, max_total - i - j + 1):
                degrees.append((i, j, k))
    for i, j, k in degrees:
        for s in kind(i):
            for t in kind(j):
                for u in kind(k):
                    yield (LinComb.single(s), LinComb.single(t), LinComb.single(u))


def test_free_dendriform_axioms_exhaustive_degree_6():
    dend = free_dendriform()
    triples = list(_basis_triples(trees_of_degree, 6))
    rep = check_dendriform_axioms(dend, triples)
    assert rep.ok, rep.summary()
    rep = check_prelie_identities(dend, triples)
    assert rep.ok, rep.summary()


def test_grafting_examples():
    a = LinComb.single(VERTEX)
    ladder2 = RootedTree((VERTEX,))
    assert graft(a, a) == LinComb.single(ladder2)
    ladder3 = RootedTree((ladder2,))
    cherry = RootedTree((VERTEX, VERTEX))
    assert graft(a, LinComb.single(ladder2)) == LinComb.single(ladder3) + LinComb.single(cherry)
    # grafting a ladder onto the single vertex gives the 3-chain
    assert graft(LinComb.single(ladder2), a) == LinComb.single(ladder3)


def test_free_prelie_identity_exhaustive_degree_6():
    ops = rooted_ops()
    for a, b, c in _basis_triples(rooted_trees_of_degree, 6):
        lhs = ops.rhd(ops.rhd(a, b), c) - ops.rhd(a, ops.rhd(b, c))
        rhs = ops.rhd(ops.rhd(b, a), c) - ops.rhd(b, ops.rhd(a, c))
        assert lhs == rhs


def test_grafting_degree_additive(rng):
    ops = rooted_ops()
    for _ in range(20):
        s = rng.choice(rooted_trees_of_degree(rng.randint(1, 3)))
        t = rng.choice(rooted_trees_of_degree(rng.randint(1, 3)))
        out = graft(LinComb.single(s), LinComb.single(t))
        assert all(tree.degree == s.degree + t.degree for tree, _ in out.sorted_terms())
        # number of graft positions equals the vertex count of t
        assert sum(out.terms.values()) == t.degree


def test_lincomb_normalization():
    a = LinComb.single(VERTEX, Fraction(1, 2))
    b = LinComb.single(VERTEX, Fraction(-1, 2))
    assert (a + b).is_zero()
    assert (a + b).support_count() == 0
    assert a.scale(Fraction(0)).is_zero()
    assert str(LinComb.zero()) == "0"


def test_bilinear_drops_cancelling_terms_and_keeps_fractions():
    s, t = trees_of_degree(2)
    # s.t = 2t + s and t.s = -2t, with int coefficients; all other pairs give 0
    table = {(s, t): LinComb([(t, 2), (s, 1)]), (t, s): LinComb([(t, -2)])}
    prod = bilinear(lambda x, y: table.get((x, y), LinComb()))
    x = LinComb([(s, 1), (t, 1)])
    out = prod(x, x)
    assert out.terms == {s: 1}  # the t terms cancel and leave no zero entry
    assert type(out.terms[s]) is Fraction
    assert type(LinComb([(s, 1)]).terms[s]) is Fraction
    assert prod(LinComb.single(t), LinComb.single(t)).is_zero()
