"""Differential tests of the exact carriers against nested Fractions.

RatMatrix, GridSeq, Poly and LinComb compute on integer numerators over one
shared denominator; every operation here is checked against a plain
reference written on lists or dicts of Fractions, and every result is
checked to be in the normalised form that equality and hashing rely on.  The
Poly product is also checked against a naive double sum over the rationals
and over 1x1, 2x2 and 3x3 matrices.
"""

import importlib.util
import operator
import random
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, isqrt
from pathlib import Path

import pytest

from dendrimag import matrices
from dendrimag.dendriform import UnitalDendElem
from dendrimag.grids import GridSeq, GridSpace, NonSummable, random_gridseq
from dendrimag.instances import SummationTridendriform, matrix_poly_rb
from dendrimag.lincomb import LinComb, LinCombSpace, bilinear
from dendrimag.matrices import MatrixSpace, RatMatrix, matmul_kernel, random_matrix, triangular_project
from dendrimag.ode import _integral_bracket
from dendrimag.pbt import LEAF, PBT, FreeDendriform, _catalan, _sums, _tree_at, free_dendriform, trees_of_degree
from dendrimag.polys import Poly, PolySpace, random_poly
from dendrimag.prelie_expr import _expressions_of_degree, eval_combo, eval_planar, eval_rooted
from dendrimag.rooted import _graft_basis, rooted_ops
from dendrimag.series import RATIONALS, CoeffSpace

SCALES = [Fraction(0), Fraction(1), Fraction(-1), 1, -1, Fraction(3, 4), Fraction(-5, 6), 2]  # scale shortcuts +-1


def _rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 35]))


def _assert_normalised(x) -> None:
    num = list(x.num.values()) if isinstance(x.num, dict) else x.num
    assert x.den > 0
    assert gcd(x.den, *num) == 1
    if not any(num):
        assert x.den == 1
    assert all(type(v) is int for v in num)


# -- RatMatrix ----------------------------------------------------------------


def _ref_matrix(rng, n):
    return [[_rational(rng) for _ in range(n)] for _ in range(n)]


def _check_matrix(m: RatMatrix, ref) -> None:
    _assert_normalised(m)
    assert m.n == len(ref)
    assert m.rows == tuple(tuple(row) for row in ref)
    assert m.is_zero() == all(x == 0 for row in ref for x in row)


def _ref_matmul(a, b):
    """The product a.b by its definition: entry (i, j) sums a[i][k] * b[k][j]."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_matrix_ops_match_fraction_reference(n):
    rng = random.Random(100 + n)
    for _ in range(60):
        ra, rb = _ref_matrix(rng, n), _ref_matrix(rng, n)
        a, b = RatMatrix(ra), RatMatrix(rb)
        _check_matrix(a, ra)
        _check_matrix(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        _check_matrix(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        _check_matrix(-a, [[-x for x in row] for row in ra])
        for c in SCALES:
            _check_matrix(a.scale(c), [[c * x for x in row] for row in ra])
        _check_matrix(a @ b, _ref_matmul(ra, rb))
        _check_matrix(
            triangular_project(a), [[x if j > i else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(ra)]
        )
        _check_matrix(a - a, [[Fraction(0)] * n for _ in range(n)])


def test_matrix_equality_hash_and_round_trips():
    rng = random.Random(7)
    space = MatrixSpace(3)
    for _ in range(100):
        ra, rb = _ref_matrix(rng, 3), _ref_matrix(rng, 3)
        a, b = RatMatrix(ra), RatMatrix(rb)
        # the same matrix reached through different denominators
        c = (a + b) - b
        assert c == a and hash(c) == hash(a)
        assert space.eq(c, a) and space.sub(c, a).is_zero()
        assert (a == b) == (ra == rb)
        assert RatMatrix(a.rows) == a
        assert [Fraction(s) for s in a.to_json()] == [x for row in ra for x in row]
    zero = RatMatrix.zeros(3)
    assert zero == RatMatrix([[0] * 3] * 3) == space.zero()
    assert hash(zero) == hash(RatMatrix([[Fraction(0, 5)] * 3] * 3))
    assert RatMatrix.identity(3).rows == tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert repr(RatMatrix([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]])) == "RatMatrix([['1/2', '0'], ['3', '-2/3']])"


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__matmul__"])
def test_matrix_dimension_mismatch(op):
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(a, op)(b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        getattr(b, op)(a)


def _unit(n, i, j) -> RatMatrix:
    """The matrix unit E_ij (1-based), 1 at row i and column j."""
    return RatMatrix([[int((r, c) == (i - 1, j - 1)) for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("n", [2, 3])
def test_products_keep_their_order(n):
    # the opposite product b.a is associative and Rota-Baxter for the same
    # operators, so no sampled identity tells it apart; the matrix units do
    e11, e12, e21, e22 = _unit(n, 1, 1), _unit(n, 1, 2), _unit(n, 2, 1), _unit(n, 2, 2)
    assert e12 @ e21 == e11 and e21 @ e12 == e22
    assert e12 @ e12 == RatMatrix.zeros(n) and e11 @ e12 == e12 and e12 @ e11 == RatMatrix.zeros(n)
    space = MatrixSpace(n)
    p, q = Poly(space, [e12, e21]), Poly(space, [e21, e12])
    # (E12 + E21 t)(E21 + E12 t) = E11 + 0 t + E22 t^2, and E22 + 0 t + E11 t^2 the other way
    assert (p * q).coeffs == (e11, RatMatrix.zeros(n), e22)
    assert (q * p).coeffs == (e22, RatMatrix.zeros(n), e11)


def test_matmul_kernel_is_built_once_per_size(monkeypatch):
    monkeypatch.setattr(matrices, "_kernels", {})
    assert matmul_kernel(3) is matmul_kernel(3) and matmul_kernel(2) is not matmul_kernel(3)
    assert matmul_kernel(0)((), ()) == ()
    # 8 threads build the kernels for n = 1..6 at once, from an empty cache
    monkeypatch.setattr(matrices, "_kernels", {})
    sizes, workers = range(1, 7), 8
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = [matmul_kernel(n) for n in (sizes if i % 2 else reversed(sizes))]

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
    rng = random.Random(61)
    for n in sizes:
        kernels = [r[n - 1] if i % 2 else r[-n] for i, r in enumerate(results)]
        assert all(k is matmul_kernel(n) for k in kernels)
        a, b = [rng.randint(-9, 9) for _ in range(n * n)], [rng.randint(-9, 9) for _ in range(n * n)]
        want = [x for row in _ref_matmul(_rows(a), _rows(b)) for x in row]
        assert matmul_kernel(n)(a, b) == tuple(want)


# -- GridSeq --------------------------------------------------------------------

THETAS = [Fraction(1), Fraction(1, 2), Fraction(2, 5), Fraction(3)]


def _pad(a, b):
    n = max(len(a), len(b))
    return a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))


def _ref_sums(theta, vals):
    incl = [theta * sum(vals[: k + 1], Fraction(0)) for k in range(len(vals))]
    strict = [theta * sum(vals[:k], Fraction(0)) for k in range(len(vals))]
    tail = [theta * sum(vals[k + 1 :], Fraction(0)) for k in range(len(vals))]
    return incl, strict, tail


def _check_grid(g: GridSeq, theta, ref) -> None:
    _assert_normalised(g)
    assert g.theta == theta
    assert g.values == tuple(ref)
    assert g.is_zero() == all(v == 0 for v in ref)


@pytest.mark.parametrize("theta", THETAS)
def test_grid_ops_match_fraction_reference(theta):
    rng = random.Random(int(theta * 100))
    for _ in range(60):
        va = [_rational(rng) for _ in range(rng.randint(0, 7))]
        vb = [_rational(rng) for _ in range(rng.randint(0, 7))]
        a, b = GridSeq(theta, va), GridSeq(theta, vb)
        _check_grid(a, theta, va)
        pa, pb = _pad(va, vb)
        _check_grid(a + b, theta, [x + y for x, y in zip(pa, pb)])
        _check_grid(a - b, theta, [x - y for x, y in zip(pa, pb)])
        _check_grid(a * b, theta, [x * y for x, y in zip(pa, pb)])
        _check_grid(-a, theta, [-x for x in va])
        for c in SCALES:
            _check_grid(a.scale(c), theta, [c * x for x in va])
        incl, strict, tail = _ref_sums(theta, va)
        _check_grid(a.sum_incl(), theta, incl)
        _check_grid(a.sum_strict(), theta, strict)
        _check_grid(a.tail_sum(), theta, tail)
        padded = [Fraction(0)] + va + [Fraction(0)]
        d = [(padded[i] - padded[i + 1]) / theta for i in range(len(padded) - 1)]
        _check_grid(a.diff(), theta, d)
        _check_grid(a.diff().shift_sum(), theta, _ref_sums(theta, d)[2])
        if sum(va, Fraction(0)) != 0:
            with pytest.raises(NonSummable):
                a.shift_sum()
        else:
            _check_grid(a.shift_sum(), theta, tail)


def test_grid_equality_hash_and_round_trips():
    rng = random.Random(11)
    theta = Fraction(1, 2)
    space = GridSpace(theta, 5)
    for _ in range(100):
        va = [_rational(rng) for _ in range(5)]
        vb = [_rational(rng) for _ in range(rng.randint(0, 7))]
        a, b = GridSeq(theta, va), GridSeq(theta, vb)
        c = (a + b) - b  # window may grow, with trailing zeros
        assert c == a and hash(c) == hash(a)
        assert space.eq(c, a) and space.sub(c, a).is_zero()
        longer = GridSeq(theta, va + [0, 0])
        assert longer == a and a == longer and hash(longer) == hash(a)
        assert GridSeq(a.theta, a.values) == a
        payload = a.to_json()
        assert Fraction(payload["theta"]) == theta
        assert [Fraction(s) for s in payload["values"]] == va
    assert GridSeq(theta, []) == space.zero() == GridSeq(theta, [0] * 3)
    assert hash(GridSeq(theta, [])) == hash(space.zero())
    assert space.one().values == (Fraction(1),) * 5
    assert repr(GridSeq(theta, [Fraction(1, 3), 0])) == "GridSeq(theta=1/2, ['1/3', '0'])"
    assert GridSeq(theta, [1, 0]).to_json() == {"theta": "1/2", "values": ["1", "0"]}
    # same numerators over different denominators: different sequences
    halves, thirds = GridSeq(theta, [Fraction(1, 2), Fraction(3, 2)]), GridSeq(theta, [Fraction(1, 3), 1])
    assert halves.num == thirds.num == (1, 3) and (halves.den, thirds.den) == (2, 3)
    assert halves != thirds and not halves == thirds and not space.eq(halves, thirds)


@pytest.mark.parametrize("theta", [0, Fraction(0), -1, Fraction(-1, 2)])
def test_grid_rejects_nonpositive_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        GridSeq(theta, [1, 2])
    with pytest.raises(ValueError, match="theta"):
        GridSpace(theta, 4)


def test_grid_spacing_mismatch():
    a, b = GridSeq(Fraction(1), [1]), GridSeq(Fraction(2), [1])
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="grid spacing mismatch"):
            getattr(a, op)(b)
    # equality tells the grids apart, as the hash does
    assert a != b and not a == b
    assert GridSeq(Fraction(1, 2), [1]) != GridSeq(Fraction(1, 3), [1])
    assert GridSeq(Fraction(1), []) != GridSeq(Fraction(2), [])
    # equal spacings held in distinct Fractions are one grid: shapes compare by value
    h1, h2 = Fraction(1, 2), Fraction(2, 4)
    assert h1 is not h2
    x, y = GridSeq(h1, [1, 2]), GridSeq(h2, [1, 2, 0])
    assert x == y and y == x and hash(x) == hash(y)
    assert x + y == x.scale(2) and (x - y).is_zero() and x * y == GridSeq(h2, [1, 4])


# -- Poly -----------------------------------------------------------------------


def _naive_poly_mul(base, xs, ys):
    """Every coefficient pair, zeros included, added into a zero start."""
    out = [base.zero() for _ in range(len(xs) + len(ys) - 1)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return out


# over 1x1, 2x2 and 3x3 matrix coefficients: the 2x2 case keeps its old id
POLY_BASES_ALL = [RATIONALS, MatrixSpace(1), MatrixSpace(2), MatrixSpace(3)]
POLY_IDS_ALL = ["rationals", "matrices1", "matrices", "matrices3"]


@pytest.mark.parametrize("base", POLY_BASES_ALL, ids=POLY_IDS_ALL)
def test_poly_mul_matches_naive_double_sum(base):
    rng = random.Random(17)

    def coeff():
        if base is RATIONALS:
            return _rational(rng)
        return RatMatrix(_ref_matrix(rng, base.n))

    cases = [([], [base.one()]), ([base.one()], [])]
    for _ in range(60):
        cases.append(([coeff() for _ in range(rng.randint(1, 5))], [coeff() for _ in range(rng.randint(1, 5))]))
    if base is not RATIONALS and base.n > 1:
        # zero divisors: the top coefficient E12 @ E12 vanishes
        e12 = _unit(base.n, 1, 2)
        cases.append(([base.one(), e12], [base.zero(), base.one(), e12]))
    for xs, ys in cases:
        got = Poly(base, xs) * Poly(base, ys)
        assert got.coeffs == Poly(base, _naive_poly_mul(base, xs, ys)).coeffs
        assert got.degree <= max(len(xs) + len(ys) - 2, -1)


POLY_BASES = [RATIONALS, MatrixSpace(2)]


def _width(base) -> int:
    return 1 if base is RATIONALS else base.n * base.n


def _ref_block(rng, base) -> list:
    """One coefficient as a flat row-major list of _width(base) Fractions."""
    return [_rational(rng) for _ in range(_width(base))]


def _ref_trim(ref: list) -> list:
    ref = list(ref)
    while ref and not any(ref[-1]):
        ref.pop()
    return ref


def _ref_poly_add(a: list, b: list, width: int, sign=1) -> list:
    n, zero = max(len(a), len(b)), [Fraction(0)] * width
    a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
    return [[x + sign * y for x, y in zip(p, q)] for p, q in zip(a, b)]


def _rows(x: list) -> list:
    """A flat row-major block of n*n entries as n rows."""
    n = isqrt(len(x))
    return [x[i : i + n] for i in range(0, len(x), n)]


def _ref_block_mul(x: list, y: list) -> list:
    # a scalar times a scalar is the 1x1 matrix product
    return [v for row in _ref_matmul(_rows(x), _rows(y)) for v in row]


def _ref_poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [[Fraction(0)] * len(a[0]) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = [u + v for u, v in zip(out[i + j], _ref_block_mul(x, y))]
    return out


def _ref_poly_integrate(a: list) -> list:
    return [[Fraction(0)] * len(a[0])] + [[x / (k + 1) for x in c] for k, c in enumerate(a)] if a else []


def _ref_poly_eval(a: list, t, b: int) -> list:
    return [sum((c[e] * t**k for k, c in enumerate(a)), Fraction(0)) for e in range(b)]


def _flat(c) -> list:
    return [c] if isinstance(c, Fraction) else [x for row in c.rows for x in row]


def _poly(base, ref: list) -> Poly:
    return Poly(base, [c[0] if base is RATIONALS else RatMatrix(_rows(c)) for c in ref])


def _check_poly(p: Poly, ref: list) -> None:
    _assert_normalised(p)
    b = 1 if p.n == 0 else p.n * p.n
    ref = _ref_trim(ref)
    assert len(p.num) == b * len(ref)
    assert not p.num or any(p.num[-b:])  # no trailing zero block
    assert [_flat(c) for c in p.coeffs] == ref
    assert p.degree == len(ref) - 1 and p.is_zero() == (not ref)


@pytest.mark.parametrize("base", POLY_BASES_ALL, ids=POLY_IDS_ALL)
def test_poly_ops_match_fraction_reference(base):
    rng = random.Random(31)
    b = _width(base)
    one = [Fraction(int(k % (isqrt(b) + 1) == 0)) for k in range(b)]
    e12 = [Fraction(int(k == 1)) for k in range(b)]
    cases = [([], []), ([], [one]), ([one, e12], [[Fraction(0)] * b, one, e12])]  # top E12 @ E12 = 0
    for _ in range(60):
        ra = [_ref_block(rng, base) for _ in range(rng.randint(0, 5))]
        rb = [_ref_block(rng, base) for _ in range(rng.randint(0, 5))]
        if ra and rng.random() < 0.3:  # opposite tops: a + b drops at least one degree
            rb = [_ref_block(rng, base) for _ in range(len(ra) - 1)] + [[-x for x in ra[-1]]]
        cases.append((ra, rb))
    for ra, rb in cases:
        a, c = _poly(base, ra), _poly(base, rb)
        _check_poly(a, ra)
        _check_poly(a + c, _ref_poly_add(ra, rb, b))
        _check_poly(a - c, _ref_poly_add(ra, rb, b, -1))
        _check_poly(a - a, [])
        _check_poly(-a, [[-x for x in blk] for blk in ra])
        for s in SCALES:
            _check_poly(a.scale(s), [[s * x for x in blk] for blk in ra])
        _check_poly(a * c, _ref_poly_mul(ra, rb))
        _check_poly(c * a, _ref_poly_mul(rb, ra))
        _check_poly(a.integrate(), _ref_poly_integrate(ra))
        for t in (0, 1, Fraction(-2, 3), Fraction(5, 7)):
            assert _flat(a.eval_at(t)) == _ref_poly_eval(ra, t, b)
        assert (a == c) == (_ref_trim(ra) == _ref_trim(rb))
        assert (a + c) - c == a and a.scale(Fraction(3, 7)).scale(Fraction(7, 3)) == a
        assert Poly(base, a.coeffs) == a and a == _poly(base, ra + [[Fraction(0)] * b])


def test_poly_coefficient_space_mismatch():
    # block size 1 for both the rationals and 1 x 1 matrices: shapes, not sizes, must agree
    polys = [Poly(RATIONALS, [1, Fraction(1, 2)]), Poly(MatrixSpace(1), [RatMatrix([[1]])])]
    polys += [Poly(MatrixSpace(n), [RatMatrix.identity(n)]) for n in (2, 3)]
    for p in polys:
        for q in polys:
            if p is q:
                continue
            for op in ("__add__", "__sub__", "__mul__"):
                with pytest.raises(ValueError, match="coefficient space mismatch"):
                    getattr(p, op)(q)
            assert p != q and not (p == q)
    # every matrix_poly_rb() builds its own MatrixSpace(2): equal shapes still mix
    p, q = Poly(MatrixSpace(2), [RatMatrix.identity(2)]), Poly(MatrixSpace(2), [RatMatrix.identity(2)])
    assert p == q and (p + q) == p.scale(2) and p * q == p
    with pytest.raises(ValueError, match="coefficient space mismatch"):
        Poly(MatrixSpace(2), [RatMatrix.identity(3)])
    # a matrix polynomial is not a matrix coefficient, though its blocks have the right size
    with pytest.raises(ValueError, match="coefficient space mismatch"):
        Poly(MatrixSpace(2), [Poly(MatrixSpace(2), [RatMatrix.identity(2)] * 2)])
    for base in (GridSpace(Fraction(1), 3), LinCombSpace(), PolySpace(), CoeffSpace()):
        with pytest.raises(TypeError):
            PolySpace(base)
        with pytest.raises(TypeError):
            Poly(base)


def test_carriers_of_different_types_never_combine():
    m2 = MatrixSpace(2)
    matrix = RatMatrix([[1, 2], [3, 4]])
    # a matrix polynomial of the matrix's own size: equal shapes, different carriers
    matrix_poly = Poly(m2, [RatMatrix.identity(2), RatMatrix([[7, 7], [7, 7]])])
    carriers = [matrix, GridSeq(Fraction(1), [1, 2, 3, 4]), Poly(RATIONALS, [1, 2]), matrix_poly]
    for x, y in permutations(carriers, 2):
        assert x != y and not x == y
        for op in (operator.add, operator.sub, operator.mul, operator.matmul):
            if type(x) is type(y) and op is not operator.matmul:
                with pytest.raises(ValueError, match="coefficient space mismatch"):
                    op(x, y)
            else:
                with pytest.raises(TypeError):
                    op(x, y)


# -- LinComb ----------------------------------------------------------------------

TREES = trees_of_degree(1) + trees_of_degree(2) + trees_of_degree(3)
# ode words (word, power): the bracket [I(x), y] has constants 1/(p+1)
WORDS = [((k,), k) for k in range(3)] + [((j, k), j + k + 1) for j in range(2) for k in range(2)]


def _ref_comb(rng, basis) -> dict:
    """basis -> nonzero Fraction, sometimes empty, over mixed denominators."""
    ref: dict = {}
    for _ in range(rng.randint(0, 5)):
        b = rng.choice(basis)
        ref[b] = ref.get(b, Fraction(0)) + _rational(rng)
    return {b: v for b, v in ref.items() if v}


def _ref_sum(*pairs) -> dict:
    """sum of c * ref over (rational c, basis -> Fraction dict) pairs."""
    out: dict = {}
    for c, ref in pairs:
        for b, v in ref.items():
            out[b] = out.get(b, Fraction(0)) + c * v
    return {b: v for b, v in out.items() if v}


def _ref_bilinear(f, x: dict, y: dict) -> dict:
    return _ref_sum(*((cx * cy, f(bx, by)) for bx, cx in x.items() for by, cy in y.items()))


def _ref_star(s: PBT, t: PBT) -> dict:
    """The module formulas of ``pbt``, recursive and uncached: the leaf is the
    unit of *, s prec t = s_l v (s_r * t) and s succ t = (s * t_l) v t_r."""
    if s is LEAF:
        return {t: Fraction(1)}
    if t is LEAF:
        return {s: Fraction(1)}
    return _ref_sum((1, _ref_prec(s, t)), (1, _ref_succ(s, t)))


def _ref_prec(s: PBT, t: PBT) -> dict:
    return {PBT(s.left, w): c for w, c in _ref_star(s.right, t).items()}


def _ref_succ(s: PBT, t: PBT) -> dict:
    return {PBT(w, t.right): c for w, c in _ref_star(s, t.left).items()}


def _ref_rhd(s: PBT, t: PBT) -> dict:
    return _ref_sum((1, _ref_succ(s, t)), (-1, _ref_prec(t, s)))


def _ref_lhd(s: PBT, t: PBT) -> dict:
    return _ref_sum((1, _ref_prec(s, t)), (-1, _ref_succ(t, s)))


def _ref_bracket(x, y) -> dict:
    (wx, px), (wy, py) = x, y
    c, p = Fraction(1, px + 1), px + 1 + py
    return _ref_sum((c, {(wx + wy, p): Fraction(1)}), (-c, {(wy + wx, p): Fraction(1)}))


def _check_comb(x: LinComb, ref: dict) -> None:
    _assert_normalised(x)
    assert all(x.num.values())
    assert x.terms == ref
    assert x.is_zero() == (not ref) and x.support_count() == len(ref)


def _check_hashes(results) -> None:
    for x in results:
        for y in results:
            if x == y:
                assert hash(x) == hash(y)


def test_lincomb_ops_match_fraction_reference():
    rng = random.Random(23)
    bracket = bilinear(_integral_bracket)
    dend = free_dendriform()
    products = [
        (TREES, dend.prec, _ref_prec),
        (TREES, dend.succ, _ref_succ),
        (WORDS, bracket, _ref_bracket),
    ]
    for i in range(240):
        basis, prod, ref_prod = products[i % 3]
        ra, rb = _ref_comb(rng, basis), _ref_comb(rng, basis)
        if rng.random() < 0.3:  # b cancels all of a except part of b
            rb = _ref_sum((-1, ra), (1, {k: v for k, v in rb.items() if rng.random() < 0.5}))
        a, b = LinComb(ra), LinComb(rb)
        results = [a, b, a + b, a - b, -a, a - a, prod(a, b), prod(b, a), (a + b) - b, LinComb(a.terms)]
        _check_comb(a, ra)
        _check_comb(a + b, _ref_sum((1, ra), (1, rb)))
        _check_comb(a - b, _ref_sum((1, ra), (-1, rb)))
        _check_comb(-a, _ref_sum((-1, ra)))
        _check_comb(a - a, {})
        for c in SCALES:
            results.append(a.scale(c))
            _check_comb(results[-1], _ref_sum((c, ra)))
        _check_comb(prod(a, b), _ref_bilinear(ref_prod, ra, rb))
        _check_comb(prod(b, a), _ref_bilinear(ref_prod, rb, ra))
        assert (a + b) - b == a and LinComb(a.terms) == a
        assert a.scale(Fraction(3, 7)).scale(Fraction(7, 3)) == a
        _check_hashes(results)


def test_free_products_match_recursive_reference():
    # every basis pair up to total degree 7, against the uncached module formulas
    dend = free_dendriform()
    products = [
        (dend.prec, _ref_prec),
        (dend.succ, _ref_succ),
        (dend.star, _ref_star),
        (dend.rhd, _ref_rhd),
        (dend.lhd, _ref_lhd),
    ]
    pairs = 0
    for i in range(1, 7):
        for j in range(1, 8 - i):
            for s in trees_of_degree(i):
                for t in trees_of_degree(j):
                    pairs += 1
                    for prod, ref in products:
                        _check_comb(prod(LinComb.single(s), LinComb.single(t)), ref(s, t))
    assert pairs == 804  # sum over n = 2..7 of C_(n+1) - 2 C_n


def test_sparse_free_products_match_reference():
    # products of single trees reach few trees of degree 10 or 14, so they sum
    # over positions without listing the degree
    rng = random.Random(11)
    dend = free_dendriform()
    products = [(dend.prec, _ref_prec), (dend.succ, _ref_succ), (dend.star, _ref_star), (dend.rhd, _ref_rhd)]
    for n in (10, 14):
        for _ in range(6):
            i = rng.randint(1, 3)
            s, t = rng.choice(trees_of_degree(i)), _tree_at(n - i, rng.randrange(_catalan(n - i)))
            assert isinstance(_sums([(LinComb.single(s), LinComb.single(t))])[1][n], dict)
            for prod, ref in products:
                _check_comb(prod(LinComb.single(s), LinComb.single(t)), ref(s, t))


def test_free_product_sums_follow_the_pair_bound():
    # a pair of trees of degrees i, j reaches at most C(i+j, i) trees: a list
    # over the degree where the pairs can reach all C_n of them, a dict below
    dend = free_dendriform()
    products = [(dend.prec, _ref_prec), (dend.succ, _ref_succ), (dend.star, _ref_star), (dend.rhd, _ref_rhd)]
    dense = LinComb([(t, k + 1) for k, t in enumerate(trees_of_degree(3))])
    single = LinComb.single(trees_of_degree(3)[2])
    for i in range(1, 8):
        for j in range(1, 9 - i):
            assert max(len(dend._row(s, t)) for s in trees_of_degree(i) for t in trees_of_degree(j)) <= comb(i + j, i)
    # 5 * 5 * C(6, 3) = 500 >= C_6 = 132 > 5 * 1 * C(6, 3) = 100
    for a, b, listed in [(dense, dense, True), (dense, single, False), (single, single, False)]:
        assert isinstance(_sums([(a, b)])[1][6], list) is listed
        for prod, ref in products:
            _check_comb(prod(a, b), _ref_bilinear(ref, a.terms, b.terms))
    # the bound adds up over the pairs of one sum: 2 * 100 >= 132
    assert isinstance(_sums([(dense, single)] * 2)[1][6], list)


def _kernel_pairs() -> list:
    """Four operand pairs over distinct denominators: their products sum into a
    list at degree 6 (5 * 5 * C(6, 3) + 20 + 20 >= C_6 = 132) and into a dict
    at degree 7 (C(7, 1) = 7 < C_7 = 429)."""
    threes, sixes = trees_of_degree(3), trees_of_degree(6)
    return [
        (LinComb([(t, Fraction(k + 1, 3)) for k, t in enumerate(threes)]), LinComb([(t, Fraction(1 - k, 5)) for k, t in enumerate(threes)])),
        (LinComb.single(threes[1], Fraction(-2, 7)), LinComb.single(threes[4], Fraction(3, 11))),
        (LinComb.single(trees_of_degree(1)[0], Fraction(5, 13)), LinComb.single(sixes[17], Fraction(-1, 2))),
        (LinComb.single(threes[3], Fraction(4, 17)), LinComb.single(threes[0], Fraction(1, 19))),
    ]


def test_free_kernel_table_sums_match_reference():
    # each product of a fresh instance sums a list of pairs through its space's
    # kernel table; an op outside the table sums its products one by one
    dend = FreeDendriform()
    space = dend.space
    pairs = _kernel_pairs()
    sums = _sums(pairs)[1]
    assert sorted(sums) == [6, 7] and isinstance(sums[6], list) and isinstance(sums[7], dict)
    products = [(dend.star, _ref_star), (dend.prec, _ref_prec), (dend.succ, _ref_succ), (dend.rhd, _ref_rhd), (dend.lhd, _ref_lhd)]
    for op, ref in products:
        assert op in space.kernels
        _check_comb(space.sum_products(op, pairs), _ref_sum(*((1, _ref_bilinear(ref, a.terms, b.terms)) for a, b in pairs)))
    swapped_star = lambda a, b: dend.star(b, a)
    assert swapped_star not in space.kernels
    _check_comb(space.sum_products(swapped_star, pairs), _ref_sum(*((1, _ref_bilinear(_ref_star, b.terms, a.terms)) for a, b in pairs)))


def test_kernel_tables_belong_to_one_instance(monkeypatch):
    # the class default is empty and read-only; another instance's bound methods,
    # or a method wrapped after the instance was built, miss the table and take
    # the default path to the same sum
    with pytest.raises(TypeError):
        CoeffSpace.kernels[RATIONALS.mul] = RATIONALS.sum
    assert not LinCombSpace().kernels and not RATIONALS.kernels
    dend, other = FreeDendriform(), FreeDendriform()
    pairs = _kernel_pairs()
    for name in ("star", "prec", "succ", "rhd", "lhd"):
        op, foreign = getattr(dend, name), getattr(other, name)
        assert op == getattr(dend, name) and op != foreign and foreign not in dend.space.kernels
        assert dend.space.sum_products(foreign, pairs) == dend.space.sum_products(op, pairs)
    calls = []

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    original = FreeDendriform.prec
    want = dend.space.sum_products(dend.prec, pairs)
    monkeypatch.setattr(FreeDendriform, "prec", counted)
    assert dend.prec not in dend.space.kernels
    assert dend.space.sum_products(dend.prec, pairs) == want and calls == pairs


@pytest.mark.parametrize("model", ["free", "matrix_poly"])
def test_unital_kernel_table_sums_match_single_products(model):
    # the unital space sums its star and both half-products through _unital_sum,
    # with the unit terms added outside the carrier kernel
    rng = random.Random(31)
    dend = FreeDendriform() if model == "free" else matrix_poly_rb().dendriform()
    usp, sample = dend.unital_space, lambda: dend.sample(rng)
    assert set(usp.kernels) == {usp.mul, dend.half_prec, dend.half_succ}
    unit = lambda c, v: UnitalDendElem(Fraction(c), v)
    zero = dend.space.zero()
    half_pairs = [
        (unit(1, sample()), unit(0, sample())),
        (unit(0, sample()), unit(-3, sample())),
        (unit(Fraction(2, 5), sample()), unit(0, sample())),
        (unit(0, sample()), unit(0, sample())),
        (unit(Fraction(1, 3), zero), unit(0, sample())),
        (unit(0, sample()), unit(7, zero)),
    ]
    star_pairs = half_pairs + [(unit(2, sample()), unit(Fraction(-1, 2), sample())), (unit(3, zero), unit(5, zero))]
    for op, pairs in ((usp.mul, star_pairs), (dend.half_prec, half_pairs), (dend.half_succ, half_pairs)):
        assert usp.eq(usp.sum_products(op, pairs), usp.sum([op(x, y) for x, y in pairs]))


def test_eval_combo_matches_fraction_reference():
    rng = random.Random(29)
    rooted = rooted_ops()
    models = [
        (rooted.generator(), rooted.rhd, lambda s, t: _graft_basis(s, t).terms),
        # a generator with mixed denominators under a product with constants 1/(p+1)
        (LinComb({w: Fraction(1 - 2 * k, k + 2) for k, w in enumerate(WORDS[:3])}), bilinear(_integral_bracket), _ref_bracket),
    ]
    exprs = [e for n in range(1, 5) for e in _expressions_of_degree(n)]
    for gen, rhd, ref_rhd in models:

        def ref_eval(e):
            return gen.terms if e.is_gen else _ref_bilinear(ref_rhd, ref_eval(e.left), ref_eval(e.right))

        for _ in range(40):
            ref = _ref_comb(rng, exprs)
            got = eval_combo(LinComb(ref), gen, rhd)
            _check_comb(got, _ref_sum(*((c, ref_eval(e)) for e, c in ref.items())))
        # terms that cancel between monomials, and the zero combination
        two, three = _expressions_of_degree(2)[0], _expressions_of_degree(3)
        _check_comb(eval_combo(LinComb.zero(), gen, rhd), {})
        relation = LinComb([(three[0], 1), (three[1], -1)])
        _check_comb(eval_combo(relation, gen, rhd), _ref_sum((1, ref_eval(three[0])), (-1, ref_eval(three[1]))))
        _check_comb(eval_combo(LinComb([(two, Fraction(1, 6))]), gen, rhd), _ref_sum((Fraction(1, 6), ref_eval(two))))


def test_lincomb_zero_and_constructor_normalise():
    s, t = trees_of_degree(2)
    zeros = [
        LinComb(),
        LinComb.zero(),
        LinComb({s: 0}),
        LinComb([(s, Fraction(1, 3)), (s, Fraction(-1, 3))]),
        LinComb.single(t, 0),
        LinComb.single(t, Fraction(5, 6)).scale(0),
        LinCombSpace().zero(),
    ]
    for z in zeros:
        _check_comb(z, {})
        assert z == LinComb.zero() and hash(z) == hash(LinComb.zero())
    half = LinComb([(s, Fraction(1, 4)), (t, Fraction(1, 6)), (s, Fraction(1, 4))])
    assert (half.num, half.den) == ({s: 3, t: 1}, 6)
    assert LinComb.single(s, Fraction(-2, 4)).terms == {s: Fraction(-1, 2)}
    assert LinComb.single(s, Fraction(-2, 4)).coeff(t) == 0


def test_carrier_arithmetic_builds_no_fraction():
    # Fraction appears only at the boundary: every operation below runs on ints
    rng = random.Random(5)
    a, b = RatMatrix(_ref_matrix(rng, 3)), RatMatrix(_ref_matrix(rng, 3))
    theta = Fraction(2, 3)
    f, g = GridSeq(theta, [_rational(rng) for _ in range(6)]), GridSeq(theta, [_rational(rng) for _ in range(4)])
    msp, gsp = MatrixSpace(3), GridSpace(theta, 6)
    c = Fraction(-3, 7)
    x1 = LinComb({TREES[0]: Fraction(2, 35), TREES[1]: Fraction(-3, 4), TREES[5]: 1})
    x2 = LinComb({TREES[0]: Fraction(-9, 4), TREES[2]: Fraction(5, 6), TREES[7]: 3})
    w1 = LinComb({w: Fraction(1 - 2 * k, k + 2) for k, w in enumerate(WORDS)})
    w2 = LinComb({w: Fraction(k + 1, 3) for k, w in enumerate(WORDS[2:])})
    exprs = _expressions_of_degree(3) + _expressions_of_degree(4)
    combo = LinComb({e: Fraction(k - 3, k % 4 + 1) for k, e in enumerate(exprs)})
    dend, lsp, bracket = free_dendriform(), LinCombSpace(), bilinear(_integral_bracket)
    polys_in = []
    for base in POLY_BASES:
        p1 = _poly(base, [_ref_block(rng, base) for _ in range(4)] + [[Fraction(1, 6)] * _width(base)])
        p2 = _poly(base, [_ref_block(rng, base) for _ in range(3)] + [[Fraction(-5, 4)] * _width(base)])
        polys_in += [(p1, p2, PolySpace(base)), (p2, p1, PolySpace(base))]
    (p1r, _, _), _, (p1m, _, _), _ = polys_in
    p0 = Poly(MatrixSpace(2))
    int_rows, mixed_rows = [[1, -2], [0, 7]], [[Fraction(1, 6), -2], [Fraction(-3, 4), 0]]
    made = []
    original = vars(Fraction)["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        results = []
        results += [RatMatrix(int_rows), RatMatrix(mixed_rows)]
        for x, y in ((a, b), (b, a)):
            results += [x + y, x - y, -x, x.scale(c), x.scale(2), x @ y, triangular_project(x)]
            results += [msp.sub(x, y), msp.zero(), msp.one()]
        for x, y in ((f, g), (g, f)):
            results += [x + y, x - y, x * y, -x, x.scale(c), x.sum_incl(), x.sum_strict(), x.tail_sum()]
            results += [x.diff(), x.diff().shift_sum(), gsp.sub(x, y), gsp.zero(), gsp.one()]
        for x, y in ((x1, x2), (x2, x1), (w1, w2)):
            results += [x + y, x - y, -x, x.scale(c), x.scale(2), lsp.sub(x, y), lsp.neg(x), lsp.zero()]
        results += [dend.prec(x1, x2), dend.succ(x2, x1), dend.rhd(x1, x2), bracket(w1, w2), bracket(w2, w1)]
        results += [eval_rooted(combo), eval_planar(combo), eval_combo(combo, w1, bracket)]
        checks = [(x.is_zero(), hash(x), x == x) for x in results]
        scalars = [RATIONALS.zero(), RATIONALS.one()]
        polys = []
        for x, y, psp in polys_in:
            polys += [x + y, x - y, -x, x.scale(c), x.scale(2), x * y, y * x, x.integrate()]
            polys += [psp.sub(x, y), psp.neg(x), psp.zero(), psp.one(), psp.mul(x, y)]
        polys += [p1m.eval_at(c), p1m.eval_at(2), p0.eval_at(c)]
        poly_checks = [(x.is_zero(), x == x) for x in polys]
    finally:
        Fraction.__new__ = original
    assert made == []
    assert [results[0].rows, results[1].rows] == [tuple(map(tuple, rows)) for rows in (int_rows, mixed_rows)]
    assert all(same for _, _, same in checks)
    assert all(same for _, same in poly_checks)
    assert scalars == [0, 1]
    # a scalar polynomial evaluates to a Fraction: exactly one, the result itself
    Fraction.__new__ = staticmethod(counting_new)
    try:
        value = p1r.eval_at(c)
    finally:
        Fraction.__new__ = original
    assert len(made) == 1 and value == sum(x * c**k for k, x in enumerate(p1r.coeffs))


def test_constructors_read_scalars_alike():
    # ints and Fractions are read as they are, anything else through Fraction()
    values, want = [Fraction(1, 6), -2, 0.5, "-3/4"], (Fraction(1, 6), -2, Fraction(1, 2), Fraction(-3, 4))
    assert Poly(RATIONALS, values).coeffs == want
    assert RatMatrix([values[:2], values[2:]]).rows == (want[:2], want[2:])
    assert GridSeq(Fraction(1), values).values == want
    assert LinComb(zip(TREES, values)).terms == dict(zip(TREES, want))


def test_lincomb_rejects_non_lincomb_operands():
    x = LinComb.single(trees_of_degree(1)[0], Fraction(1, 2))
    for op in (lambda: x + 3, lambda: x - 3, lambda: 3 + x, lambda: 3 - x, lambda: x - Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()


# -- samplers ---------------------------------------------------------------------


def _entries(rng, count, span):
    """The sampled entries as the samplers drew them before they built ints directly."""
    return [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 7, 101, 20240501])
def test_seeded_samples_keep_their_values(seed):
    """Same draws in the same order: the same (num, den), and the same rng state after.

    Spans 0, 1, 3, 4 and 1000 give numerator ranges of width 1, 3, 7, 9 and
    2001 for the sampler's getrandbits loop: one-bit words rejected half the
    time, widths one short of a power of two, and an 11-bit width."""
    new, old = random.Random(seed), random.Random(seed)
    theta, m2 = Fraction(1, 3), MatrixSpace(2)
    for _ in range(25):
        for span in (4, 3, 0, 1, 1000):
            pairs = [
                (random_matrix(new, 3, span), RatMatrix([_entries(old, 3, span) for _ in range(3)])),
                (random_gridseq(new, theta, 6, span), GridSeq(theta, _entries(old, 6, span))),
                (random_poly(new, 3, span=span), Poly(RATIONALS, _entries(old, 4, span))),
                (
                    random_poly(new, 1, m2, span),
                    Poly(m2, [RatMatrix([_entries(old, 2, span) for _ in range(2)]) for _ in range(2)]),
                ),
            ]
            for got, want in pairs:
                assert type(got) is type(want) and (got.num, got.den) == (want.num, want.den)
            assert pairs[1][0].theta is theta and pairs[2][0].base is RATIONALS
            assert new.getstate() == old.getstate()
    # the summation tridendriform draws the same values, on its space's own theta
    summation, new, old = SummationTridendriform(), random.Random(seed), random.Random(seed)
    for _ in range(25):
        got, want = summation.sample(new), GridSeq(Fraction(1), _entries(old, summation.length, 4))
        assert got.theta is summation.space.theta and (got.num, got.den) == (want.num, want.den)
    assert new.getstate() == old.getstate()
    with pytest.raises(ValueError, match="empty range"):  # as randint(1, -1) raises, not a draw that never ends
        random_matrix(new, 2, -1)


# -- benchmark tracer targets -------------------------------------------------------


def test_carrier_trace_targets_resolve():
    """The benchmark tracer finds a span target only in its class's own dict, so
    a carrier method inherited from ``DenseRational`` needs an alias there."""
    tracer_file = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    if not tracer_file.is_file():
        pytest.fail(f"bench/tracer.py is missing (looked for {tracer_file}): this test needs the benchmark tracer")
    spec = importlib.util.spec_from_file_location("bench_tracer", tracer_file)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(short, path) for _, short, path, _ in tracer.SPANS] + [(short, path) for _, short, path in tracer.COUNTERS]
    carriers = [(short, path) for short, path in targets if short in ("matrices", "grids", "polys", "lincomb")]
    assert {"RatMatrix.__add__", "RatMatrix.scale", "GridSeq.__add__", "Poly.__add__"} <= {p for _, p in carriers}
    for short, path in carriers:
        assert tracer._lookup(short, path) is not None, f"{short}.{path}"
