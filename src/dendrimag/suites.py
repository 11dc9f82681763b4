"""Named verification suites behind ``dendrimag verify``.

Each suite builds the relevant instances, runs the exact checkers and
returns a list of reports.  Hard checks gate the exit code; informational
entries (the degree-5 term-count comparison) are printed but never fail.
Everything is deterministic given (order, seed).

Every series check runs at the order it is given.  Two floors add checks at
low orders: the free-model Fer onsets run at order 8 or more, and the
associative degeneration at order 4 or more.  The suites set no upper bound;
``cli.MAX_ORDER`` bounds the order that comes from outside.  Checks that do
not truncate a series (the axioms, the Rota-Baxter relations, integration by
parts for powers 0..6 and the reduction suite) are the same at every order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import factorial

from .dendriform import (
    Dendriform,
    check_unit_rules,
    dendriform_axioms,
    lift_to_unital,
    prelie_identities,
    remembered,
    sample_tuples,
    solve_left,
    tridendriform_axioms,
)
from .instances import (
    SummationTridendriform,
    assoc_matrix_dendriform,
    grid_rb,
    matrix_poly_rb,
    poly_rb,
    standard_rb_instances,
    summation_rb,
    triangular_rb,
)
from .lincomb import LinComb
from .magnus_fer import (
    beta_integral,
    magnus,
    magnus_free_component,
    power_sum_bridge_check,
    verify_fer,
    verify_magnus,
)
from .pbt import free_dendriform, trees_of_degree
from .polys import ibp_power_holds, random_poly
from .prelie_expr import eval_planar, eval_rooted, monomial_count, rewrite_reduce
from .report import SampledCheck, VerificationReport, run_sampled
from .rooted import rooted_trees_of_degree, rooted_ops
from .rota_baxter import (
    RBTridendriform,
    atkinson_check,
    bch_recursion,
    check_rb_relation,
    classical_magnus_check,
    exp_image_check,
    spitzer_classical_check,
    spitzer_noncommutative_check,
)
from .scalars import rational_str
from .series import TruncatedSeries, series_exp, series_log

SAMPLE_TRIPLES = 200
EXHAUSTIVE_DEGREE = 6


def _basis_triples(basis_of_degree, max_total: int):
    """Every triple of basis elements of degrees >= 1 with total degree <= max_total."""
    for i in range(1, max_total - 1):
        for j in range(1, max_total - i):
            for k in range(1, max_total - i - j + 1):
                for s in basis_of_degree(i):
                    for t in basis_of_degree(j):
                        for u in basis_of_degree(k):
                            yield (LinComb.single(s), LinComb.single(t), LinComb.single(u))


def _lockstep(instance, samples, *checks) -> list[VerificationReport]:
    """Run each check(view) over the samples in lockstep, on one view of the
    instance that remembers its products for one sample."""
    view, memo = remembered(instance)
    return run_sampled(samples, [check(view) for check in checks], memo.clear)


def suite_dendriform(order: int, seed: int) -> list[VerificationReport]:
    reports = _lockstep(
        free_dendriform(),
        _basis_triples(trees_of_degree, EXHAUSTIVE_DEGREE),
        partial(dendriform_axioms, name=f"dendriform axioms [free model, exhaustive degree <= {EXHAUSTIVE_DEGREE}]"),
        partial(prelie_identities, name=f"pre-Lie identities [free model, exhaustive degree <= {EXHAUSTIVE_DEGREE}]"),
    )

    rep = VerificationReport("free pre-Lie model (rooted trees, exhaustive)")
    rhd = rooted_ops().rhd
    left = lambda a, b, c: (rhd(rhd(a, b), c) - rhd(a, rhd(b, c)) == rhd(rhd(b, a), c) - rhd(b, rhd(a, c)),)
    rep.add_sampled(
        _basis_triples(rooted_trees_of_degree, EXHAUSTIVE_DEGREE),
        ["left pre-Lie identity for grafting"],
        left,
        "basis triples",
    )
    deg_ok = all(
        rhd(LinComb.single(s), LinComb.single(t)).sorted_terms()[0][0].degree == s.degree + t.degree
        for s in rooted_trees_of_degree(2)
        for t in rooted_trees_of_degree(3)
    )
    rep.add("grafting is degree-additive", deg_ok)
    reports.append(rep)

    instances = [rb.dendriform() for rb in standard_rb_instances()]
    instances.append(matrix_poly_rb().dendriform())
    instances.append(assoc_matrix_dendriform())
    for idx, dend in enumerate(instances):
        rng = random.Random(seed + idx)
        triples = sample_tuples(dend, rng, SAMPLE_TRIPLES, 3)
        reports.extend(_lockstep(dend, triples, dendriform_axioms, prelie_identities))
        reports.append(check_unit_rules(dend, [dend.sample(rng) for _ in range(20)]))
    return reports


def _collapse(tri) -> SampledCheck:
    # the axioms read the three-term star; only this ties prec + succ to it
    holds = lambda a, b, _: (tri.space.eq(Dendriform.star(tri, a, b), tri.star(a, b)),)
    rep = VerificationReport(f"collapse to dendriform [{tri.name}]")
    return rep, ["dendriform star equals tridendriform star"], holds, "pairs"


def suite_tridendriform(order: int, seed: int) -> list[VerificationReport]:
    reports = []
    summation = SummationTridendriform()
    rb_induced = RBTridendriform(triangular_rb())
    for idx, tri in enumerate((summation, rb_induced)):
        rng = random.Random(seed + idx)
        as_dendriform = partial(dendriform_axioms, name=f"dendriform axioms [{tri.name}-as-dendriform]")
        triples = sample_tuples(tri, rng, SAMPLE_TRIPLES, 3)
        reports.extend(_lockstep(tri, triples, tridendriform_axioms, as_dendriform, _collapse))

    # the summation instance is the Rota-Baxter construction for tail sums
    rep = VerificationReport("summation instance matches its Rota-Baxter form")
    rb_form = RBTridendriform(summation_rb(Fraction(1)))
    same = lambda a, b: (
        all(getattr(summation, op)(a, b) == getattr(rb_form, op)(a, b) for op in ("lt", "gt", "dot")),
    )
    rep.add_sampled(
        sample_tuples(summation, random.Random(seed + 7), 50, 2),
        ["lt/gt/dot coincide with aR(b), R(a)b, theta ab"],
        same,
        "pairs",
    )
    reports.append(rep)
    return reports


def _magnus_coefficient_table() -> VerificationReport:
    """The closed-form low-degree components of the expansion."""
    rep = VerificationReport("low-degree Magnus components (free generator)")
    expected = {
        1: "a",
        2: "-1/2 (a>a)",
        3: "1/4 ((a>a)>a) + 1/12 (a>(a>a))",
        4: "-1/8 (((a>a)>a)>a) - 1/24 ((a>(a>a))>a) - 1/24 ((a>a)>(a>a)) - 1/24 (a>((a>a)>a))",
    }
    for deg, want in expected.items():
        raw, _ = magnus_free_component(deg)
        rep.add(f"degree {deg} component", str(raw) == want, str(raw))
    return rep


def suite_magnus(order: int, seed: int) -> list[VerificationReport]:
    reports = [_magnus_coefficient_table()]
    free = free_dendriform()
    reports.append(verify_magnus(free, free.generator(), order))
    for idx, rb in enumerate([*standard_rb_instances(), matrix_poly_rb()]):
        a = rb.sample(random.Random(seed + idx))
        reports.append(verify_magnus(rb.dendriform(), a, order))

    # associative degeneration: W = -log*(1 - lambda a), X the geometric series
    rep = VerificationReport("associative degeneration (matrix carrier)")
    dend = assoc_matrix_dendriform()
    a = dend.sample(random.Random(seed + 17))
    n = max(order, 4)
    w = lift_to_unital(dend, magnus(dend, a, n))
    usp = dend.unital_space
    one = TruncatedSeries.one(usp, n)
    lam_a = TruncatedSeries.single(usp, n, 1, dend.embed(a))
    log_form = -series_log(one - lam_a)
    rep.add("W = -log*(1 - lambda a)", w == log_form, f"through degree {n}")
    x = solve_left(dend, a, n)
    geo = [usp.one()]
    power = a
    for _ in range(n):
        geo.append(dend.embed(power))
        power = dend.space.mul(power, a)
    rep.add("X is the geometric series of a", x == TruncatedSeries(usp, n, geo[: n + 1]))
    rep.add("exp*(W) = X", series_exp(w) == x)
    reports.append(rep)

    rep = VerificationReport("fixed-point derivation identities (free model)")
    ok = all(
        beta_integral(p, q) == Fraction(factorial(p) * factorial(q), factorial(p + q + 1))
        for p in range(9)
        for q in range(9)
    )
    rep.add("beta integral equals p!q!/(p+q+1)! for p,q <= 8", ok)
    reports.append(rep)
    reports.append(power_sum_bridge_check(free, free.generator(), order, 5))
    return reports


def suite_fer(order: int, seed: int) -> list[VerificationReport]:
    free = free_dendriform()
    onset_order = max(order, 8)  # degree 2^3 is only visible from order 8 up
    reports = [verify_fer(free, free.generator(), onset_order, exact_onsets=True)]
    for idx, rb in enumerate([*standard_rb_instances(), matrix_poly_rb()]):
        a = rb.sample(random.Random(seed + idx))
        reports.append(verify_fer(rb.dendriform(), a, order))
    return reports


def suite_rb(order: int, seed: int) -> list[VerificationReport]:
    reports = []
    instances = [
        triangular_rb(),
        grid_rb(strict=True),
        grid_rb(strict=False),
        summation_rb(),
        poly_rb(),
        matrix_poly_rb(),
    ]
    for idx, rb in enumerate(instances):
        reports.append(check_rb_relation(rb, SAMPLE_TRIPLES, seed + idx))

    rep = VerificationReport("triangular projection")
    tri = triangular_rb()
    rep.add_sampled(
        sample_tuples(tri, random.Random(seed + 31), 50, 1),
        ["idempotent"],
        lambda m: (tri.space.eq(tri.r(tri.r(m)), tri.r(m)),),
        "samples",
    )
    from .matrices import RatMatrix

    example = tri.r(RatMatrix([[1, 2], [3, 4]]))
    rep.add("strictly upper part of [[1,2],[3,4]]", example == RatMatrix([[0, 2], [0, 0]]))
    reports.append(rep)

    rep = VerificationReport("grid difference and summation duality")
    rng = random.Random(seed + 32)
    from .grids import random_gridseq

    theta = Fraction(1, 2)
    pairs = [(random_gridseq(rng, theta, 6), random_gridseq(rng, theta, 6)) for _ in range(100)]
    rule = lambda f, g: ((f * g).diff() == f.diff() * g + f * g.diff() + (f.diff() * g.diff()).scale(theta),)
    rep.add_sampled(pairs, ["d(fg) = d(f)g + f d(g) + theta d(f)d(g)"], rule, "pairs")
    inverse = lambda f, _: (f.diff().shift_sum() == f,)
    rep.add_sampled(pairs, ["S(d(f)) = f on finitely supported f"], inverse, "samples")
    reports.append(rep)

    rep = VerificationReport("iterated integration by parts")
    rng = random.Random(seed + 33)
    for n in range(7):
        rep.add(f"(I(a))^{n} = {n}! nested", ibp_power_holds(random_poly(rng, 3), n))
    reports.append(rep)
    return reports


def suite_spitzer(order: int, seed: int) -> list[VerificationReport]:
    reports = []
    for idx, rb in enumerate((grid_rb(strict=True), grid_rb(strict=False), poly_rb())):
        a = rb.sample(random.Random(seed + idx))
        reports.append(spitzer_classical_check(rb, a, order))
    tri = triangular_rb()
    a = tri.sample(random.Random(seed + 5))
    reports.append(spitzer_noncommutative_check(tri, a, order))
    for w in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
        reports.append(spitzer_noncommutative_check(tri.rescaled(-w), a, order))
    for idx, rb in enumerate((triangular_rb(), poly_rb())):
        a = rb.sample(random.Random(seed + 9 + idx))
        reports.append(exp_image_check(rb, a, order))
    return reports


def suite_atkinson(order: int, seed: int) -> list[VerificationReport]:
    reports = []
    for idx, rb in enumerate((triangular_rb(), grid_rb(strict=True), grid_rb(strict=False))):
        a = rb.sample(random.Random(seed + idx))
        reports.extend(atkinson_check(rb, a, order))
    return reports


def suite_chi(order: int, seed: int) -> list[VerificationReport]:
    reports = []
    tri = triangular_rb()
    rng = random.Random(seed)
    alpha = TruncatedSeries(
        tri.space, order, [tri.space.zero()] + [tri.sample(rng) for _ in range(order)]
    )
    a = tri.sample(rng)
    reports.append(spitzer_noncommutative_check(tri, a, order, alpha=alpha))

    rep = VerificationReport("commutative carrier: chi is the identity")
    g = grid_rb(strict=True)
    g_alpha = TruncatedSeries(g.space, order, [g.space.zero()] + [g.sample(rng) for _ in range(order)])
    rep.add("chi(alpha) = alpha", bch_recursion(g, g_alpha) == g_alpha)
    reports.append(rep)

    p = poly_rb()
    reports.append(classical_magnus_check(p, p.sample(rng), order))
    return reports


def suite_reduction(order: int, seed: int) -> list[VerificationReport]:
    rep = VerificationReport("pre-Lie term reduction in the expansion")
    raw4, rooted4 = magnus_free_component(4)
    rep.add("degree-4 raw component has 4 monomials", monomial_count(raw4) == 4, str(raw4))
    reduced4 = rewrite_reduce(raw4)
    rep.add("degree-4 reduces to 2 monomials", monomial_count(reduced4) == 2, str(reduced4))
    pattern = sorted(abs(c) for c in reduced4.terms.values())
    rep.add(
        "reduced degree-4 coefficient pattern {1/12, 1/6}",
        pattern == [Fraction(1, 12), Fraction(1, 6)],
        "|coeffs| = {" + ", ".join(rational_str(c) for c in pattern) + "}",
    )
    rep.add("reduced degree-4 equals raw in the rooted-tree model", eval_rooted(reduced4) == rooted4)
    rep.add(
        "reduced degree-4 equals raw in the planar model",
        eval_planar(reduced4) == eval_planar(raw4),
    )

    raw5, rooted5 = magnus_free_component(5)
    rep.info("degree-5 raw monomial count (compare: 10)", f"{monomial_count(raw5)}")
    reduced5 = rewrite_reduce(raw5)
    rep.info("degree-5 reduced monomial count (compare: 7)", f"{monomial_count(reduced5)}")
    rep.add("degree-5 reduced equals raw in the rooted-tree model", eval_rooted(reduced5) == rooted5)
    return [rep]


_SUITE_FUNCS = {
    "dendriform": suite_dendriform,
    "tridendriform": suite_tridendriform,
    "magnus": suite_magnus,
    "fer": suite_fer,
    "rb": suite_rb,
    "spitzer": suite_spitzer,
    "atkinson": suite_atkinson,
    "chi": suite_chi,
    "reduction": suite_reduction,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, order: int, seed: int) -> list[VerificationReport]:
    if name == "all":
        return [rep for suite in _SUITE_FUNCS.values() for rep in suite(order, seed)]
    return _SUITE_FUNCS[name](order, seed)
