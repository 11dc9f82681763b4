"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they are also emitted unbuffered so they survive
pytest's capture).  Exact criteria assert zero residuals in rational
arithmetic; the numerical criteria pin the slope windows and tolerances
stated below; timed criteria assert their wall-clock budgets.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from dendrimag import cli
from dendrimag.dendriform import (
    check_dendriform_axioms,
    check_tridendriform_axioms,
    lift_to_unital,
    sample_tuples,
    solve_left,
)
from dendrimag.instances import (
    SummationTridendriform,
    assoc_matrix_dendriform,
    grid_rb,
    poly_rb,
    standard_rb_instances,
    triangular_rb,
)
from dendrimag.grids import random_gridseq
from dendrimag.lincomb import LinComb
from dendrimag.magnus_fer import fer_depth, magnus, magnus_free_component, verify_fer, verify_magnus
from dendrimag.ode import (
    convergence_sweep,
    default_test_problem,
    fit_slope,
    liouville_defect,
    reference_solution,
)
from dendrimag.pbt import free_dendriform, trees_of_degree
from dendrimag.polys import ibp_power_holds, random_poly
from dendrimag.prelie_expr import eval_rooted, monomial_count, rewrite_reduce
from dendrimag.rota_baxter import (
    RBTridendriform,
    atkinson_check,
    spitzer_classical_check,
    spitzer_noncommutative_check,
)
from dendrimag.series import TruncatedSeries, series_exp, series_log

SEED = 20071215
GOLDEN_VERIFY_ALL = Path(__file__).parent / "golden" / "verify_all_order5.txt"
GOLDEN_VERIFY_ALL_ORDER8 = Path(__file__).parent / "golden" / "verify_all_order8.txt"
# stdout of verify --suite S --order 5 --seed 101 for each S below, in order
GOLDEN_EXACT_SEED101 = Path(__file__).parent / "golden" / "verify_exact_order5_seed101.txt"
EXACT_SUITES = ("tridendriform", "rb", "spitzer", "atkinson", "chi")
# stdout of verify --suite S --order 8 --seed 2024 for each S below, in order
GOLDEN_FACTOR_ORDER8_SEED2024 = Path(__file__).parent / "golden" / "verify_factor_order8_seed2024.txt"
FACTOR_SUITES = ("atkinson", "spitzer", "chi")
# stdout of verify --suite S --order 8 --seed 101 for each S below, in order
GOLDEN_MAGNUS_FER_ORDER8_SEED101 = Path(__file__).parent / "golden" / "verify_magnus_fer_order8_seed101.txt"
EXPANSION_SUITES = ("magnus", "fer")
# stdout of verify --suite dendriform --order 5 --seed 101
GOLDEN_DENDRIFORM_SEED101 = Path(__file__).parent / "golden" / "verify_dendriform_order5_seed101.txt"


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:02d}: {label}{extra}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {label}{extra}"


def _basis_triples(max_total: int):
    for i in range(1, max_total - 1):
        for j in range(1, max_total - i):
            for k in range(1, max_total - i - j + 1):
                for s in trees_of_degree(i):
                    for t in trees_of_degree(j):
                        for u in trees_of_degree(k):
                            yield (LinComb.single(s), LinComb.single(t), LinComb.single(u))


def test_criterion_01_dendriform_axioms():
    start = time.monotonic()
    ok = check_dendriform_axioms(free_dendriform(), _basis_triples(6)).ok
    for idx, rb in enumerate(standard_rb_instances()):
        dend = rb.dendriform()
        triples = sample_tuples(dend, random.Random(SEED + idx), 200, 3)
        ok = ok and check_dendriform_axioms(dend, triples).ok
    elapsed = time.monotonic() - start
    _report(
        1,
        "dendriform axioms exact (free exhaustive deg<=6; 200 triples per instance)",
        ok and elapsed <= 60,
        f"{elapsed:.1f}s <= 60s",
    )


def test_criterion_02_tridendriform_axioms():
    ok = True
    for idx, tri in enumerate(
        (SummationTridendriform(), RBTridendriform(triangular_rb()))
    ):
        triples = sample_tuples(tri, random.Random(SEED + 50 + idx), 200, 3)
        ok = ok and check_tridendriform_axioms(tri, triples).ok
    _report(2, "seven tridendriform axioms exact on 200 triples per instance", ok)


def test_criterion_03_magnus_solves_both_equations():
    start = time.monotonic()
    free = free_dendriform()
    ok = verify_magnus(free, free.generator(), 8).ok
    for idx, rb in enumerate(standard_rb_instances()):
        a = rb.sample(random.Random(SEED + 100 + idx))
        ok = ok and verify_magnus(rb.dendriform(), a, 6).ok
    elapsed = time.monotonic() - start
    _report(
        3,
        "exp*(W) = X, exp*(-W) = Y (free deg 8, instances deg 6, both variants)",
        ok and elapsed <= 120,
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_04_expansion_coefficients():
    raw2, _ = magnus_free_component(2)
    raw3, _ = magnus_free_component(3)
    raw4, _ = magnus_free_component(4)
    ok = sorted(raw2.terms.values()) == [Fraction(-1, 2)]
    ok = ok and sorted(raw3.terms.values()) == [Fraction(1, 12), Fraction(1, 4)]
    # the degree-4 grade carries an overall sign in the expansion display
    ok = ok and sorted(abs(c) for c in raw4.terms.values()) == [
        Fraction(1, 24),
        Fraction(1, 24),
        Fraction(1, 24),
        Fraction(1, 8),
    ]
    ok = ok and all(c < 0 for c in raw4.terms.values())
    _report(4, "expansion coefficients -1/2; {1/12, 1/4}; {1/8, 1/24, 1/24, 1/24}", ok)


def test_criterion_05_term_reduction():
    raw4, rooted4 = magnus_free_component(4)
    reduced4 = rewrite_reduce(raw4)
    ok = monomial_count(raw4) == 4 and monomial_count(reduced4) == 2
    ok = ok and sorted(abs(c) for c in reduced4.terms.values()) == [
        Fraction(1, 12),
        Fraction(1, 6),
    ]
    ok = ok and eval_rooted(reduced4) == rooted4
    raw5, rooted5 = magnus_free_component(5)
    reduced5 = rewrite_reduce(raw5)
    ok = ok and eval_rooted(reduced5) == rooted5
    # informational comparison against the reported 10 -> 7 counts
    print(
        f"      degree-5 counts: raw {monomial_count(raw5)} (compare 10), "
        f"reduced {monomial_count(reduced5)} (compare 7)",
        file=sys.__stdout__,
        flush=True,
    )
    _report(5, "degree-4 reduces 4 -> 2 with pattern {1/6, 1/12}, exactly", ok)


def test_criterion_06_fer_product():
    free = free_dendriform()
    a = free.generator()
    rep6 = verify_fer(free, a, 6, exact_onsets=True)
    rep8 = verify_fer(free, a, 8, exact_onsets=True)  # onset 2^3 visible at 8
    ok = rep6.ok and rep8.ok and fer_depth(6) == 3
    _report(6, "Fer ordered products equal X and Y; onsets exactly 2^n", ok)


def test_criterion_07_associative_degeneration():
    dend = assoc_matrix_dendriform(3)
    a = dend.sample(random.Random(SEED + 200))
    order = 8
    w = lift_to_unital(dend, magnus(dend, a, order))
    usp = dend.unital_space
    one = TruncatedSeries.one(usp, order)
    lam_a = TruncatedSeries.single(usp, order, 1, dend.embed(a))
    ok = w == -series_log(one - lam_a)
    x = solve_left(dend, a, order)
    ok = ok and series_exp(w) == x
    power = dend.space.one()
    for n in range(1, order + 1):
        power = dend.space.mul(power, a)
        ok = ok and usp.eq(x.coeff(n), dend.embed(power))
    _report(7, "degeneration: W = -log*(1 - lambda a), X geometric, through deg 8", ok)


def test_criterion_08_classical_spitzer():
    rng = random.Random(SEED + 300)
    strict = grid_rb(strict=True)
    ok = spitzer_classical_check(strict, strict.sample(rng), 6).ok
    poly = poly_rb()
    ok = ok and spitzer_classical_check(poly, poly.sample(rng), 6).ok
    _report(8, "classical Spitzer exact to deg 6; weight-zero degenerate form", ok)


def test_criterion_09_noncommutative_spitzer_bridge():
    rng = random.Random(SEED + 400)
    tri = triangular_rb()
    a = tri.sample(rng)
    ok = spitzer_noncommutative_check(tri, a, 5).ok
    for w in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
        ok = ok and spitzer_noncommutative_check(tri.rescaled(-w), a, 5).ok
    _report(9, "W = chi(alpha); change of variable; factorization; weights -1,1,1/2,1/7", ok)


def test_criterion_10_atkinson():
    rng = random.Random(SEED + 500)
    ok = True
    for rb in (triangular_rb(), grid_rb(strict=True), grid_rb(strict=False)):
        a = rb.sample(rng)
        reports = atkinson_check(rb, a, 6)
        assert [r.name.split(" [")[0] for r in reports] == [
            "Atkinson factorization",
            "factor exponentials",
            "factor products",
        ]
        ok = ok and all(r.ok for r in reports)
    _report(10, "Atkinson triple product, splitting and factor forms deg 6", ok)


def test_criterion_11_grid_and_integration_identities():
    rng = random.Random(SEED + 600)
    theta = Fraction(1, 3)
    ok = True
    for _ in range(100):
        f = random_gridseq(rng, theta, 6)
        g = random_gridseq(rng, theta, 6)
        lhs = (f * g).diff()
        rhs = f.diff() * g + f * g.diff() + (f.diff() * g.diff()).scale(theta)
        ok = ok and lhs == rhs and f.diff().shift_sum() == f
    for n in range(7):
        ok = ok and ibp_power_holds(random_poly(rng, 3), n)
    _report(11, "skew-derivation rule, S(d(f)) = f (100 samples); (I(a))^n nesting n<=6", ok)


def test_criterion_12_convergence_orders():
    start = time.monotonic()
    problem = default_test_problem()
    counts = [8, 16, 32, 64, 128]
    reference = reference_solution(problem, 1.0, counts[-1])
    slopes = {
        m: fit_slope(convergence_sweep(problem, 1.0, m, counts, reference)[0])
        for m in ("magnus2", "fer1", "magnus4", "fer2")
    }
    ok = 1.6 <= slopes["magnus2"] <= 2.4 and 1.6 <= slopes["fer1"] <= 2.4
    ok = ok and 3.6 <= slopes["magnus4"] <= 4.4 and 3.6 <= slopes["fer2"] <= 4.4
    liouville = max(liouville_defect(problem, 1.0, 64, m) for m in slopes)
    ok = ok and liouville <= 1e-8
    elapsed = time.monotonic() - start
    detail = (
        ", ".join(f"{m}={s:.2f}" for m, s in sorted(slopes.items()))
        + f", liouville={liouville:.1e}, {elapsed:.1f}s <= 60s"
    )
    _report(12, "slopes in [1.6,2.4] / [3.6,4.4]; Liouville <= 1e-8", ok and elapsed <= 60, detail)


def test_criterion_13_cli_contract(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DENDRIMAG_SEED", raising=False)
    # usage errors exit 2
    ok = cli.main(["expand", "magnus", "--order", "99"]) == 2
    ok = ok and cli.main(["solve", "--matrix", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # deterministic output under a fixed seed
    code1 = cli.main(["verify", "--suite", "chi", "--order", "3", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "--suite", "chi", "--order", "3", "--seed", "7"])
    out2 = capsys.readouterr().out
    ok = ok and code1 == 0 and code2 == 0 and out1 == out2

    code3 = cli.main(["expand", "magnus", "--order", "4", "--format", "json"])
    out3 = capsys.readouterr().out
    ok = ok and code3 == 0 and json.loads(out3)["blocks"][0]["components"]["2"] == {"(a>a)": "-1/2"}

    # the full suite at the default order finishes within budget, exits 0 and
    # prints exactly the checked-in output
    start = time.monotonic()
    code_all = cli.main(["verify", "--suite", "all", "--order", "5"])
    elapsed = time.monotonic() - start
    out_all = capsys.readouterr().out
    ok = ok and code_all == 0 and elapsed <= 300 and out_all == GOLDEN_VERIFY_ALL.read_text()
    _report(13, "CLI exit codes, determinism, verify all order 5", ok, f"{elapsed:.1f}s <= 300s")


def test_exact_suites_second_seed_match_golden(capsys):
    # a second seed for the dense-carrier suites, captured as the byte-exact
    # output before the carriers moved to integer numerators
    out = []
    for suite in EXACT_SUITES:
        assert cli.main(["verify", "--suite", suite, "--order", "5", "--seed", "101"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN_EXACT_SEED101.read_text()


def test_factorization_suites_order8_third_seed_match_golden(capsys):
    out = []
    for suite in FACTOR_SUITES:
        assert cli.main(["verify", "--suite", suite, "--order", "8", "--seed", "2024"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN_FACTOR_ORDER8_SEED2024.read_text()


def test_expansion_suites_order8_second_seed_match_golden(capsys):
    # pins the ordered Fer and Magnus exponential products off the default seed
    out = []
    for suite in EXPANSION_SUITES:
        assert cli.main(["verify", "--suite", suite, "--order", "8", "--seed", "101"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN_MAGNUS_FER_ORDER8_SEED101.read_text()


def test_dendriform_suite_second_seed_matches_golden(capsys):
    # captured before the suite ran its checkers in lockstep on one product memo
    assert cli.main(["verify", "--suite", "dendriform", "--order", "5", "--seed", "101"]) == 0
    assert capsys.readouterr().out == GOLDEN_DENDRIFORM_SEED101.read_text()


def test_verify_all_order8_matches_golden(capsys, monkeypatch):
    # every instance runs at the requested order, so this pins orders 6 to 8
    monkeypatch.delenv("DENDRIMAG_SEED", raising=False)
    assert cli.main(["verify", "--suite", "all", "--order", "8"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY_ALL_ORDER8.read_text()
