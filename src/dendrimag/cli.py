"""Command-line front end.

Subcommands:
  expand  print the free-model Magnus or Fer expansion per degree
  verify  run named exact-verification suites (exit 1 on any hard failure)
  solve   integrate a matrix ODE from a JSON coefficient file, emit CSV
  trees   list the planar-binary-tree basis of a given degree

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
All output is deterministic given the flags and the seed; DENDRIMAG_SEED
overrides the built-in default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .instances import DEFAULT_SEED
from .lincomb import LinComb
from .magnus_fer import METHODS, fer, magnus
from .pbt import ascii_render, free_dendriform, trees_of_degree
from .prelie_expr import formal_ops
from .rooted import rooted_ops
from .suites import SUITES, run_suite

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
VERIFY_FAILURE = 1

# Highest --order for expand, verify and trees, and the package's one order
# bound: every suite checks its instances at exactly --order.  On a 2-CPU Xeon
# with Python 3.11, three runs each: `verify --suite all` takes 1.4 s at order 5
# and 1.7-1.8 s at order 8 in a fresh process (0.1 s of it start-up and
# import); run in one process, the suites take 2.2-2.5 s at order 9 (27 MB peak
# RSS) and 4.4-4.7 s at order 10 (57 MB), 2.8-3.0 s of it in magnus and fer.
# The host's speed drifts by up to 1.7x from run to run.
MAX_ORDER = 8

# solve input bounds.  The reference solution runs REFERENCE_REFINEMENT x
# max(--steps) steps and holds only one batch of step matrices at a time, so
# the joint bound on its matrix entries limits its time, not its memory; the
# weight tables grow about as (degree + 1)^3.
MAX_STEPS = 4096
MAX_N = 64
MAX_DEGREE = 8
MAX_REFERENCE_ENTRIES = 1 << 22  # REFERENCE_REFINEMENT * max(--steps) * n * n


def _default_seed() -> int:
    env = os.environ.get("DENDRIMAG_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DENDRIMAG_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrimag",
        description="Exact Magnus/Fer expansions in dendriform algebras, "
        "Rota-Baxter identity suites, and a float Magnus/Fer ODE integrator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the free-model expansion per degree")
    p.add_argument("kind", choices=("magnus", "fer"))
    p.add_argument("--order", type=int, default=4, help=f"highest degree, 1..{MAX_ORDER}")
    p.add_argument("--basis", choices=("prelie", "rooted", "planar"), default="prelie")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run exact verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--order", type=int, default=5, help=f"truncation order for the suites, 1..{MAX_ORDER}")
    p.add_argument("--seed", type=int, default=None, help="sample seed (default: fixed constant)")

    p = sub.add_parser("solve", help="integrate x' = A(t) x and emit a convergence CSV")
    p.add_argument("--matrix", required=True, help="JSON file with n, degree, coeffs")
    p.add_argument("--t-final", type=float, default=1.0, dest="t_final")
    p.add_argument("--steps", default="8,16,32,64,128", help="comma-separated step counts")
    p.add_argument("--method", choices=METHODS, default="magnus4")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")

    p = sub.add_parser("trees", help="list the planar binary trees of one degree")
    p.add_argument("--order", type=int, required=True, help=f"tree degree, 0..{MAX_ORDER}")
    p.add_argument("--render", choices=("strings", "ascii"), default="strings")
    return parser


# The pre-Lie ops bundle that each --basis computes in.
_BASIS_OPS = {"prelie": formal_ops, "rooted": rooted_ops, "planar": free_dendriform}


def _expansion_components(kind: str, order: int, basis: str) -> list[tuple[str, dict[int, LinComb]]]:
    """Magnus or Fer coefficients per degree, computed in the target model.

    Both recursions use rhd alone, and evaluating a formal pre-Lie expression
    in a model sends formal rhd to the model's rhd, so running them on the
    model's ops equals evaluating the formal coefficients there.  A Fer
    block lists only the degrees whose coefficient is nonzero in the model.
    """
    ops = _BASIS_OPS[basis]()
    if kind == "magnus":
        series = magnus(ops, ops.generator(), order)
        return [("magnus", {n: series.coeff(n) for n in range(1, order + 1)})]
    blocks: list[tuple[str, dict[int, LinComb]]] = []
    for idx, factor in enumerate(fer(ops, ops.generator(), order)):
        comps = {n: factor.coeff(n) for n in range(1, order + 1) if not factor.coeff(n).is_zero()}
        blocks.append((f"U_{idx}", comps))
    return blocks


def cmd_expand(args) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        print(f"expand: --order must be in 1..{MAX_ORDER}, got {args.order}", file=sys.stderr)
        return USAGE_ERROR
    blocks = _expansion_components(args.kind, args.order, args.basis)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "order": args.order,
            "basis": args.basis,
            "blocks": [
                {"name": name, "components": {str(n): c.to_json() for n, c in comps.items()}}
                for name, comps in blocks
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, comps in blocks:
        print(f"{name} (basis: {args.basis}, through degree {args.order})")
        if not comps:
            print("  (zero through this order)")
        for n in sorted(comps):
            print(f"  deg {n}: {comps[n]}")
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        print(f"verify: --order must be in 1..{MAX_ORDER}, got {args.order}", file=sys.stderr)
        return USAGE_ERROR
    try:
        seed = args.seed if args.seed is not None else _default_seed()
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return USAGE_ERROR
    reports = run_suite(args.suite, args.order, seed)
    hard = informational = failures = 0
    for rep in reports:
        print(rep.summary())
        for check in rep.checks:
            if check.informational:
                informational += 1
            else:
                hard += 1
                if not check.ok:
                    failures += 1
    print(
        f"suite '{args.suite}' at order {args.order}, seed {seed}: "
        f"{hard - failures}/{hard} hard checks passed, {informational} informational"
    )
    return 0 if failures == 0 else VERIFY_FAILURE


def _load_matrix_poly(path: str):
    """The validated ``ode.FloatMatrixPoly`` of a JSON matrix file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read matrix file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("matrix file: top level must be an object")
    for field in ("n", "degree", "coeffs"):
        if field not in data:
            raise ValueError(f"matrix file: missing field '{field}'")
    n, degree, coeffs = data["n"], data["degree"], data["coeffs"]
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"matrix file: field 'n' must be an integer in 1..{MAX_N}, got {n!r}")
    if type(degree) is not int or not 0 <= degree <= MAX_DEGREE:
        raise ValueError(
            f"matrix file: field 'degree' must be an integer in 0..{MAX_DEGREE}, got {degree!r}"
        )
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise ValueError(
            f"matrix file: field 'coeffs' must list degree+1 = {degree + 1} matrices"
        )
    mats = []
    for j, flat in enumerate(coeffs):
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ValueError(
                f"matrix file: coeffs[{j}] must be a flat row-major list of {n * n} numbers"
            )
        # JSON numbers only: float() would also parse strings, and bool is an int
        if not all(type(x) in (int, float) for x in flat):
            raise ValueError(f"matrix file: coeffs[{j}] contains a non-numeric entry")
        try:
            vals = [float(x) for x in flat]
        except OverflowError as exc:  # an integer literal beyond the float range
            raise ValueError(f"matrix file: coeffs[{j}] contains a non-finite entry") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"matrix file: coeffs[{j}] contains a non-finite entry")
        mats.append([vals[i * n : (i + 1) * n] for i in range(n)])
    from . import ode

    return ode.FloatMatrixPoly(mats)


def cmd_solve(args) -> int:
    from . import ode  # numpy loads only when solve runs

    try:
        a = _load_matrix_poly(args.matrix)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        counts = sorted({int(s) for s in args.steps.split(",") if s.strip()})
        if not counts or any(c < 1 for c in counts):
            raise ValueError
    except ValueError:
        print(f"solve: --steps must be positive integers, got {args.steps!r}", file=sys.stderr)
        return USAGE_ERROR
    if counts[-1] > MAX_STEPS:
        print(f"solve: --steps entries must be <= {MAX_STEPS}, got {counts[-1]}", file=sys.stderr)
        return USAGE_ERROR
    if ode.REFERENCE_REFINEMENT * counts[-1] * a.n * a.n > MAX_REFERENCE_ENTRIES:
        print(
            f"solve: --steps {counts[-1]} with n = {a.n} is too large: the reference needs "
            f"{ode.REFERENCE_REFINEMENT} * steps * n * n <= {MAX_REFERENCE_ENTRIES} matrix entries",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if not (math.isfinite(args.t_final) and args.t_final > 0):
        print(f"solve: --t-final must be positive and finite, got {args.t_final}", file=sys.stderr)
        return USAGE_ERROR

    try:
        rows, final = ode.convergence_sweep(a, args.t_final, args.method, counts)
    except ode.NonFinite as exc:
        print(f"solve: integration overflowed: {exc}", file=sys.stderr)
        return USAGE_ERROR
    csv_text = ode.rows_to_csv(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"solve: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(csv_text)

    try:
        slope = ode.fit_slope(rows)
    except ValueError:  # fewer than 4 step counts, or errors at machine precision
        slope = None
    summary = {
        "method": args.method,
        "t_final": args.t_final,
        "steps": counts[-1],
        "final": [[float(x) for x in row] for row in final],
        "slope": slope,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_trees(args) -> int:
    if not 0 <= args.order <= MAX_ORDER:
        print(f"trees: --order must be in 0..{MAX_ORDER}, got {args.order}", file=sys.stderr)
        return USAGE_ERROR
    basis = trees_of_degree(args.order)
    print(f"{len(basis)} planar binary trees of degree {args.order}")
    for t in sorted(basis, key=str):
        print(str(t))
        if args.render == "ascii":
            print(ascii_render(t))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    handlers = {
        "expand": cmd_expand,
        "verify": cmd_verify,
        "solve": cmd_solve,
        "trees": cmd_trees,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
