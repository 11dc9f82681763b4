"""Self-tests of the benchmark.

    python3 bench/selftest.py

1. ``BENCHMARK.json`` lists exactly the per-layer metrics the tracer makes.
2. The predicted-zero counts hold on one traced pass of each workload: no
   free-model product on ``exact-instances``, no dense matrix product on
   ``free-expansion``, no exact series or matrix product on ``ode-solve``.
   Each of those counters is non-zero on some workload, and the tracer
   found every function it wraps, so a zero means the layer was not run,
   not that the tracer missed it.
3. A perturbed expected hard-check count and a perturbed float oracle are
   each reported as a failed operation, while the unperturbed ones pass.
4. ``speed.SpeedProbe.scaled`` leaves out probe time and divides each gap
   by its local slowdown, on probes placed by hand.

Takes about a minute; exits 1 if any test fails.
"""

from __future__ import annotations

import json
import sys
import time

import run
import speed
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

PREDICTED_ZERO = {
    "exact-instances": ("pbt.prec.calls", "ode.matrix_exp.calls"),
    "free-expansion": ("matrices.matmul.calls",),
    "ode-solve": ("series.mul.calls", "matrices.matmul.calls"),
}
SEED = 7


def test_metric_names() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    made = set(tracer.metric_names()) | {"trace_overhead"}
    if listed == made:
        return []
    return [f"per_layer mismatch: listed only {sorted(listed - made)}, made only {sorted(made - listed)}"]


def test_predicted_zeros() -> list[str]:
    problems = []
    counts = {}
    for name in PREDICTED_ZERO:
        rec = run.run_child(name, SEED, "traced", time.monotonic() + 150)
        problems += [f"{name}: {op['name']} failed: {op['problems']}" for op in rec["ops"] if not op["ok"]]
        problems += [f"{name}: tracer target not found: {t}" for t in rec["trace_missing"]]
        counts[name] = rec["trace"]
    for name, metrics in PREDICTED_ZERO.items():
        for metric in metrics:
            if counts[name][metric] != 0:
                problems.append(f"{name}: {metric} = {counts[name][metric]}, predicted 0")
            if not any(c[metric] for c in counts.values()):
                problems.append(f"{metric} is 0 on every workload; the tracer does not see it")
    return problems


def _failed_ops(wl, outcomes) -> list[str]:
    return [op for op, out in outcomes.items() if wl.check(op, out)[0]]


def test_perturbations() -> list[str]:
    problems = []
    run.WORKDIR.mkdir(exist_ok=True)

    exact = workloads.ExactInstances(SEED, str(run.WORKDIR))
    op = "verify chi"
    outcomes = {op: dict(exact.operations())[op]()}
    if _failed_ops(exact, outcomes):
        problems.append(f"{op} fails with the recorded check count")
    exact.expected[op] += 1
    if _failed_ops(exact, outcomes) != [op]:
        problems.append(f"{op} passes with an expected check count one above the real one")

    ode = workloads.OdeSolve(SEED, str(run.WORKDIR))
    try:
        outcomes = {name: fn() for name, fn in ode.operations()}
    finally:
        ode.cleanup()
    ode.prepare_checks()
    if _failed_ops(ode, outcomes):
        problems.append("ode-solve fails against the true oracle")
    ode.oracle = ode.oracle + 1e-6
    if sorted(_failed_ops(ode, outcomes)) != sorted(outcomes):
        problems.append("ode-solve passes against an oracle moved by 1e-6")
    return problems


def test_speed_scaling() -> list[str]:
    ref = speed.REF_S
    probe = speed.SpeedProbe()
    # Probes at t = 0, 1, 2, 3: two at the reference speed, then two at half of it.
    for t, d in ((0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref)):
        probe.starts.append(t)
        probe.ends.append(t + d)
    # Gap factors are medians over probes k-1..k+2: 1, 1.5, 2.
    cases = [
        (probe, (0.0, 1.0 + ref), 1.0 - ref),  # one gap at full speed, probe time left out
        (probe, (1.5, 1.7), 0.2 / 1.5),
        (probe, (2.5, 4.0), (3.0 - 2.5) / 2 + (4.0 - 3.0 - 2 * ref) / 2),  # past the last probe
        (probe, (-1.0, 0.0), 1.0),  # before the first probe: nearest gap's factor
    ]
    # A set-up child can end before the timer fires: one probe, at half speed.
    single = speed.SpeedProbe()
    single.starts.append(1.0)
    single.ends.append(1.0 + 2 * ref)
    cases.append((single, (0.5, 3.0), 0.5 / 2 + (2.0 - 2 * ref) / 2))
    problems = []
    for p, (t0, t1), want in cases:
        got = p.scaled(t0, t1)
        if abs(got - want) > 1e-12:
            problems.append(f"scaled({t0}, {t1}) = {got}, expected {want}")
    return problems


def main() -> int:
    failed = 0
    for test in (test_metric_names, test_speed_scaling, test_perturbations, test_predicted_zeros):
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'}: {test.__name__}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
