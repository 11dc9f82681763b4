"""The benchmark's workloads: inputs from the seed, the operation list, checks.

Each workload is a fixed list of operations run through the public API
(``dendrimag.cli.main`` in process with stdout captured, plus named library
functions).  The three workloads drive the three carrier kinds that share
the series and recursion layers, so a change to that shared code that helps
one carrier and costs another shows up:

* ``exact-instances``: five ``verify`` suites over the dense exact carriers
  (``RatMatrix``, ``GridSeq``, ``Poly[RatMatrix]``) and ``Fraction``; no
  free-model or float code.
* ``free-expansion``: the free dendriform and pre-Lie models at order 8 and
  the degree-5 reduction search, over sparse ``LinComb`` carriers and the
  ``lru_cache`` basis products; no dense carrier.  The free model on one
  generator has no random input, so the seed is recorded but moves nothing.
* ``ode-solve``: the float Magnus/Fer stepper on a seeded random 4x4
  degree-2 problem; no exact-carrier work.

``verify --suite all`` and the ``dendriform`` suite are left out on purpose:
at about 55 s and 39 s per pass on a 2-CPU Xeon they would make every run
too long to repeat.

Checks run after the timed region.  An operation fails when it raises,
exits non-zero, fails a hard check, reports fewer hard checks than the
counts below, or misses the float oracle.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

# Hard checks per operation at the commit that defined the benchmark; a
# count below these means checks were dropped, which counts as a failure.
EXPECTED_HARD_CHECKS = {
    "verify tridendriform": 27,
    "verify rb": 39,
    "verify spitzer": 25,
    "verify atkinson": 24,
    "verify chi": 7,
    "verify_magnus": 3,
    "verify_fer": 9,
    "verify reduction": 6,
}

SOLVE_SLOPE = (3.7, 4.3)
SOLVE_TOL = 1e-7  # finest magnus4 final against the oracle, max-abs
FER2_TOL = 1e-10  # fer2 final at 1024 steps against the oracle, max-abs

_VERIFY_SUMMARY = re.compile(r"^suite '\w+' at order \d+, seed -?\d+: (\d+)/(\d+) hard checks passed")


@dataclass
class Outcome:
    """What one operation returned."""

    rc: int | None = None
    text: str = ""  # stdout of a CLI call, or the rendered result of a library call
    report: Any = None
    final: Any = None
    error: str | None = None  # traceback, when the operation raised

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_cli(argv: list[str]) -> Outcome:
    from dendrimag import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return Outcome(rc=rc, text=out.getvalue())


def check_exit(outcome: Outcome) -> list[str]:
    return [] if outcome.rc == 0 else [f"exit code {outcome.rc}"]


def check_verify(outcome: Outcome, expected: int) -> list[str]:
    problems = check_exit(outcome)
    lines = outcome.text.splitlines()
    m = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if m is None:
        return problems + ["no summary line"]
    passed, hard = int(m.group(1)), int(m.group(2))
    if passed != hard:
        problems.append(f"{hard - passed} of {hard} hard checks failed")
    if hard < expected:
        problems.append(f"{hard} hard checks, expected at least {expected}")
    return problems


def check_report(report, expected: int) -> list[str]:
    hard = [c for c in report.checks if not c.informational]
    problems = [f"failed: {c.label}" for c in hard if not c.ok]
    if len(hard) < expected:
        problems.append(f"{len(hard)} hard checks, expected at least {expected}")
    return problems


class Workload:
    name = ""
    steps = 0  # integrator steps per pass, where the workload steps an ODE

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.expected = dict(EXPECTED_HARD_CHECKS)

    def operations(self) -> list[tuple[str, Callable[[], Outcome]]]:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Work the checks need that must stay outside the timed region."""

    def check(self, op: str, outcome: Outcome) -> tuple[list[str], dict]:
        """(problems, information) for one operation's outcome."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove the input files this workload wrote."""


class ExactInstances(Workload):
    name = "exact-instances"
    suites = ("tridendriform", "rb", "spitzer", "atkinson", "chi")

    def operations(self):
        return [
            (f"verify {s}", partial(run_cli, ["verify", "--suite", s, "--order", "5", "--seed", str(self.seed)]))
            for s in self.suites
        ]

    def check(self, op, outcome):
        return check_verify(outcome, self.expected[op]), {}


class FreeExpansion(Workload):
    name = "free-expansion"

    def operations(self):
        return [
            ("expand magnus", partial(run_cli, ["expand", "magnus", "--order", "8", "--basis", "planar"])),
            ("verify_magnus", self._verify_magnus),
            ("verify_fer", self._verify_fer),
            (
                "verify reduction",
                partial(run_cli, ["verify", "--suite", "reduction", "--order", "5", "--seed", str(self.seed)]),
            ),
        ]

    @staticmethod
    def _verify_magnus() -> Outcome:
        from dendrimag import magnus_fer, pbt

        free = pbt.free_dendriform()
        rep = magnus_fer.verify_magnus(free, free.generator(), 8)
        return Outcome(text=rep.summary(), report=rep)

    @staticmethod
    def _verify_fer() -> Outcome:
        from dendrimag import magnus_fer, pbt

        free = pbt.free_dendriform()
        rep = magnus_fer.verify_fer(free, free.generator(), 8, exact_onsets=True)
        return Outcome(text=rep.summary(), report=rep)

    def check(self, op, outcome):
        if op == "expand magnus":
            problems = check_exit(outcome)
            degrees = sum(1 for line in outcome.text.splitlines() if line.startswith("  deg "))
            if degrees != 8:
                problems.append(f"{degrees} degree lines, expected 8")
            return problems, {}
        if outcome.report is not None:
            return check_report(outcome.report, self.expected[op]), {}
        return check_verify(outcome, self.expected[op]), {}


class OdeSolve(Workload):
    name = "ode-solve"
    n = 4
    degree = 2
    solve_steps = (4, 8, 16, 32)
    fer2_steps = 1024
    # solve: a reference at 64 x 32 steps, the sweep 4+8+16+32 and the
    # finest final again; then the fer2 run.
    steps = 64 * 32 + 60 + 32 + 1024

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import numpy as np
        from dendrimag.ode import FloatMatrixPoly

        rng = np.random.default_rng(seed)
        self.coeffs = [c / np.linalg.norm(c, 1) for c in rng.standard_normal((self.degree + 1, self.n, self.n))]
        self.a = FloatMatrixPoly(self.coeffs)
        self.path = os.path.join(workdir, f"ode-{seed}-{os.getpid()}.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"n": self.n, "degree": self.degree, "coeffs": [c.ravel().tolist() for c in self.coeffs]}, fh)
        self.oracle = None

    def operations(self):
        steps = ",".join(str(s) for s in self.solve_steps)
        return [
            ("solve magnus4", partial(run_cli, ["solve", "--matrix", self.path, "--method", "magnus4", "--steps", steps])),
            ("integrate fer2", self._fer2),
        ]

    def _fer2(self) -> Outcome:
        from dendrimag import ode

        final = ode.integrate(self.a, 1.0, self.fer2_steps, "fer2").final
        return Outcome(text=repr(final.tolist()), final=final)

    def prepare_checks(self):
        """Phi(1) for Phi' = A(t) Phi, Phi(0) = I, from scipy's DOP853."""
        import numpy as np
        from scipy.integrate import solve_ivp

        n = self.n

        def rhs(t, y):
            a = sum(c * t**j for j, c in enumerate(self.coeffs))
            return (a @ y.reshape(n, n)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), np.eye(n).ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"oracle failed: {sol.message}")
        self.oracle = sol.y[:, -1].reshape(n, n)

    def check(self, op, outcome):
        import numpy as np

        if op == "integrate fer2":
            err = float(np.max(np.abs(outcome.final - self.oracle)))
            return ([] if err <= FER2_TOL else [f"fer2 error {err:.3e} > {FER2_TOL}"]), {"error": err}
        problems = check_exit(outcome)
        lines = outcome.text.splitlines()
        try:
            summary = json.loads(lines[-1])
            slope = summary["slope"]
            err = float(np.max(np.abs(np.array(summary["final"]) - self.oracle)))
        except (IndexError, ValueError, KeyError, TypeError):
            return problems + ["no JSON summary line"], {}
        if slope is None or not SOLVE_SLOPE[0] <= slope <= SOLVE_SLOPE[1]:
            problems.append(f"slope {slope} outside {SOLVE_SLOPE}")
        if not err <= SOLVE_TOL:
            problems.append(f"final error {err:.3e} > {SOLVE_TOL}")
        return problems, {"slope": slope, "error": err}

    def cleanup(self):
        os.remove(self.path)


WORKLOADS = {w.name: w for w in (ExactInstances, FreeExpansion, OdeSolve)}
