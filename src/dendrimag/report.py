"""Structured verification reports.

Every identity checker in this package returns a :class:`VerificationReport`
rather than a bare boolean, so callers (and the CLI) can print per-degree
residual diagnostics.  A report distinguishes hard checks, which gate the
exit code, from informational entries, which are printed but never fail.
Hard checks on series come from :meth:`VerificationReport.add_residuals`,
which names each degree with a nonzero residual; hard checks on sampled
identities come from :meth:`VerificationReport.add_sampled`, which counts
the samples that pass.  It calls one function per sample that returns a
truth value for every identity, so the products the identities share are
computed once per sample, as locals of that function.

Several checkers that read one sample list run in lockstep through
:func:`run_sampled`: every checker's function runs on a sample before the
next sample, after a reset that the caller supplies.  A suite passes the
checkers a view of its instance that remembers products for one sample and
clears that memo in the reset, so the products shared per sample are shared
across the checkers too, and no product outlives its sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = ["Check", "SampledCheck", "VerificationReport", "run_sampled"]


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""
    informational: bool = False


@dataclass
class VerificationReport:
    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    def info(self, label: str, detail: str = "") -> None:
        self.checks.append(Check(label, True, detail, informational=True))

    def add_residuals(self, label: str, lhs, rhs) -> None:
        """Hard check that two truncated series agree, naming each degree where they differ."""
        diff = lhs - rhs
        bad = [k for k, c in enumerate(diff.coeffs) if not diff.space.is_zero(c)]
        self.add(label, not bad, f"nonzero residual at degrees {bad}" if bad else "all residuals zero")

    def add_sampled(
        self,
        samples: Iterable[tuple],
        labels: Iterable[str],
        holds: Callable[..., Iterable[Any]],
        noun: str,
    ) -> None:
        """One hard check per label: the count of samples on which it holds.

        ``holds(*sample)`` is called once per sample and returns (or yields)
        one truth value per label, in label order.  ``samples`` is read once,
        so a generator will do.  The detail is the count ``passed/total
        noun``; a check over no samples fails, so an exhausted generator
        cannot pass vacuously.
        """
        run_sampled(samples, [(self, labels, holds, noun)])

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if not c.informational)

    def summary(self) -> str:
        lines = [f"[{'ok' if self.ok else 'FAIL'}] {self.name}"]
        for c in self.checks:
            if c.informational:
                tag = "info"
            else:
                tag = "pass" if c.ok else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"    {tag}: {c.label}{detail}")
        return "\n".join(lines)


# (report, labels, holds, noun): the arguments of one add_sampled call
SampledCheck = tuple[VerificationReport, Iterable[str], Callable[..., Iterable[Any]], str]


def run_sampled(
    samples: Iterable[tuple], checks: Sequence[SampledCheck], reset: Callable[[], Any] = lambda: None
) -> list[VerificationReport]:
    """``report.add_sampled(samples, labels, holds, noun)`` for each check, in lockstep.

    ``samples`` is read once.  For each sample, ``reset()`` runs first, then
    every check's ``holds`` in order, so all checks see the sample before
    the next one.  Each report gets its hard checks as ``add_sampled``
    would give them; the reports are returned in order.
    """
    labels = [list(c[1]) for c in checks]
    passed = [[0] * len(ls) for ls in labels]
    total = 0
    for s in samples:
        total += 1
        reset()
        for (_, _, holds, _), counts in zip(checks, passed):
            for i, ok in enumerate(holds(*s)):
                if ok:
                    counts[i] += 1
    for (rep, _, _, noun), ls, counts in zip(checks, labels, passed):
        for label, n in zip(ls, counts):
            rep.add(label, 0 < n == total, f"{n}/{total} {noun}")
    return [rep for rep, *_ in checks]
