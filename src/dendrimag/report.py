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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["Check", "VerificationReport"]


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
        labels = list(labels)
        passed = [0] * len(labels)
        total = 0
        for s in samples:
            total += 1
            for i, ok in enumerate(holds(*s)):
                if ok:
                    passed[i] += 1
        for label, n in zip(labels, passed):
            self.add(label, 0 < n == total, f"{n}/{total} {noun}")

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
