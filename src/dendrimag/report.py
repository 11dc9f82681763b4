"""Structured verification reports.

Every identity checker in this package returns a :class:`VerificationReport`
rather than a bare boolean, so callers (and the CLI) can print per-degree
residual diagnostics.  A report distinguishes hard checks, which gate the
exit code, from informational entries, which are printed but never fail.
Hard checks on series come from :meth:`VerificationReport.add_residuals`,
which names each degree with a nonzero residual; hard checks on sampled
identities come from :meth:`VerificationReport.add_sampled`, which counts
the samples that pass.
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
        self, samples: Iterable[tuple], identities: Iterable[tuple[str, Callable[..., Any]]], noun: str
    ) -> None:
        """One hard check per ``(label, holds)``: ``holds(*sample)`` on every sample.

        ``samples`` is read once, so a generator will do; the detail is the
        count ``passed/total noun``.
        """
        samples = list(samples)
        for label, holds in identities:
            passed = sum(1 for s in samples if holds(*s))
            self.add(label, passed == len(samples), f"{passed}/{len(samples)} {noun}")

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
