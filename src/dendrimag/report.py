"""Structured verification reports.

Every identity checker in this package returns a :class:`VerificationReport`
rather than a bare boolean, so callers (and the CLI) can print per-degree
residual diagnostics.  A report distinguishes hard checks, which gate the
exit code, from informational entries, which are printed but never fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def extend(self, other: "VerificationReport") -> None:
        for c in other.checks:
            self.checks.append(Check(f"{other.name}: {c.label}", c.ok, c.detail, c.informational))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if not c.informational)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok and not c.informational]

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
