"""Structured verification reports.

Every identity checker in this package returns a :class:`VerificationReport`
rather than a bare boolean, so callers (and the CLI) can print per-degree
residual diagnostics.  A report distinguishes hard checks, which gate the
exit code, from informational entries, which are printed but never fail.
Hard checks on series come from :meth:`VerificationReport.add_residuals`,
which names each degree with a nonzero residual; hard checks on sampled
identities come from :meth:`VerificationReport.add_sampled`, which counts
the samples that pass.  It runs sample by sample, every identity on one
sample before the next; a checker whose identities share products wraps its
ops in a :class:`SampleMemo`, so each product is computed once per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["Check", "SampleMemo", "VerificationReport"]


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""
    informational: bool = False


class SampleMemo:
    """Results of wrapped ops, kept for one sample of ``add_sampled``.

    A call is keyed by the op and the ``id`` of each operand, never by value
    (carriers such as ``Poly`` are unhashable).  Each entry holds its
    operands and result until :meth:`clear`, so no id in a live key can be
    reused.  A memo belongs to one checker call and is never shared.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}

    def wrap(self, *ops: Callable[..., Any]) -> tuple[Callable[..., Any], ...]:
        """One memoized callable per op, in order; each calls the op itself on a miss."""
        return tuple(self._memoized(op) for op in ops)

    def _memoized(self, op: Callable[..., Any]) -> Callable[..., Any]:
        entries = self._entries

        def call(*args):
            key = (op, *map(id, args))
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = (args, op(*args))
            return entry[1]

        return call

    def clear(self) -> None:
        self._entries.clear()


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
        identities: Iterable[tuple[str, Callable[..., Any]]],
        noun: str,
        memo: SampleMemo | None = None,
    ) -> None:
        """One hard check per ``(label, holds)``: ``holds(*sample)`` on every sample.

        Runs sample by sample: every identity is evaluated on one sample
        before the next is read, so ``samples`` is read once and a generator
        will do.  ``memo``, when given, is cleared before each sample, so
        the products it shares stay within one sample.  The detail is the
        count ``passed/total noun``.
        """
        identities = list(identities)
        passed = [0] * len(identities)
        total = 0
        for s in samples:
            if memo is not None:
                memo.clear()
            total += 1
            for i, (_, holds) in enumerate(identities):
                if holds(*s):
                    passed[i] += 1
        for (label, _), n in zip(identities, passed):
            self.add(label, n == total, f"{n}/{total} {noun}")

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
