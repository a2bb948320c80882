"""Structured check reports: every violated law is an entry with a witness.

Checks in this package never raise on a mathematical violation; they return a
:class:`Report` whose entries name the broken law and a minimal witness, so a
corrupted table can be diagnosed instead of merely rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN when any is NaN.

    Python's ``max`` keeps its running value when a later one is NaN (every
    comparison with NaN is false), which would let a non-finite residual
    read as a pass.
    """
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


@dataclass(frozen=True)
class ReportEntry:
    check: str
    witness: str
    severity: str = "error"  # "error" | "warning" | "note"
    residual: float | None = None

    def __str__(self) -> str:
        tail = f" (residual {self.residual:.17g})" if self.residual is not None else ""
        return f"[{self.severity}] {self.check}: {self.witness}{tail}"


@dataclass
class Report:
    title: str
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, check: str, witness: str, severity: str = "error",
            residual: float | None = None) -> None:
        self.entries.append(ReportEntry(check, witness, severity, residual))

    def merge(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    @property
    def errors(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.severity == "error"]

    @property
    def warnings(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def max_residual(self) -> float:
        residuals = [e.residual for e in self.entries if e.residual is not None]
        return _worst(*residuals) if residuals else 0.0

    def __str__(self) -> str:
        head = f"{self.title}: " + ("ok" if self.ok else f"{len(self.errors)} violation(s)")
        if not self.entries:
            return head
        return "\n".join([head] + [f"  {e}" for e in self.entries])


@dataclass(frozen=True)
class SuiteReport:
    """A report as one suite of the battery: the detail a pass prints, and
    the residual it shows (None: the report's largest, when nonzero)."""

    name: str
    report: Report
    passed: str = "all checks hold"
    residual: float | None = None
