"""The shared finding/report vocabulary of the checker tiers.

Every tier — the AST linter, the config verifier, the trace-invariant
analyzer, the determinism detector, and the cross-engine agreement
gate — reports through the same two types so that callers (the
CLI, the runtime's pre-dispatch verification, CI) never have to care
which tier produced a problem:

* a :class:`Finding` is one problem: a stable rule ID, a severity, a
  location (file/line for lint, a logical context elsewhere), and a
  message;
* a :class:`Report` is an ordered, self-describing collection of
  findings with deterministic formatting (the golden-file tests diff
  its output verbatim).

Rule ID namespaces::

    REP1xx  static lint (repro.check.lint)
    CHK2xx  config/scenario verification (repro.check.config)
    CHK3xx  trace invariants (repro.check.traces)
    CHK4xx  determinism replay (repro.check.determinism)
    CHK5xx  cross-engine agreement with the fluid reference
            (repro.check.agreement)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the check (non-zero exit, refused
    dispatch); ``WARNING`` findings are reported but do not fail.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One problem found by any checker tier."""

    rule: str
    message: str
    #: Repo-relative path for lint findings, trace file for trace
    #: findings, "" for purely logical checks (config objects).
    path: str = ""
    #: 1-based source line (lint) or event index (traces); 0 = n/a.
    line: int = 0
    severity: Severity = Severity.ERROR
    #: Stable logical location — enclosing scope plus offending symbol
    #: for lint, subflow/interface name for traces.  Part of the
    #: baseline fingerprint, so it must not contain line numbers or
    #: volatile values.
    context: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by the lint baseline.

        Two findings with the same fingerprint are "the same violation"
        even after unrelated edits move it to a different line.
        """
        return f"{self.path}:{self.rule}:{self.context or self.message}"

    def format(self) -> str:
        """One deterministic human-readable line."""
        where = self.path or self.context or "<global>"
        if self.path and self.line:
            where = f"{self.path}:{self.line}"
        tag = "" if self.severity is Severity.ERROR else " (warning)"
        return f"{where}: {self.rule}{tag} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "severity": self.severity.value,
            "context": self.context,
        }


@dataclass
class Report:
    """An ordered collection of findings from one checker invocation."""

    tier: str
    findings: List[Finding] = field(default_factory=list)
    #: How many units (files, specs, events, trace files) were examined
    #: — distinguishes "clean" from "checked nothing".
    checked: int = 0

    def add(
        self,
        rule: str,
        message: str,
        path: str = "",
        line: int = 0,
        severity: Severity = Severity.ERROR,
        context: str = "",
    ) -> Finding:
        finding = Finding(
            rule=rule,
            message=message,
            path=path,
            line=line,
            severity=severity,
            context=context,
        )
        self.findings.append(finding)
        return finding

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error* findings exist (warnings do not fail)."""
        return not self.errors

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (f.path, f.line, f.rule, f.context, f.message),
        )

    def format(self, verbose: bool = False) -> str:
        """Deterministic multi-line report (golden-file stable).

        Findings are sorted by location and rule; the summary line is
        always last.  ``verbose`` currently has no extra output but is
        kept so the CLI flag stays forward-compatible.
        """
        del verbose
        lines = [f.format() for f in self.sorted_findings()]
        n_err, n_warn = len(self.errors), len(self.warnings)
        if not self.findings:
            lines.append(f"{self.tier}: OK ({self.checked} checked)")
        else:
            lines.append(
                f"{self.tier}: {n_err} error(s), {n_warn} warning(s) "
                f"in {self.checked} checked"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "checked": self.checked,
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }


def merge_reports(tier: str, reports: Iterable[Report]) -> Report:
    """Fold several reports into one (used by ``repro check all``)."""
    merged = Report(tier=tier)
    for report in reports:
        merged.extend(report.findings)
        merged.checked += report.checked
    return merged


def filter_noqa(
    findings: Iterable[Finding], noqa_lines: Dict[int, Optional[List[str]]]
) -> List[Finding]:
    """Drop findings suppressed by ``# repro: noqa[...]`` comments.

    ``noqa_lines`` maps line number -> list of rule IDs (None = bare
    ``noqa``, which suppresses every rule on that line).
    """
    kept: List[Finding] = []
    for finding in findings:
        rules = noqa_lines.get(finding.line, "absent")
        if rules == "absent":
            kept.append(finding)
        elif rules is not None and finding.rule not in rules:
            kept.append(finding)
    return kept
