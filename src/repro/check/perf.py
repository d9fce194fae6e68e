"""Perf-telemetry invariants (CHK6xx) — the profiler and PerfRecord check tier.

Validates the two artefacts :mod:`repro.obs.prof` and
:mod:`repro.runtime.perf` produce:

* **CHK601** — a :class:`~repro.runtime.perf.PerfRecord` (the
  ``perf`` field of a run-manifest line) is schema-complete and
  internally consistent: required keys present, counters
  non-negative, and the claimed throughput matches ``events / wall_s``
  up to float noise.  :func:`check_perf_target` applies it to every
  line of a ``.jsonl`` run manifest.
* **CHK602** — a span export is a well-formed tree: every non-root
  path has its parent in the export, counts are positive, totals
  non-negative, and depth agrees with the path.
* **CHK603** — conservation: the direct children of a span never
  accumulate more cumulative wall or sim time than the parent itself
  (self time is non-negative).  Wall clocks are noisy, so the wall
  comparison carries a small absolute tolerance; sim time is
  deterministic and gets only a float epsilon.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.check.findings import Report
from repro.obs.prof import PATH_SEP

#: Required keys of a PerfRecord dict.
PERF_RECORD_KEYS = (
    "spec_hash",
    "engine",
    "wall_s",
    "sim_s",
    "events",
    "events_per_sec",
)

#: Relative slack on the events_per_sec == events / wall_s identity.
EPS_RATIO = 1e-6

#: Absolute wall-clock slack (seconds) for CHK603: timer reads inside
#: the parent but outside any child legitimately cost a few µs each.
WALL_SLACK_S = 5e-3

#: Sim time is deterministic; only float accumulation error is allowed.
SIM_EPS = 1e-9


def check_perf_record(
    record: Mapping[str, Any],
    report: Report,
    where: str = "",
) -> None:
    """CHK601 over one ``PerfRecord`` dict."""
    report.checked += 1
    context = where or str(record.get("label") or record.get("key") or "")
    missing = [key for key in PERF_RECORD_KEYS if key not in record]
    if missing:
        report.add(
            "CHK601",
            f"PerfRecord missing key(s): {', '.join(missing)}",
            context=context,
        )
        return
    try:
        wall = float(record["wall_s"])
        sim = float(record["sim_s"])
        events = int(record["events"])
        eps = float(record["events_per_sec"])
    except (TypeError, ValueError) as exc:
        report.add(
            "CHK601",
            f"PerfRecord has non-numeric field: {exc}",
            context=context,
        )
        return
    for name, value in (("wall_s", wall), ("sim_s", sim),
                        ("events", events), ("events_per_sec", eps)):
        if value < 0:
            report.add(
                "CHK601",
                f"PerfRecord field {name} is negative ({value})",
                context=context,
            )
    if wall > 0:
        expected = events / wall
        slack = EPS_RATIO * max(expected, 1.0)
        if abs(eps - expected) > slack:
            report.add(
                "CHK601",
                f"events_per_sec inconsistent: recorded {eps:.2f}, but "
                f"events/wall_s = {expected:.2f}",
                context=context,
            )


def check_spans(profile: Mapping[str, Any], where: str = "") -> Report:
    """CHK602/CHK603 over one :meth:`Profiler.to_dict` export."""
    report = Report(tier="perf")
    spans = profile.get("spans", [])
    by_path: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        report.checked += 1
        path = str(span.get("path", ""))
        context = f"{where}:{path}" if where else path
        parts = path.split(PATH_SEP) if path else []
        if not path:
            report.add("CHK602", "span with empty path", context=context)
            continue
        by_path[path] = span
        if int(span.get("depth", 0)) != len(parts):
            report.add(
                "CHK602",
                f"span depth {span.get('depth')} disagrees with path "
                f"({len(parts)} component(s))",
                context=context,
            )
        if int(span.get("count", 0)) < 1:
            report.add(
                "CHK602",
                f"span recorded with count {span.get('count')} (< 1)",
                context=context,
            )
        for field in ("wall_s", "sim_s"):
            if float(span.get(field, 0.0)) < 0:
                report.add(
                    "CHK602",
                    f"span has negative {field} ({span.get(field)})",
                    context=context,
                )
    children: Dict[str, List[Dict[str, Any]]] = {}
    for path, span in by_path.items():
        parts = path.split(PATH_SEP)
        if len(parts) == 1:
            continue
        parent = PATH_SEP.join(parts[:-1])
        if parent not in by_path:
            report.add(
                "CHK602",
                f"orphan span: parent {parent!r} missing from export",
                context=f"{where}:{path}" if where else path,
            )
            continue
        children.setdefault(parent, []).append(span)
    for parent_path, kids in sorted(children.items()):
        parent = by_path[parent_path]
        context = f"{where}:{parent_path}" if where else parent_path
        child_wall = sum(float(k.get("wall_s", 0.0)) for k in kids)
        child_sim = sum(float(k.get("sim_s", 0.0)) for k in kids)
        if child_wall > float(parent.get("wall_s", 0.0)) + WALL_SLACK_S:
            report.add(
                "CHK603",
                f"children's cumulative wall ({child_wall * 1e3:.2f} ms) "
                f"exceeds parent's ({float(parent.get('wall_s', 0.0)) * 1e3:.2f} ms)",
                context=context,
            )
        if child_sim > float(parent.get("sim_s", 0.0)) + SIM_EPS:
            report.add(
                "CHK603",
                f"children's cumulative sim time ({child_sim:.6f} s) "
                f"exceeds parent's ({float(parent.get('sim_s', 0.0)):.6f} s)",
                context=context,
            )
    return report


def check_manifest(path: Path) -> Report:
    """CHK601 over the ``perf`` field of every line of a run manifest.

    Lines without a PerfRecord (cached, retried and failed runs) have
    nothing to check; a line that is not a manifest entry is CHK601.
    """
    report = Report(tier="perf")
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        report.checked += 1
        report.add("CHK601", f"cannot read {path}: {exc}", path=str(path))
        return report
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            entry = None
        if not isinstance(entry, dict) or "outcome" not in entry:
            report.checked += 1
            report.add("CHK601", "not a run-manifest line",
                       path=str(path), line=number)
        elif entry.get("perf"):
            check_perf_record(entry["perf"], report,
                              where=f"{path.name}:{entry.get('label', '')}")
    return report


def check_perf_target(target: Union[str, Path]) -> Report:
    """CLI entry: CHK602/CHK603 over a ``*.spans.json`` export, or
    every such file under a directory; CHK601 over a ``.jsonl`` run
    manifest."""
    path = Path(target)
    if path.suffix == ".jsonl":
        return check_manifest(path)
    report = Report(tier="perf")
    if path.is_dir():
        files = sorted(path.glob("*.spans.json"))
        if not files:
            # An error, not a warning: a gate that found nothing to
            # check must not pass.
            report.checked += 1
            report.add("CHK602", f"no *.spans.json under {path}")
            return report
        for file in files:
            sub = check_perf_target(file)
            report.extend(sub.findings)
            report.checked += sub.checked
        return report
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        report.checked += 1
        report.add("CHK602", f"cannot parse {path}: {exc}", path=str(path))
        return report
    if not isinstance(doc, dict) or not isinstance(doc.get("spans"), list):
        report.checked += 1
        report.add("CHK602", f"{path} is not a span export (no 'spans' list)",
                   path=str(path))
        return report
    sub = check_spans(doc, where=path.name)
    report.extend(sub.findings)
    report.checked += sub.checked
    return report


__all__ = [
    "PERF_RECORD_KEYS",
    "check_manifest",
    "check_perf_record",
    "check_perf_target",
    "check_spans",
]
