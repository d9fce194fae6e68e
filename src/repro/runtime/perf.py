"""Per-run performance telemetry (``repro.runtime.perf``).

Every run the executor completes gets a :class:`PerfRecord` — wall
time, simulated time, events dispatched, dispatch throughput, peak
RSS, engine, and the spec's content hash.  The record rides along two
channels:

* the JSONL run manifest (``ManifestEntry.perf``), so "what ran" and
  "how fast it ran" live on the same line; and
* a content-addressed :class:`PerfStore` under
  ``<cache-dir>/perf/`` — one append-only ``<spec-hash>.jsonl`` per
  spec, so repeated executions of the same spec accumulate a history
  (:meth:`PerfStore.best` reduces it min-of-N).

Collection piggybacks on the engine's unconditional
:class:`~repro.sim.engine.DispatchStats` accumulator, so it works with
observability fully disabled and costs nothing beyond two counter
reads per run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.sim.engine import dispatch_stats

#: Bump when the record layout changes incompatibly.
PERF_SCHEMA_VERSION = 1

#: File under the perf root collecting result-store telemetry
#: snapshots (hits/misses/evictions), one JSON object per line.  Kept
#: apart from the ``<spec-hash>.jsonl`` histories.
CACHE_TELEMETRY_FILE = "cache-telemetry.jsonl"


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 where the
    ``resource`` module is unavailable, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        rss //= 1024
    return int(rss)


@dataclass(frozen=True)
class PerfRecord:
    """One run's performance facts."""

    spec_hash: str
    label: str
    engine: str
    wall_s: float
    sim_s: float
    events: int
    events_per_sec: float
    peak_rss_kb: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PERF_SCHEMA_VERSION,
            "spec_hash": self.spec_hash,
            "label": self.label,
            "engine": self.engine,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfRecord":
        return cls(
            spec_hash=str(data["spec_hash"]),
            label=str(data.get("label", "")),
            engine=str(data.get("engine", "fluid")),
            wall_s=float(data["wall_s"]),
            sim_s=float(data["sim_s"]),
            events=int(data["events"]),
            events_per_sec=float(data["events_per_sec"]),
            peak_rss_kb=int(data.get("peak_rss_kb", 0)),
        )


class PerfMeter:
    """Measures one run: snapshot the dispatch accumulator, run, diff.

    Usage (what the executor does)::

        meter = PerfMeter(spec)
        result = spec.execute()
        record = meter.finish(wall_s)
    """

    def __init__(self, spec: Any):
        self._spec_hash = spec.content_hash()
        self._label = spec.label
        self._engine = getattr(spec, "engine", "fluid")
        self._events0, self._sim0 = dispatch_stats().snapshot()

    def finish(self, wall_s: float) -> PerfRecord:
        events1, sim1 = dispatch_stats().snapshot()
        events = events1 - self._events0
        sim_s = sim1 - self._sim0
        return PerfRecord(
            spec_hash=self._spec_hash,
            label=self._label,
            engine=self._engine,
            wall_s=wall_s,
            sim_s=sim_s,
            events=events,
            events_per_sec=events / wall_s if wall_s > 0 else 0.0,
            peak_rss_kb=peak_rss_kb(),
        )


class PerfStore:
    """Content-addressed, append-only store of per-spec perf history."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.jsonl"

    def record(self, rec: PerfRecord) -> Path:
        """Append one record to the spec's history file."""
        path = self.path_for(rec.spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        return path

    def history(self, spec_hash: str) -> List[PerfRecord]:
        """Every recorded execution of the spec, oldest first.

        Malformed lines (a crash mid-append) are skipped rather than
        poisoning the whole history.
        """
        path = self.path_for(spec_hash)
        records: List[PerfRecord] = []
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(PerfRecord.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def best(self, spec_hash: str) -> Optional[PerfRecord]:
        """The fastest recorded execution (max events/sec) — the
        noise-aware representative of the spec's history."""
        history = self.history(spec_hash)
        if not history:
            return None
        return max(history, key=lambda r: r.events_per_sec)

    def spec_hashes(self) -> List[str]:
        """Hashes with at least one recorded execution."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.root.glob("*.jsonl")
            if p.name != CACHE_TELEMETRY_FILE
        )

    def cache_telemetry_path(self) -> Path:
        return self.root / CACHE_TELEMETRY_FILE

    def record_cache(self, counters: Dict[str, Any]) -> Path:
        """Append one result-store telemetry snapshot (hits / misses /
        evictions / …) so cache behaviour regresses visibly alongside
        per-spec throughput."""
        path = self.cache_telemetry_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps(dict(counters), sort_keys=True) + "\n")
        return path

    def cache_telemetry(self) -> List[Dict[str, Any]]:
        """Recorded cache snapshots, oldest first (bad lines skipped)."""
        snapshots: List[Dict[str, Any]] = []
        try:
            lines = self.cache_telemetry_path().read_text().splitlines()
        except OSError:
            return snapshots
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                snapshots.append(doc)
        return snapshots


__all__ = [
    "CACHE_TELEMETRY_FILE",
    "PERF_SCHEMA_VERSION",
    "PerfMeter",
    "PerfRecord",
    "PerfStore",
    "peak_rss_kb",
]
