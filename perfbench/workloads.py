"""The benchmark's workloads: closed loops over the real entry points.

Each workload runs in one thread of one process, which issues its
next request only after the previous one has returned.  A *pass* is one
round of the workload's requests; a *job* is the unit the client
waits on and times individually:

=============  ==============================================  =========================
workload       pass                                            job
=============  ==============================================  =========================
report-smoke   ``generate_report("smoke", jobs=1)``            the report
packet-fig56   fig5/6 good+bad WiFi x emptcp+mptcp, packet     one ``run_many([spec])``
runtime-cache  204 new 1-MiB specs, ``run_many`` cold then warm call -> that job's outcome
fleet-10k      ``run_fleet(10k sessions, 60 s)``               the fleet run
=============  ==============================================  =========================

Every workload checks its outputs (see ``verify``) and keeps a digest
of its simulated results, so a speed-only change can show that they
did not move.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: Worker slots of every timed ``run_many``.  With a process pool the
#: workload needs both of the reference machine's 2 cores, and how many
#: of them a busy host leaves free is more than the one-core speed
#: sampler (``calibrate.py``) can correct: a pass slowed by up to 80%
#: while the sampled speed fell 27%.  The pooled path is still checked,
#: untimed, by ``ReportSmoke.verify``.
JOBS = 1
#: Worker slots of that untimed check of the pooled path.
POOL_JOBS = 2


@dataclass
class PassResult:
    """What one pass did and how long it took."""

    wall_s: float
    latencies_s: List[float]
    #: Simulation runs completed (fleet: sessions simulated).
    runs: int
    attempted: int
    failed: int = 0
    #: Simulated seconds; None when the workload fills it in ``verify``.
    sim_s: Optional[float] = None
    #: Payload delivered by packet-engine runs, MiB.
    mib: float = 0.0
    session_steps: float = 0.0
    #: Host seconds -> reference seconds (see ``calibrate.py``).
    scale: float = 1.0
    #: Per-job scales, where the workload measured each job's own.
    job_scales: Optional[List[float]] = None

    def scaled_latencies(self) -> List[float]:
        """Job latencies in reference seconds."""
        scales = self.job_scales or [self.scale] * len(self.latencies_s)
        return [t * k for t, k in zip(self.latencies_s, scales)]


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sim_seconds() -> float:
    """Process-wide simulated seconds dispatched so far."""
    from repro.sim.engine import dispatch_stats

    return dispatch_stats().sim_s


class Workload:
    """Base class: subclasses implement ``run_pass`` and ``verify``."""

    name = ""
    #: Modules a fresh process imports before its first pass.
    imports: Tuple[str, ...] = ()
    #: Calibration kernel whose speed scales this workload's timings
    #: (``calibrate.kernel`` or ``calibrate.numpy_kernel``).
    reference = "python"

    def __init__(self, work_dir: Path, seed: int, tiny: bool = False):
        self.work_dir = work_dir
        self.seed = seed
        self.tiny = tiny
        self.failures: List[str] = []
        self._probes = 0
        #: The run's ``calibrate.SpeedSampler``, set once it starts.
        self.speed: Any = None
        #: Results whose digest the run prints, in a fixed order.
        self.digest_items: List[Any] = []

    def setup(self) -> None:
        """In-process start-up before the first pass."""

    def probe_setup(self) -> None:
        """What a fresh process does before its first pass: the
        imports.  Timed by ``probe.py``."""
        for module in self.imports:
            importlib.import_module(module)

    def probe_work_dir(self) -> Path:
        """Where a set-up probe may write: a fresh directory."""
        self._probes += 1
        return self.work_dir / f"probe-{self._probes}"

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def checked_pass(self) -> PassResult:
        """``run_pass``, with an escaping error counted as a failed job."""
        start = perf_counter()
        try:
            return self.run_pass()
        except Exception as exc:  # the run reports it and goes on
            self.fail(f"pass raised {type(exc).__name__}: {exc}")
            return PassResult(
                wall_s=perf_counter() - start, latencies_s=[], runs=0,
                attempted=1, failed=1,
            )

    def verify(self, passes: List[PassResult]) -> int:
        """Check outputs after the measured passes; fill in ``sim_s``
        where the pass could not measure it.  Returns failed jobs."""
        return 0

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def results_digest(self) -> str:
        return hashlib.sha256(
            canonical(self.digest_items).encode("utf-8")
        ).hexdigest()[:16]


# -- report-smoke -----------------------------------------------------


class ReportSmoke(Workload):
    """The ``make bench-smoke`` report: 65 fluid runs across nine
    ``run_many`` calls, inline (``JOBS``).  No seed input.  The job is
    the whole report: the nine batches differ too much in size for a
    percentile over them to be stable."""

    name = "report-smoke"
    imports = ("repro.experiments.report_all", "repro.runtime.executor")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._runs = 0
        self._report: Optional[str] = None
        self._restore: Optional[Callable[[], None]] = None

    def setup(self) -> None:
        from repro.runtime import executor

        original = executor.run_many

        def run_many(specs: Any, *args: Any, **kwargs: Any) -> Any:
            specs = list(specs)
            self._runs += len(specs)
            return original(specs, *args, **kwargs)

        executor.run_many = run_many

        def restore() -> None:
            executor.run_many = original

        self._restore = restore

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def run_pass(self) -> PassResult:
        from repro.experiments.report_all import generate_report

        self._runs = 0
        sim_before = sim_seconds()
        start = perf_counter()
        report = generate_report("smoke", jobs=JOBS, cache=None)
        wall = perf_counter() - start
        failed = 0
        if self._report is None:
            self._report = report
            self.digest_items.append(report)
        elif report != self._report:
            self.fail("report differs between passes")
            failed = 1
        return PassResult(
            wall_s=wall, latencies_s=[wall], runs=self._runs, attempted=1,
            failed=failed, sim_s=sim_seconds() - sim_before,
        )

    def verify(self, passes: List[PassResult]) -> int:
        """The pooled render equals the inline one the passes made."""
        from repro.experiments.report_all import generate_report

        pooled = generate_report("smoke", jobs=POOL_JOBS, cache=None)
        if pooled != self._report:
            self.fail(f"jobs={POOL_JOBS} report differs from the jobs={JOBS} render")
            return 1
        return 0


# -- packet-fig56 -------------------------------------------------------


class PacketFig56(Workload):
    """§4.2 static downloads on the packet engine, inline."""

    name = "packet-fig56"
    imports = ("repro.runtime.executor", "repro.packet.runner", "repro.units")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        from repro.runtime.spec import RunSpec
        from repro.units import mib

        self.size_bytes = mib(1 if self.tiny else 16)
        self.specs = [
            RunSpec(
                protocol=protocol,
                builder="static",
                kwargs={"good_wifi": good, "download_bytes": self.size_bytes},
                seed=self.seed,
                engine="packet",
            )
            for good in (True, False)
            for protocol in ("emptcp", "mptcp")
        ]
        self._seen: Dict[str, str] = {}

    def run_pass(self) -> PassResult:
        from repro.runtime.executor import run_many

        latencies = []
        scales = []
        failed = 0
        delivered = 0.0
        sim_before = sim_seconds()
        start = perf_counter()
        for spec in self.specs:
            mark = self.speed.mark()
            t0 = perf_counter()
            try:
                result = run_many([spec], jobs=1, cache=None)[0]
            except Exception as exc:  # counted, reported, and the loop goes on
                self.fail(f"{spec.label}: {exc}")
                failed += 1
                continue
            finally:
                latencies.append(perf_counter() - t0)
                scales.append(self.speed.scale_since(mark))
            delivered += result.bytes_received
            if (
                result.download_time is None
                or result.bytes_received != self.size_bytes
            ):
                self.fail(
                    f"{spec.label}: delivered {result.bytes_received} of "
                    f"{self.size_bytes} bytes"
                )
                failed += 1
                continue
            doc = canonical(result.to_dict())
            key = spec.content_hash()
            first = self._seen.setdefault(key, doc)
            if first is doc:
                self.digest_items.append(result.to_dict())
            elif first != doc:
                self.fail(f"{spec.label}: result differs between repeats")
                failed += 1
        wall = perf_counter() - start
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            job_scales=scales,
            runs=len(self.specs),
            attempted=len(self.specs),
            failed=failed,
            sim_s=sim_seconds() - sim_before,
            mib=delivered / (1 << 20),
        )


# -- runtime-cache -------------------------------------------------------


def sweep_specs(seed: int, index: int, tiny: bool) -> List[Any]:
    """Sweep ``index`` of a run, lowered to its specs: ``runs`` seeds x
    (one warm-up + one variant per value) of 1-MiB good-WiFi fluid
    downloads.  The seed draws the LTE rate and the swept tau values,
    which makes every sweep's specs distinct (so each one executes
    cold) while keeping the work per job nearly the same from seed to
    seed.  The values are drawn without repeats: two equal values make
    two equal specs, which the runtime rightly runs once."""
    from repro.runtime.service import plan_sweep
    from repro.units import mib

    rng = random.Random(seed * 1_000_003 + index)
    values = 3 if tiny else 50
    request = {
        "builder": "static",
        "parameter": "tau_seconds",
        "values": [
            micro / 1e6 for micro in sorted(rng.sample(range(1_000_000, 6_000_001), values))
        ],
        "kwargs": {
            "good_wifi": True,
            "download_bytes": mib(1),
            "lte_mbps": round(rng.uniform(9.5, 10.5), 6),
        },
        "runs": 1 if tiny else 4,
    }
    return [job.spec for job in plan_sweep(request).jobs]


def outcome_stamps() -> Any:
    """A silent progress reporter that stamps each job's outcome with
    its arrival time."""
    from repro.runtime.progress import ProgressReporter

    class Stamps(ProgressReporter):
        def __init__(self) -> None:
            super().__init__(stream=None)
            self.stamps: List[Tuple[float, str]] = []

        def update(self, outcome: str) -> None:
            self.stamps.append((perf_counter(), outcome))
            super().update(outcome)

    return Stamps()


class RuntimeCache(Workload):
    """The batch runtime's write and read paths, in one thread.

    Each pass takes a new sweep's specs and a fresh cache directory,
    and calls ``run_many(jobs=1)`` twice: cold, every job executes and
    is written to the result cache; warm, every job comes back
    ``cached`` from the segment store.  The job is one spec of the
    cold call, timed from the call to its outcome.  No perf store: it
    creates a file per spec, and the kernel time of creating them
    varied so much on the reference VM that the workload's run-to-run
    spread doubled (20% against 10%)."""

    name = "runtime-cache"
    imports = ("repro.runtime.executor", "repro.runtime.service")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._index = 0
        #: (specs, encoded cold results, pass result) of every pass.
        self._batches: List[Tuple[List[Any], List[Any], PassResult]] = []

    def _batch(self, specs: List[Any], cache: Any) -> Tuple[List[Any], Any, float]:
        from repro.runtime.executor import run_many

        stamps = outcome_stamps()
        start = perf_counter()
        results = run_many(
            specs, jobs=JOBS, cache=cache, perf_store=None, manifest=None,
            progress=stamps, obs=None, journal=None,
        )
        return results, stamps, start

    def run_pass(self) -> PassResult:
        from repro.runtime.cache import ResultCache
        from repro.runtime.spec import get_builder

        specs = sweep_specs(self.seed, self._index, self.tiny)
        self._index += 1
        # Removed in ``close``, so no file-system clean-up runs between
        # the timed passes.
        root = self.work_dir / f"cache-{self._index}"
        cache = ResultCache(root)
        begin = perf_counter()
        cold, cold_stamps, cold_start = self._batch(specs, cache)
        warm, warm_stamps, _ = self._batch(specs, cache)
        wall = perf_counter() - begin
        failed = 0
        for label, stamps, want in (
            ("cold", cold_stamps, "executed"), ("warm", warm_stamps, "cached"),
        ):
            outcomes = [outcome for _, outcome in stamps.stamps]
            if outcomes != [want] * len(specs):
                wrong = sum(1 for o in outcomes if o != want)
                self.fail(
                    f"{label} call: {len(outcomes)} outcomes for "
                    f"{len(specs)} specs, {wrong} not {want}"
                )
                failed += max(wrong, abs(len(specs) - len(outcomes)))
        encoded = []
        for spec, first, again in zip(specs, cold, warm):
            codec = get_builder(spec.builder)
            doc = canonical(codec.encode(first))
            encoded.append(doc)
            if canonical(codec.encode(again)) != doc:
                self.fail(f"{spec.label}: cached result != executed result")
                failed += 1
        result = PassResult(
            wall_s=wall,
            latencies_s=[t - cold_start for t, _ in cold_stamps.stamps],
            runs=2 * len(specs),
            attempted=2 * len(specs),
            failed=failed,
        )
        self._batches.append((specs, encoded, result))
        return result

    def close(self) -> None:
        for index in range(1, self._index + 1):
            shutil.rmtree(self.work_dir / f"cache-{index}", ignore_errors=True)

    def verify(self, passes: List[PassResult]) -> int:
        """Every cold result equals an inline ``spec.execute()``."""
        from repro.runtime.spec import get_builder

        failed = 0
        for specs, encoded, result in self._batches:
            simulated = 0.0
            for spec, doc in zip(specs, encoded):
                before = sim_seconds()
                inline = get_builder(spec.builder).encode(spec.execute())
                simulated += sim_seconds() - before
                self.digest_items.append([spec.content_hash(), inline])
                if canonical(inline) != doc:
                    self.fail(f"{spec.label}: cold result != inline execute")
                    failed += 1
            result.sim_s = simulated
        return failed


# -- fleet-10k ----------------------------------------------------------


class Fleet10k(Workload):
    """The flow tier: 10k sessions for 60 simulated seconds.

    Arrivals spread over 50 s instead of the default 10 s, so every
    pass advances exactly 240 epochs.  With the default window the last
    session finishes between 40 and 45.5 s depending on the seed, and
    the epoch count — which sets the vectorized engine's time — moved
    by up to 14% from seed to seed."""

    name = "fleet-10k"
    imports = ("repro.flow.fleet",)
    reference = "numpy"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        from repro.flow.fleet import FleetSpec

        self.spec = FleetSpec(
            sessions=500 if self.tiny else 10_000,
            duration_s=10.0 if self.tiny else 60.0,
            arrival_window_s=8.0 if self.tiny else 50.0,
            seed=self.seed,
        )
        self.epoch_s = self.spec.epoch_s or self.spec.config.decision_interval
        self._first: Optional[str] = None

    def run_pass(self) -> PassResult:
        from repro.flow.fleet import run_fleet

        start = perf_counter()
        result = run_fleet(self.spec)
        wall = perf_counter() - start
        doc = result.to_dict()
        failed = 0
        if self._first is None:
            self._first = canonical(doc)
            self.digest_items.append(doc)
        elif canonical(doc) != self._first:
            self.fail("FleetResult differs between passes")
            failed = 1
        if not (0 < result.completed <= result.sessions and result.bytes_total > 0
                and result.energy_total_j > 0):
            self.fail(f"fleet invariants violated: {doc}")
            failed = 1
        return PassResult(
            wall_s=wall,
            latencies_s=[wall],
            runs=result.sessions,
            attempted=1,
            failed=failed,
            # Session-seconds: every session-step advances one epoch.
            sim_s=result.session_steps * self.epoch_s,
            session_steps=result.session_steps,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (ReportSmoke, PacketFig56, RuntimeCache, Fleet10k)
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
