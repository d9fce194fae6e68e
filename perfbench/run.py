"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload packet-fig56 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``./src``).  The run times the workload's set-up in fresh interpreters,
then runs closed-loop passes for ``--seconds`` and checks every output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with every layer
wrapped (see ``layers.py``) and prints the per-layer metrics,
including the tracing overhead.  A human-readable summary precedes the
JSON object on the last line of standard output.  Scratch files live
under ``.perfbench-work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calibrate

BENCH_DIR = Path(__file__).resolve().parent

#: End-to-end metrics: name, unit.  Bounds live in BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("runs_per_s", "1/s"),
    ("sim_s_per_host_s", "s/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-up probes per run; ``setup_s`` is their median.
PROBES = 5
#: Passes every run makes at least, so the repeat checks always bite.
MIN_PASSES = 2


def probe_setup(workload: Any, tiny: bool) -> float:
    """One set-up probe in a fresh interpreter; its seconds."""
    cmd = [
        sys.executable, str(BENCH_DIR / "probe.py"),
        "--workload", workload.name,
        "--work-dir", str(workload.probe_work_dir()),
        "--seed", str(workload.seed),
    ]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(
        cmd, check=True, stdout=subprocess.PIPE, timeout=120, text=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(workload: Any, seconds: float, min_passes: int) -> List[Any]:
    """Closed loop: the next pass starts when the previous one ends.
    Each pass is scaled by the machine speed sampled while it ran."""
    passes: List[Any] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        mark = workload.speed.mark()
        result = workload.checked_pass()
        result.scale = workload.speed.scale_since(mark)
        passes.append(result)
    return passes


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has
    waited for (the set-up probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(
    passes: List[Any], setup_times: List[float], rss_mb: float
) -> Dict[str, float]:
    from workloads import percentile

    walls = [p.wall_s * p.scale for p in passes]
    latencies = [t for p in passes for t in p.scaled_latencies()]
    busy = sum(walls)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "wall_tail_s": max(walls),
        "runs_per_s": sum(p.runs for p in passes) / busy,
        "sim_s_per_host_s": sum(p.sim_s or 0.0 for p in passes) / busy,
        "job_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "job_latency_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    tiny: bool = False,
    probes: int = PROBES,
) -> Dict[str, Any]:
    """Run one workload; returns the result object plus a summary."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](work_dir, seed, tiny)
    setup_times = [probe_setup(workload, tiny) for _ in range(probes)]
    workload.speed = calibrate.SpeedSampler(
        calibrate.numpy_kernel if workload.reference == "numpy" else calibrate.kernel
    ).start()
    workload.setup()
    window = seconds / 2 if trace else seconds
    # Every pass in the order it ran (warm-ups included), for verify().
    ran: List[Any] = []
    traced: List[Any] = []
    layer_delta: Dict[str, Tuple[float, float]] = {}
    layer_scale = 1.0
    try:
        # One untimed warm-up pass lets lazy imports and first-use
        # set-up finish; probe.py times the imports themselves.
        ran.append(workload.checked_pass())
        passes = run_passes(workload, 0.0, MIN_PASSES)
        # Memory after a fixed amount of work: how many more passes
        # fit in the window depends on the machine's speed.
        rss_mb = peak_rss_mb()
        passes += run_passes(workload, window - sum(p.wall_s for p in passes), 0)
        ran += passes
        if trace:
            import layers

            workload.close()
            restore = layers.install()
            try:
                workload.setup()
                ran.append(workload.checked_pass())
                mark = workload.speed.mark()
                before = layers.REGISTRY.snapshot()
                traced = run_passes(workload, window, 1)
                layer_delta = layers.REGISTRY.since(before)
                layer_scale = workload.speed.scale_since(mark)
                ran += traced
                workload.close()
            finally:
                restore()
    finally:
        workload.close()
        workload.speed.stop()
    failed = sum(p.failed for p in ran) + workload.verify(ran)
    attempted = sum(p.attempted for p in ran)
    summary = {
        "workload": name,
        "passes": len(passes),
        "traced_passes": len(traced),
        "jobs": sum(len(p.latencies_s) for p in passes),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "host_wall_s": statistics.median([p.wall_s for p in passes]),
        "speed": statistics.median([calibrate.NOMINAL_S / p.scale for p in passes]),
        "results_digest": workload.results_digest(),
        "failures": workload.failures[:10],
    }
    if trace:
        import layers

        overhead = (
            statistics.median([p.wall_s * p.scale for p in traced])
            / statistics.median([p.wall_s * p.scale for p in passes])
            - 1.0
        ) * 100.0
        metrics = layers.layer_metrics(layer_delta, len(traced), layer_scale, {
            "mib": sum(p.mib for p in traced),
            "session_steps": sum(p.session_steps for p in traced),
            "overhead_pct": overhead,
        })
        units = dict(layers.LAYER_METRICS)
    else:
        metrics = end_to_end(passes, setup_times, rss_mb)
        units = dict(END_TO_END)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": units[key]}
                for key, value in metrics.items()
            },
        },
        "summary": summary,
    }


def format_summary(out: Dict[str, Any]) -> str:
    summary = out["summary"]
    lines = [
        f"workload {summary['workload']}: {summary['passes']} pass(es) "
        f"+ {summary['traced_passes']} traced, {summary['jobs']} jobs, "
        f"fail_ratio {summary['fail_ratio']:.6g}, "
        f"results_digest {summary['results_digest']}",
        f"  host wall_s median {summary['host_wall_s']:.6g} s; reference kernel "
        f"{summary['speed'] * 1e3:.4g} ms (nominal {calibrate.NOMINAL_S * 1e3:g} ms)",
    ]
    lines += [f"  FAIL {message}" for message in summary["failures"]]
    for key, metric in out["result"]["metrics"].items():
        if metric["value"]:
            lines.append(f"  {key:<34} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} holds no program source (src/repro); run from "
            "the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scratch = root / ".perfbench-work"
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(format_summary(out))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
