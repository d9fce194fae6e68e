"""Injected-slowdown demo: proof that the benchmark sees a regression.

    python3 perfbench/slowdown_demo.py [--runs 3] [--seconds 8]

Run from the root of a source checkout.  Wraps one layer's public
method, ``FleetEngine.step`` (the flow layer), so that every call
takes 25% longer, and measures two workloads with and without it, in
alternating runs:

* ``fleet-10k`` stresses that layer: its ``wall_s`` must worsen by
  more than the bound ``BENCHMARK.json`` fixes;
* ``packet-fig56`` bypasses it: its ``wall_s`` must stay within the
  bound.

A traced run of the stressed workload with and without the slowdown
must then name ``flow.step_s`` as the layer whose self time grew most.
Exits 0 when all three hold.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

BENCH_DIR = Path(__file__).resolve().parent

SLOWDOWN = 0.25
STRESSED = "fleet-10k"
BYPASSED = "packet-fig56"
METRIC = "wall_s"
LAYER_METRIC = "flow.step_s"


def slow_down(fraction: float) -> Callable[[], None]:
    """Make ``FleetEngine.step`` spin ``fraction`` of its own time
    longer after each call; returns the undo function."""
    from repro.flow.engine import FleetEngine

    original = FleetEngine.__dict__["step"]

    @functools.wraps(original)
    def step(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            end = time.perf_counter()
            deadline = end + (end - start) * fraction
            while time.perf_counter() < deadline:
                pass

    FleetEngine.step = step

    def undo() -> None:
        FleetEngine.step = original

    return undo


def measure(name: str, seed: int, seconds: float, trace: bool, slow: bool,
            work_dir: Path) -> Dict[str, float]:
    import run

    undo = slow_down(SLOWDOWN) if slow else None
    try:
        out = run.measure(name, seed, seconds, trace, work_dir, probes=1)
    finally:
        if undo is not None:
            undo()
    result = out["result"]
    if not result["correct"]:
        raise SystemExit(f"{name}: outputs failed their checks: "
                         f"{out['summary']['failures']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}[METRIC]
    work_dir = root / ".perfbench-work" / "slowdown-demo"
    ok = True
    try:
        for name, stressed in ((STRESSED, True), (BYPASSED, False)):
            base: List[float] = []
            slow: List[float] = []
            for i in range(args.runs):
                # Alternate which side runs first, so drift cancels.
                order = (False, True) if i % 2 == 0 else (True, False)
                for slowed in order:
                    value = measure(name, i, args.seconds, False, slowed,
                                    work_dir)[METRIC]
                    (slow if slowed else base).append(value)
            change = statistics.median(slow) / statistics.median(base) - 1.0
            flagged = change > bound
            want = "flagged" if stressed else "not flagged"
            verdict = "ok" if flagged == stressed else "WRONG"
            ok &= flagged == stressed
            print(f"{name:<13} {METRIC} base {statistics.median(base):.4g} "
                  f"slowed {statistics.median(slow):.4g} change "
                  f"{change * 100:+.1f}% vs bound {bound * 100:.0f}%: "
                  f"{'flagged' if flagged else 'not flagged'} "
                  f"(want {want}) {verdict}")
        base_t = measure(STRESSED, 0, args.seconds, True, False, work_dir)
        slow_t = measure(STRESSED, 0, args.seconds, True, True, work_dir)
        grown = sorted(
            (
                (slow_t[k] - base_t[k], k)
                for k in base_t
                if k.endswith("_s") and (base_t[k] or slow_t[k])
            ),
            reverse=True,
        )
        print("per-layer self-time growth under the slowdown:")
        for delta, key in grown[:5]:
            print(f"  {key:<28} {base_t[key]:.4g} s -> {slow_t[key]:.4g} s "
                  f"({delta:+.4g} s)")
        top = grown[0][1]
        print(f"top layer: {top} (want {LAYER_METRIC}) "
              f"{'ok' if top == LAYER_METRIC else 'WRONG'}")
        ok &= top == LAYER_METRIC
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
