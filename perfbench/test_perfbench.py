"""Fast self-test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload at a tiny size, untraced and traced, and checks
that the printed metric names and units are exactly the ones
``BENCHMARK.json`` declares; that a forced failure is counted; and
that a directory holding only the benchmark refuses to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    path = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def tiny(name: str, work_dir: Path, trace: bool = False) -> dict:
    return run.measure(name, 3, 0.0, trace, work_dir, tiny=True, probes=1)


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_metrics_match_the_declaration(name, work_dir):
    out = tiny(name, work_dir)
    result = out["result"]
    assert result["correct"], out["summary"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_metrics_match_the_declaration(name, work_dir):
    out = tiny(name, work_dir, trace=True)
    result = out["result"]
    assert result["correct"], out["summary"]["failures"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_traced_run_attributes_the_runtime_layers(work_dir):
    metrics = tiny("runtime-cache", work_dir, trace=True)["result"]["metrics"]
    assert metrics["experiments.run_scenario_s"]["value"] > 0
    assert metrics["tcp.handler_calls"]["value"] > 0
    assert metrics["runtime.cache.put_s"]["value"] > 0
    assert metrics["runtime.store.get_s"]["value"] > 0
    # The cold call misses every spec, the warm call hits every one.
    assert metrics["runtime.cache.hit_ratio"]["value"] == pytest.approx(0.5)


def test_forced_failure_is_counted(work_dir, monkeypatch):
    from repro.runtime.spec import RunSpec

    original = RunSpec.execute

    def execute(self):
        if self.protocol == "mptcp" and not self.kwargs.get("good_wifi"):
            raise RuntimeError("forced failure")
        return original(self)

    monkeypatch.setattr(RunSpec, "execute", execute)
    out = tiny("packet-fig56", work_dir)
    result = out["result"]
    assert not result["correct"]
    # One of four runs fails in each of the warm-up and two passes.
    assert result["failed"] == 3 and result["attempted"] == 12
    assert out["summary"]["fail_ratio"] == pytest.approx(0.25)


def test_bare_benchmark_directory_refuses_to_run(work_dir):
    bare = work_dir / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fleet-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
