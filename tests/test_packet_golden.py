"""Exact-result golden for the packet engine.

``engine_agreement.golden.json`` rounds completion times to three
decimals, so it cannot see a last-bit drift in the segment-level
stack.  This golden holds the sha256 of each run's canonical
``RunResult.to_dict()``: any change to event order, RTT sampling,
SACK bookkeeping or loss recovery that moves a single float changes
a digest.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_packet_golden.py > tests/data/packet_results.golden.json
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments.static_bw import static_scenario
from repro.packet.runner import run_packet_scenario
from repro.units import mib

GOLDEN = Path(__file__).resolve().parent / "data" / "packet_results.golden.json"

#: Payload per run, bytes.
SIZE = mib(2)

#: label -> (protocol, scenario factory, seed)
RUNS = {
    f"{protocol} {wifi}-wifi": (
        protocol,
        lambda good=(wifi == "good"): static_scenario(good, download_bytes=SIZE),
        0,
    )
    for wifi in ("good", "bad")
    for protocol in ("emptcp", "mptcp")
}
# 2% loss exercises SACK recovery; at 10% retransmission timeouts fire
# too (none of the runs above has one).
for loss_pct in (2, 10):
    RUNS[f"tcp-wifi lossy-{loss_pct}pct"] = (
        "tcp-wifi",
        lambda loss=loss_pct / 100: dataclasses.replace(
            static_scenario(True, download_bytes=SIZE), wifi_loss=loss
        ),
        0,
    )


def canonical_digest(result_dict: Dict[str, Any]) -> str:
    text = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(label: str) -> str:
    protocol, scenario, seed = RUNS[label]
    return canonical_digest(run_packet_scenario(protocol, scenario(), seed).to_dict())


@pytest.mark.parametrize("label", sorted(RUNS))
def test_packet_result_matches_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert golden["size_mib"] == SIZE / mib(1)
    assert run_digest(label) == golden["digests"][label]


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())["digests"]) == sorted(RUNS)


if __name__ == "__main__":
    doc = {
        "size_mib": SIZE / mib(1),
        "digests": {label: run_digest(label) for label in sorted(RUNS)},
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
