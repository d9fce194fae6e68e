"""Property-style fluid-vs-flow agreement sweep (the CHK501 band).

Every static single-user scenario the paper's §4.2 analysis rests on
must produce the same completion time and energy-at-completion on the
analytic tier as on the fluid reference, within the shared agreement
band (:func:`repro.check.agreement.in_band`) — and ``engine="flow"``
must be a first-class citizen of the runtime (distinct cache keys,
labelled results).
"""

import pytest

from repro.check.agreement import in_band
from repro.experiments.runner import run_scenario
from repro.experiments.static_bw import static_scenario
from repro.runtime.spec import RunSpec
from repro.units import mib

# (label, good_wifi, protocol, lte_mbps, seed) — 6 static scenarios
# spanning both WiFi qualities and every flow-tier protocol.
SWEEP = [
    ("good/tcp-wifi", True, "tcp-wifi", 10.0, 0),
    ("good/mptcp", True, "mptcp", 10.0, 0),
    ("good/emptcp", True, "emptcp", 10.0, 0),
    ("bad/tcp-wifi", False, "tcp-wifi", 10.0, 0),
    ("bad/mptcp", False, "mptcp", 10.0, 1),
    ("bad/emptcp", False, "emptcp", 10.0, 2),
]


class TestFlowFluidAgreement:
    @pytest.mark.parametrize(
        "label,good,protocol,lte,seed",
        SWEEP,
        ids=[row[0] for row in SWEEP],
    )
    def test_static_scenario_within_band(self, label, good, protocol,
                                         lte, seed):
        scenario = static_scenario(
            good, download_bytes=mib(2), lte_mbps=lte
        )
        fluid = run_scenario(protocol, scenario, seed=seed, engine="fluid")
        flow = run_scenario(protocol, scenario, seed=seed, engine="flow")
        assert fluid.download_time is not None
        assert flow.download_time is not None
        t_ratio = fluid.download_time / flow.download_time
        assert in_band(t_ratio), f"{label}: time ratio {t_ratio:.2f}"
        e_ratio = (
            fluid.energy_at_completion_j / flow.energy_at_completion_j
        )
        assert in_band(e_ratio), f"{label}: energy ratio {e_ratio:.2f}"

    def test_emptcp_good_wifi_skips_cell_on_both_engines(self):
        scenario = static_scenario(True, download_bytes=mib(2))
        flow = run_scenario("emptcp", scenario, seed=0, engine="flow")
        assert flow.diagnostics.get("cell_established") == 0.0


class TestEngineIdentity:
    def _spec(self, engine):
        return RunSpec(
            protocol="emptcp",
            builder="static",
            kwargs={"good_wifi": True, "download_bytes": mib(2)},
            seed=0,
            engine=engine,
        )

    def test_flow_engine_has_distinct_cache_key(self):
        hashes = {self._spec(e).content_hash()
                  for e in ("fluid", "packet", "flow")}
        assert len(hashes) == 3

    def test_flow_engine_label_suffix(self):
        assert self._spec("flow").label.endswith("@flow")
        assert "@" not in self._spec("fluid").label

    def test_flow_spec_passes_pre_dispatch_checks(self):
        from repro.check.config import check_run_spec

        assert check_run_spec(self._spec("flow")) == []

    def test_unsupported_protocol_flagged_chk243(self):
        from repro.check.config import check_run_spec

        spec = RunSpec(
            protocol="mdp",
            builder="static",
            kwargs={"good_wifi": True},
            seed=0,
            engine="flow",
        )
        findings = check_run_spec(spec)
        assert any(f.rule == "CHK243" for f in findings)
