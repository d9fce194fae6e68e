"""Cross-model validation tests: fluid vs packet engines."""

import pytest

from repro.net.interface import InterfaceKind
from repro.check.packet import (
    ModelComparison,
    PathSpec,
    compare_single_path,
    fluid_mptcp_time,
    fluid_single_path_time,
    hol_goodput_collapse,
    packet_mptcp_time,
    packet_single_path_time,
)
from repro.units import mbps_to_bytes_per_sec, mib


class TestSinglePathAgreement:
    def test_clean_paths_agree_within_15pct(self):
        """On loss-free paths the two engines' completion times agree —
        this is the foundation the reproduction's numbers rest on."""
        specs = [
            ("fast", PathSpec(8.0, 0.05)),
            ("slow", PathSpec(2.0, 0.10)),
            ("high-rtt", PathSpec(6.0, 0.20)),
        ]
        for comparison in compare_single_path(specs, size_bytes=mib(4)):
            assert 0.85 < comparison.ratio < 1.15, comparison.label

    def test_lossy_path_fluid_is_optimistic_but_bounded(self):
        """Under random loss the fluid model is known to be optimistic
        (one loss event per round vs per-segment losses); the divergence
        stays within a factor ~2 (documented in docs/MODEL.md)."""
        spec = PathSpec(12.0, 0.04, loss=0.005)
        fluid = fluid_single_path_time(spec, mib(4))
        packet = packet_single_path_time(spec, mib(4))
        assert 0.35 < fluid / packet <= 1.1

    def test_ratio_property(self):
        c = ModelComparison("x", 1.0, fluid_time=2.0, packet_time=4.0)
        assert c.ratio == 0.5


class TestMptcpAgreement:
    SPECS = [
        PathSpec(8.0, 0.04),
        PathSpec(6.0, 0.07, kind=InterfaceKind.LTE),
    ]

    def test_both_engines_beat_the_best_single_path(self):
        alone = mib(8) / mbps_to_bytes_per_sec(8.0)
        fluid = fluid_mptcp_time(self.SPECS, mib(8))
        packet, _ = packet_mptcp_time(self.SPECS, mib(8))
        assert fluid < alone
        assert packet < alone

    def test_fluid_matches_constrained_receive_buffer_regime(self):
        """The fluid scheduler-utilization model corresponds to a
        phone-typical constrained receive buffer: its completion time
        lands between the packet engine's 128 KB and 512 KB regimes."""
        fluid = fluid_mptcp_time(self.SPECS, mib(8))
        small, _ = packet_mptcp_time(self.SPECS, mib(8), rcv_buffer=128_000.0)
        large, _ = packet_mptcp_time(self.SPECS, mib(8), rcv_buffer=512_000.0)
        assert large < fluid < small

    def test_receive_buffer_monotonicity(self):
        times = [
            packet_mptcp_time(self.SPECS, mib(8), rcv_buffer=buf)[0]
            for buf in (96_000.0, 256_000.0, 1_000_000.0)
        ]
        assert times[0] > times[1] > times[2] * 0.95


class TestHolPathology:
    def test_mptcp_can_lose_to_single_path(self):
        """The Bad/Bad mechanism: a slow, laggy second path plus a small
        receive buffer makes MPTCP *slower* than the fast path alone."""
        alone, together = hol_goodput_collapse()
        assert together > alone

    def test_reinjection_bounds_the_damage(self):
        """Opportunistic reinjection (Raiciu et al. NSDI'12) keeps the
        slow-path penalty bounded at every buffer size — matching the
        paper's observation that MPTCP in Bad/Bad conditions is merely
        unremarkable, not catastrophic."""
        for buf in (64_000.0, 500_000.0, 4_000_000.0):
            alone, together = hol_goodput_collapse(rcv_buffer=buf)
            assert together <= alone * 1.3, buf


class TestOnOffAgreement:
    def test_onoff_modulation_agreement(self):
        """Under the §4.3 on/off WiFi modulation (the Figure 7/8
        condition) the two engines agree within 10% on paired sample
        paths."""
        from repro.check.packet import compare_onoff_single_path

        for c in compare_onoff_single_path(size_bytes=mib(16), seeds=(1, 2)):
            assert 0.9 < c.ratio < 1.1, c.label


class TestEngineAgreementGolden:
    def test_agreement_report_matches_golden(self, test_data_dir):
        """The unified-runner agreement table (what `repro.cli validate`
        prints) against a checked-in golden: labels and verdict exact,
        ratios within a drift band."""
        import json

        from repro.check.packet import run_engine_agreement

        golden = json.loads(
            (test_data_dir / "engine_agreement.golden.json").read_text()
        )
        report, comparisons = run_engine_agreement(
            size_bytes=mib(golden["size_mib"])
        )
        assert report.ok is golden["ok"]
        assert [c.label for c in comparisons] == [
            g["label"] for g in golden["comparisons"]
        ]
        for c, g in zip(comparisons, golden["comparisons"]):
            assert c.ratio == pytest.approx(g["ratio"], abs=0.15), c.label
