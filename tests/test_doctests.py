"""Doc-adjacent behaviour tests: the claims made in module docstrings
and DESIGN.md are executable here, so documentation cannot silently rot.
"""

import ast
import re

import pytest

from repro.control.delay import minimum_tau
from repro.core.eib import cached_eib
from repro.energy.device import GALAXY_S3
from repro.energy.efficiency import Strategy, per_byte_energy
from repro.net.interface import InterfaceKind
from repro.units import mbps_to_bytes_per_sec


class TestDesignDocClaims:
    def test_design_calibration_example_lte1(self):
        """DESIGN.md §5: 'the WiFi-only threshold lands at ≈0.53x the
        LTE throughput and the LTE-only threshold at ≈0.13x'."""
        eib = cached_eib(GALAXY_S3)
        cell_only, wifi_only = eib.thresholds(1.0)
        assert wifi_only == pytest.approx(0.53, abs=0.05)
        assert cell_only == pytest.approx(0.13, abs=0.03)

    def test_paper_hysteresis_worked_example(self):
        """§3.4's worked example: at LTE 1 Mbps and a ~0.5 WiFi-only
        threshold, the BOTH->WIFI_ONLY switch needs threshold x 1.1 and
        the reverse threshold x 0.9."""
        eib = cached_eib(GALAXY_S3)
        _cell, wifi_thr = eib.thresholds(1.0)
        up = wifi_thr * 1.1
        down = wifi_thr * 0.9
        assert down < wifi_thr < up
        # Matches the paper's 0.452 / 0.502 / 0.552 structure (scaled to
        # our calibrated threshold).
        assert up / down == pytest.approx(0.552 / 0.452, rel=0.01)

    def test_scheduler_utilization_docstring_numbers(self):
        """mptcp.connection docstring: 'with WiFi at 12 Mbps an LTE
        subflow capable of 10 Mbps gets ~45% of it; with WiFi collapsed
        to 0.5 Mbps it gets ~95%'."""
        cap = mbps_to_bytes_per_sec(10.0)
        fast_pref = mbps_to_bytes_per_sec(12.0)
        slow_pref = mbps_to_bytes_per_sec(0.5)
        assert cap / (cap + fast_pref) == pytest.approx(0.45, abs=0.01)
        assert cap / (cap + slow_pref) == pytest.approx(0.95, abs=0.01)

    def test_paper_tau_bound_example(self):
        """§4.1: 'the estimated condition based on equation (1) to
        guarantee ten bandwidth samples is τ >= 2.67 s' — our
        implementation lands in that neighbourhood for a plausible
        campus-WiFi operating point."""
        tau = minimum_tau(
            mbps_to_bytes_per_sec(10.0), wifi_rtt=0.2, required_samples=10
        )
        assert 2.0 < tau < 3.0

    def test_kappa_design_point(self):
        """§4.1: 'MPTCP is rarely more energy efficient than single
        path TCP when downloading a file smaller than [1 MB]' — at the
        EIB level the steady-state BOTH advantage over WiFi-only for a
        mid-V operating point is smaller than LTE's fixed overhead when
        spread over 1 MB."""
        wifi, lte = 0.3, 1.0  # inside the V
        both = per_byte_energy(GALAXY_S3, Strategy.BOTH, wifi, lte)
        wifi_only = per_byte_energy(GALAXY_S3, Strategy.WIFI_ONLY, wifi, lte)
        saving_per_mb = (wifi_only - both) * 1_000_000.0
        assert saving_per_mb < GALAXY_S3.fixed_overhead(InterfaceKind.LTE)


class TestRuleCatalog:
    def test_every_rule_id_has_a_checks_md_row(self, repo_root):
        """Every ``"CHKnnn"``/``"REPnnn"`` literal the checkers emit has
        a ``| CHKnnn |`` row in CHECKS.md, and every row names a rule
        the code still emits."""
        rule = re.compile(r"(CHK|REP)\d{3}")
        emitted = set()
        for path in (repo_root / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and rule.fullmatch(node.value)):
                    emitted.add(node.value)
        catalog = set(re.findall(
            r"^\| ((?:CHK|REP)\d{3}) \|",
            (repo_root / "CHECKS.md").read_text(),
            flags=re.MULTILINE,
        ))
        assert emitted == catalog
