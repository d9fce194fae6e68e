"""Cross-engine agreement with the fluid reference (CHK501–CHK503).

The reproduction's numbers come from the fluid engine.  They can be
trusted only because every other registered engine reproduces them on
the paper's §4.2 static good/bad-WiFi downloads (Figures 5 and 6).
This module runs those matched scenarios — :class:`RunSpec` pairs that
differ only in ``engine`` — through the unified runner, so caching,
manifests and traces apply as for any other experiment, and reports
in the checker's :class:`~repro.check.findings.Report` vocabulary:

* **CHK501** — the reference/engine completion-time *or*
  energy-at-completion ratio leaves the band: within a factor of
  :data:`AGREEMENT_FACTOR` either way;
* **CHK502** — an agreement run raised or did not complete;
* **CHK503** — packet engine only: the receive-buffer head-of-line
  collapse (:func:`~repro.check.packet.hol_goodput_collapse`) no
  longer reproduces.

Which protocols are compared is declared per engine
(``Engine.agreement_protocols`` in :mod:`repro.engines`), so an engine
added to the registry is gated without edits here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.check.findings import Report
from repro.errors import ExecutionError, SimulationError
from repro.units import mib

if TYPE_CHECKING:
    from repro.runtime.spec import RunSpec

#: Agreement band: a reference/engine ratio must lie in
#: ``[1 / AGREEMENT_FACTOR, AGREEMENT_FACTOR]``.  A factor rather than
#: a ±fraction, so the band does not depend on which engine is the
#: numerator.  The engines model loss recovery and ramp-up differently;
#: EXPERIMENTS.md lists the measured ratios.
AGREEMENT_FACTOR = 1.3

#: A spec pair: (label, reference spec, engine spec).
SpecPair = Tuple[str, "RunSpec", "RunSpec"]


@dataclass(frozen=True)
class EngineComparison:
    """Both engines' outcome on one matched scenario."""

    engine: str
    label: str
    ref_time: float
    engine_time: float
    ref_energy_j: float
    engine_energy_j: float

    @property
    def ratio(self) -> float:
        """reference / engine completion time (1.0 = perfect agreement)."""
        return self.ref_time / self.engine_time

    @property
    def energy_ratio(self) -> float:
        """reference / engine energy at completion."""
        return self.ref_energy_j / self.engine_energy_j


def in_band(ratio: float) -> bool:
    """True when ``ratio`` is within :data:`AGREEMENT_FACTOR` of 1."""
    return 1.0 / AGREEMENT_FACTOR <= ratio <= AGREEMENT_FACTOR


def cross_engine_agreement_specs(
    engine: str, size_bytes: float = mib(2), seeds: Sequence[int] = (0,)
) -> List[SpecPair]:
    """Matched (label, reference spec, ``engine`` spec) triples.

    One pair per declared agreement protocol, WiFi quality and seed;
    an engine that declares no agreement protocols gets none.
    """
    from repro import engines as _engines
    from repro.experiments.static_bw import LAB_LTE_MBPS
    from repro.runtime.spec import RunSpec

    eng = _engines.get_engine(engine)
    pairs: List[SpecPair] = []
    for good, wifi_label in ((True, "good-wifi"), (False, "bad-wifi")):
        kwargs = {
            "good_wifi": good,
            "download_bytes": size_bytes,
            "lte_mbps": LAB_LTE_MBPS,
        }
        for protocol in eng.agreement_protocols:
            for seed in seeds:
                ref, other = [
                    RunSpec(protocol=protocol, builder="static",
                            kwargs=dict(kwargs), seed=seed, engine=name)
                    for name in (_engines.DEFAULT_ENGINE, eng.name)
                ]
                pairs.append(
                    (f"{protocol} on {wifi_label} seed {seed}", ref, other)
                )
    return pairs


def agreement_engines() -> Tuple[str, ...]:
    """Every registered engine gated against the reference: all but
    the reference itself that declare agreement protocols."""
    from repro import engines as _engines

    return tuple(
        name for name in _engines.engine_names()
        if name != _engines.DEFAULT_ENGINE
        and _engines.get_engine(name).agreement_protocols
    )


def all_engine_agreement_specs(
    size_bytes: float = mib(2), seeds: Sequence[int] = (0,)
) -> Dict[str, List[SpecPair]]:
    """:func:`cross_engine_agreement_specs` for every engine in
    :func:`agreement_engines`, keyed by engine name."""
    return {
        name: cross_engine_agreement_specs(name, size_bytes, seeds)
        for name in agreement_engines()
    }


def run_agreement(
    engine: str, size_bytes: float = mib(2), seeds: Sequence[int] = (0,)
) -> Tuple[Report, List[EngineComparison]]:
    """Run ``engine``'s matched pairs; CHK501/CHK502 per pair.

    Each pair runs as its own batch, so one failing run is reported
    against its scenario and does not hide the others.  Returns the
    report and the comparisons of every pair that completed.
    """
    from repro.runtime.executor import run_specs

    report = Report(tier="agreement")
    comparisons: List[EngineComparison] = []
    for label, ref_spec, engine_spec in cross_engine_agreement_specs(
        engine, size_bytes, seeds
    ):
        report.checked += 1
        context = f"{engine}: {label}"
        try:
            ref, res = run_specs([ref_spec, engine_spec])
        except ExecutionError as exc:
            report.add("CHK502", f"agreement run failed: {exc}",
                       context=context)
            continue
        if ref.download_time is None or res.download_time is None:
            report.add("CHK502", "agreement run did not complete",
                       context=context)
            continue
        comparison = EngineComparison(
            engine=engine,
            label=label,
            ref_time=ref.download_time,
            engine_time=res.download_time,
            ref_energy_j=ref.energy_at_completion_j,
            engine_energy_j=res.energy_at_completion_j,
        )
        comparisons.append(comparison)
        for what, ratio in (("completion time", comparison.ratio),
                            ("energy", comparison.energy_ratio)):
            if not in_band(ratio):
                report.add(
                    "CHK501",
                    f"{what} disagreement: reference/{engine} ratio "
                    f"{ratio:.2f} outside {1 / AGREEMENT_FACTOR:.2f}.."
                    f"{AGREEMENT_FACTOR:.2f}",
                    context=context,
                )
    return report, comparisons


def check_hol_collapse() -> Tuple[Report, Optional[Tuple[float, float]]]:
    """CHK503 on the packet engine's head-of-line collapse.

    With a small receive buffer and a slow, laggy second path, packet
    MPTCP must be *slower* than the fast path alone, or the packet
    engine has lost the effect the Bad/Bad analysis depends on.
    Returns the report and ``(fast_alone_s, mptcp_s)``, or None for
    the times when a run failed (CHK502).
    """
    from repro.check.packet import hol_goodput_collapse

    report = Report(tier="agreement")
    report.checked += 1
    try:
        alone, together = hol_goodput_collapse()
    except SimulationError as exc:
        report.add("CHK502", f"head-of-line run failed: {exc}",
                   context="packet: hol-collapse")
        return report, None
    if together <= alone:
        report.add(
            "CHK503",
            f"head-of-line collapse not reproduced: MPTCP with a bad "
            f"second path finished in {together:.2f}s, faster than the "
            f"fast path alone ({alone:.2f}s)",
            context="packet: hol-collapse",
        )
    return report, (alone, together)
