"""eMPTCP — the paper's primary contribution.

The four components of Figure 2, layered on the MPTCP substrate:

* :mod:`repro.core.predictor` — the bandwidth predictor (§3.2), built
  from per-subflow samplers (:mod:`repro.core.sampler`) and Holt-Winters
  forecasters (:mod:`repro.core.forecast`);
* :mod:`repro.core.eib` — the energy information base (§3.3, Table 2);
* :mod:`repro.core.controller` — the path usage controller with its 10%
  safety factor (§3.4);
* :mod:`repro.control.delay` — delayed subflow establishment (§3.5,
  equation (1)), shared with the packet engine;
* :mod:`repro.core.emptcp` — :class:`EMPTCPConnection`, wiring them all
  onto an :class:`~repro.mptcp.connection.MPTCPConnection` (§3.6).
"""

from repro.control.delay import minimum_tau
from repro.core.config import EMPTCPConfig
from repro.core.controller import PathDecision, PathUsageController
from repro.core.eib import EibEntry, EnergyInformationBase
from repro.core.emptcp import EMPTCPConnection
from repro.core.forecast import HoltWintersForecaster
from repro.core.predictor import BandwidthPredictor
from repro.core.sampler import ThroughputSampler

__all__ = [
    "BandwidthPredictor",
    "EMPTCPConfig",
    "EMPTCPConnection",
    "EibEntry",
    "EnergyInformationBase",
    "HoltWintersForecaster",
    "PathDecision",
    "PathUsageController",
    "ThroughputSampler",
    "minimum_tau",
]
