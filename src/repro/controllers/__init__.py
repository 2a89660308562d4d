"""Resource controllers: baselines and the controller interface.

The paper evaluates three controllers (§V "Controllers Evaluated"):

* **Parties** — the heuristic per-container FSM of Chen et al.
  (ASPLOS'19), reimplemented per the authors' open-source code;
* **CaladanAlgo** — the Caladan core-allocation algorithm (Fried et
  al., OSDI'20) ported to a userspace controller, using the paper's
  ``queueBuildup`` metric in place of network-queue visibility;
* **SurgeGuard** — the contribution, in :mod:`repro.core`.

This package holds the first two plus the shared interface, the
do-nothing :class:`NullController` (static allocation), and the
clairvoyant :class:`OracleController` used for the Fig. 4
detection-delay study.

Beyond the paper, the **controller zoo** (DESIGN.md §11) reproduces
related-work baselines as plugins consuming the same runtime metrics:

* **StatuScale** (Wen et al., arXiv:2407.10173) — status-aware load
  detection on a sliding window of per-container CPU-usage samples,
  driving a usage-headroom vertical sizer with a latency correction
  factor on top;
* **LSRAM** (Hu et al., arXiv:2411.11493) — per-service SLO resource
  allocation re-solved each cycle by projected gradient descent under
  the node core budget.
"""

from repro.controllers.base import Controller, ControllerStats
from repro.controllers.targets import TargetConfig
from repro.controllers.null import NullController
from repro.controllers.oracle import OracleController
from repro.controllers.parties import PartiesController
from repro.controllers.caladan import CaladanController
from repro.controllers.lsram import LsramController
from repro.controllers.ml_central import CentralizedMLController
from repro.controllers.statuscale import StatuScaleController
from repro.controllers.horizontal import (
    HorizontalAutoscaler,
    HpaParams,
    HybridController,
)

__all__ = [
    "CaladanController",
    "CentralizedMLController",
    "Controller",
    "ControllerStats",
    "HorizontalAutoscaler",
    "HpaParams",
    "HybridController",
    "LsramController",
    "NullController",
    "OracleController",
    "PartiesController",
    "StatuScaleController",
    "TargetConfig",
]
