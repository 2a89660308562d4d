"""Parallel experiment execution: controller specs and process-pool fan-out.

* :mod:`repro.exec.specs` — named, picklable controller recipes that
  replace closure factories in :class:`ExperimentConfig`;
* :mod:`repro.exec.pool` — repetition fan-out across a
  ``ProcessPoolExecutor``, bit-identical to serial execution.
"""

from repro.exec.specs import ControllerSpec, available_specs, register_controller, spec

__all__ = [
    "ControllerSpec",
    "available_specs",
    "register_controller",
    "spec",
]
