"""Named controller specs: recipes for ``controller_factory`` made of data.

* :mod:`repro.exec.specs` — a static table of controller names, each a
  controller class and its parameter dataclass.  A spec compares,
  hashes, pickles and prints by value.
"""

from repro.exec.specs import ControllerSpec, available_specs, spec

__all__ = [
    "ControllerSpec",
    "available_specs",
    "spec",
]
