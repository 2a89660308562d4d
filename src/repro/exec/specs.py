"""Named, picklable controller specifications.

:class:`repro.experiments.harness.ExperimentConfig` takes a zero-argument
``controller_factory``.  A :class:`ControllerSpec` is such a factory made
of *data*: a name from the table below plus a frozen tuple of keyword
parameters.  It compares and hashes by value, pickles, and prints as
its name and parameters, so a config that holds one can be keyed,
compared and logged (the validate matrix and the benchmark build every
cell this way).

Each name maps to a controller class and the dataclass its parameters
route into, or to a class that takes its parameters as keywords; a
spec without parameters builds the class's default controller.
:func:`spec` builds the controller once, so a parameter the class does
not take raises when the spec is made, not when a run starts.

>>> spec("surgeguard", firstresponder=False)()   # doctest: +ELLIPSIS
<repro.core.surgeguard.SurgeGuardController object at ...>
>>> spec("lsram", interval=0.1)   # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
TypeError: ...got an unexpected keyword argument 'interval'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.controllers.base import Controller
from repro.controllers.caladan import CaladanController
from repro.controllers.horizontal import HorizontalAutoscaler, HpaParams, HybridController
from repro.controllers.lsram import LsramController
from repro.controllers.ml_central import CentralizedMLController
from repro.controllers.null import NullController
from repro.controllers.parties import PartiesController
from repro.controllers.statuscale import StatuScaleController
from repro.core.config import SurgeGuardConfig
from repro.core.surgeguard import SurgeGuardController

__all__ = ["ControllerSpec", "available_specs", "spec"]


def _escalator_config(**kw: Any) -> SurgeGuardConfig:
    """SurgeGuard slow path only (FirstResponder off): the Fig. 10/15 arms."""
    return SurgeGuardConfig(firstresponder=False, **kw)


#: name -> (controller class, its parameter type or ``None`` when the
#: class takes its parameters, if any, as keywords).  ``hybrid``'s
#: parameters tune its HPA half.
_SPECS: Dict[str, Tuple[Callable[..., Controller], Optional[Callable[..., Any]]]] = {
    "null": (NullController, None),
    "parties": (PartiesController, None),
    "caladan": (CaladanController, None),
    "ml-central": (CentralizedMLController, None),
    "hpa": (HorizontalAutoscaler, HpaParams),
    "hybrid": (HybridController, HpaParams),
    "surgeguard": (SurgeGuardController, SurgeGuardConfig),
    "escalator": (SurgeGuardController, _escalator_config),
    "statuscale": (StatuScaleController, None),
    "lsram": (LsramController, None),
}


def available_specs() -> Tuple[str, ...]:
    """Spec names, sorted."""
    return tuple(sorted(_SPECS))


def _lookup(name: str):
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown controller spec {name!r}; known: {', '.join(available_specs())}"
        ) from None


@dataclass(frozen=True)
class ControllerSpec:
    """A named controller recipe: table key + keyword parameters.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable and order-insensitive; values must themselves be picklable
    (scalars in practice).  Calling the spec builds a fresh controller.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    def __call__(self) -> Controller:
        cls, params = _lookup(self.name)
        kw = dict(self.params)
        return cls(**kw) if params is None else cls(params(**kw))


def spec(name: str, **params: Any) -> ControllerSpec:
    """Build a :class:`ControllerSpec`, validating it eagerly.

    The controller is built once and discarded, so an unknown name, a
    parameter the controller does not take and a value its checks
    reject all raise here.
    """
    made = ControllerSpec(name, tuple(sorted(params.items())))
    made()
    return made
