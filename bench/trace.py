"""Per-layer wall-time ledger for one traced run, built from outside ``repro``.

:class:`Tracer` patches public entry points of the simulator at class
level before the cluster is built, so every bound method the cluster
captures is already wrapped:

* ``Simulator.schedule_at`` is wrapped so that every scheduled handler
  runs inside a span charged to the module that defined it;
* the layer entry points in :data:`ENTRY_POINTS` become spans of their
  own layer;
* ``Simulator.run`` installs a ``trace_hook`` that samples
  ``events_pending`` every :data:`PENDING_EVERY` events.

Spans nest on one stack, so a span's self time is its duration minus the
time of the spans it encloses, and the self times of all spans add up to
the outermost span.  The outermost span's own self time is what no layer
was charged with (``unattributed_s`` in the report), and the number of
handler spans must equal the events the simulator fired: together they
show that no work escaped the tracer.  Aggregates are kept per site
(entry point, or the module of a handler) and rolled up to layers named
after ``repro`` modules.  :meth:`Tracer.uninstall` puts every original back;
:meth:`Tracer.restored` proves it.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Dict, List, Tuple

__all__ = ["ENTRY_POINTS", "PENDING_EVERY", "Tracer", "layer_of"]

#: Sample ``events_pending`` once per this many fired events.
PENDING_EVERY = 64

#: (module, class or None for a module global, attribute, layer).
ENTRY_POINTS: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.sim.engine", "Simulator", "schedule_at", "sim"),
    ("repro.sim.engine", "EventHandle", "cancel", "sim"),
    ("repro.cluster.network", "Network", "send", "network"),
    ("repro.cluster.loadbalancer", "ReplicaSet", "resolve", "lb"),
    ("repro.cluster.invocation", "ServiceInstance", "handle_packet", "invocation"),
    ("repro.cluster.container", "Container", "submit", "container"),
    ("repro.cluster.container", "Container", "set_cores", "container"),
    ("repro.cluster.container", "Container", "set_frequency", "container"),
    ("repro.core.firstresponder", "FirstResponder", "on_packet", "firstresponder"),
    ("repro.core.escalator", "Escalator", "decide", "controller"),
    ("repro.controllers.horizontal", "HorizontalAutoscaler", "_decide", "controller"),
    ("repro.experiments.harness", None, "summarize", "metrics"),
)

#: Module prefix -> layer, most specific first.
_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.", "sim"),
    ("repro.workload.", "workload"),
    ("repro.cluster.network", "network"),
    ("repro.cluster.packet", "network"),
    ("repro.cluster.node", "network"),
    ("repro.cluster.loadbalancer", "lb"),
    ("repro.cluster.invocation", "invocation"),
    ("repro.cluster.runtime", "invocation"),
    ("repro.cluster.threadpool", "invocation"),
    ("repro.cluster.container", "container"),
    ("repro.cluster.frequency", "container"),
    ("repro.cluster.energy", "container"),
    ("repro.cluster.interference", "container"),
    # Cluster-level code that runs mid-simulation is the replica tier.
    ("repro.cluster.", "lb"),
    ("repro.core.firstresponder", "firstresponder"),
    ("repro.core.", "controller"),
    ("repro.controllers.", "controller"),
    ("repro.faults.", "rpc"),
    ("repro.metrics.", "metrics"),
    ("repro.experiments.", "harness"),
    ("repro.exec.", "harness"),
)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (``"other"`` outside it)."""
    for prefix, layer in _LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Span ledger plus the class-level patches that feed it."""

    def __init__(self) -> None:
        #: site -> [calls, total seconds, self seconds]
        self.sites: Dict[str, List[float]] = {}
        #: site -> layer
        self.site_layer: Dict[str, str] = {}
        #: (caller site, callee site) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        self.pending_samples = 0
        self.pending_sum = 0
        self.pending_peak = 0
        #: Scheduled handlers the engine fired through the tracer.
        self.handler_calls = 0
        self._root_site = None
        #: Entry points absent from the ``repro`` on the path.
        self.missing: List[str] = []
        # Each frame is [site, seconds spent in enclosed spans].
        self._stack: List[list] = [["<root>", 0.0]]
        self._patches: List[Tuple[object, str, bool, object]] = []

    # ----------------------------------------------------------------- spans
    def span(self, site: str, fn, args, kwargs=None):
        """Call ``fn(*args, **kwargs)`` as one span of ``site``."""
        stack = self._stack
        parent = stack[-1]
        frame = [site, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            parent[1] += dt
            st = self.sites.get(site)
            if st is None:
                st = self.sites[site] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[1]
            key = (parent[0], site)
            self.edges[key] = self.edges.get(key, 0) + 1

    def _handler(self, site: str, fn, *args):
        """What the engine fires in place of a traced handler."""
        self.handler_calls += 1
        return self.span(site, fn, args)

    def root(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as an outermost span charged to ``layer``."""
        site = self._root_site = fn.__name__
        self.site_layer[site] = layer
        return self.span(site, fn, args, kwargs)

    # --------------------------------------------------------------- patches
    def install(self) -> None:
        """Wrap every entry point that exists in the ``repro`` on the path."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, cls, attr, layer in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{cls or ''}.{attr}")
                continue
            site = f"{cls}.{attr}" if cls else attr
            self.site_layer[site] = layer
            own = attr in vars(owner)
            self._patches.append((owner, attr, own, original))
            setattr(owner, attr, self._wrapper(site, attr, original))

    def _wrapper(self, site: str, attr: str, original):
        span = self.span
        if attr == "schedule_at":
            handler = self._handler
            site_layer = self.site_layer

            @functools.wraps(original)
            def schedule_at(sim, time, fn, *args):
                module = getattr(fn, "__module__", None) or "other"
                if module not in site_layer:
                    site_layer[module] = layer_of(module)
                return span(site, original, (sim, time, handler, module, fn) + args)

            return schedule_at
        if attr == "run":
            tracer = self

            @functools.wraps(original)
            def run(sim, *args, **kwargs):
                previous = sim.trace_hook
                sim.trace_hook = tracer._pending_sampler(sim)
                try:
                    return span(site, original, (sim,) + args, kwargs)
                finally:
                    sim.trace_hook = previous

            return run

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return span(site, original, args, kwargs)

        return wrapper

    def _pending_sampler(self, sim):
        countdown = [PENDING_EVERY]

        def hook(_time, _fn, _args):
            countdown[0] -= 1
            if countdown[0]:
                return
            countdown[0] = PENDING_EVERY
            pending = sim.events_pending
            self.pending_samples += 1
            self.pending_sum += pending
            if pending > self.pending_peak:
                self.pending_peak = pending

        return hook

    def uninstall(self) -> None:
        """Put every patched attribute back as it was."""
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def restored(self) -> bool:
        """True when every patched attribute is its original again."""
        for owner, attr, own, original in self._patches:
            if own:
                if vars(owner).get(attr) is not original:
                    return False
            elif attr in vars(owner):
                return False
        return True

    # ---------------------------------------------------------------- report
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, total and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for site, (calls, total, self_s) in self.sites.items():
            row = out.setdefault(
                self.site_layer.get(site, "other"),
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def layer_edges(self) -> Dict[str, int]:
        """Caller-layer -> callee-layer span counts, as ``"a->b"`` keys."""
        out: Dict[str, int] = {}
        for (caller, callee), n in self.edges.items():
            key = (
                f"{self.site_layer.get(caller, caller)}->"
                f"{self.site_layer.get(callee, 'other')}"
            )
            out[key] = out.get(key, 0) + n
        return out

    def report(self) -> dict:
        """JSON-ready ledger of the run."""
        _calls, root_s, unattributed_s = self.sites.get(self._root_site, (0, 0.0, 0.0))
        return {
            "root_s": root_s,
            "unattributed_s": unattributed_s,
            "handler_calls": self.handler_calls,
            "layers": self.layers(),
            "layer_edges": self.layer_edges(),
            "sites": {
                site: {
                    "layer": self.site_layer.get(site, "other"),
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                for site, (calls, total, self_s) in self.sites.items()
            },
            "pending": {
                "samples": self.pending_samples,
                "mean": self.pending_sum / self.pending_samples
                if self.pending_samples
                else 0.0,
                "peak": self.pending_peak,
                "every": PENDING_EVERY,
            },
            "missing_entry_points": list(self.missing),
        }
