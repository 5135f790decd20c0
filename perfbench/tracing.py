"""Spans around the calls into each origeo module, recorded from outside it.

The traced run replaces a fixed list of public entry points with wrappers
for its duration and restores them afterwards; nothing under ``src/`` is
edited.  A wrapped function is rebound in every ``origeo`` module that
imported it, so ``from .geodesic import point_at`` in ``horo`` is traced
too.  Small accessors that run thousands of times per operation (such as
``multicurve.intersection`` inside the limit kernel) are deliberately not
wrapped: their time is the self time of the layer that loops over them,
and wrapping them would multiply the tracing overhead.

Spans are aggregated as they close rather than stored: per entry point the
call count, busy time, self time and the outcomes needed by the per-layer
metrics; per layer the busy time (nested spans of one layer counted once)
and the self time (busy time minus the spans of other layers it called).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

LAYERS = ("origami", "multicurve", "perron", "geodesic", "surface", "horo",
          "checks", "cli")

ENTRY_POINTS: Dict[str, tuple] = {
    "origami": ("parse_origami", "Origami.__init__", "Origami.validate",
                "Origami.intersection_matrix", "Origami.cone_orders",
                "Origami.genus"),
    "multicurve": ("parse_busemann_spec", "filling_status"),
    "perron": ("perron_solve", "gram", "is_primitive", "wielandt_oracle"),
    "geodesic": ("optimal_geodesic", "forward_limit", "backward_limit",
                 "flow_distance", "point_at", "line_from_report", "line_report"),
    "surface": ("distance_interval", "ext_interval", "curve_ext_bounds",
                "foliation_ext", "qc_upper", "kerckhoff_lower"),
    "horo": ("busemann_interval", "psi_foliation", "psi_interior",
             "miyachi_intersection", "minsky_audit", "lower_bound_audit",
             "delta_probe", "walsh_eval"),
    "checks": ("run_suites",),
    "cli": ("cmd_validate", "cmd_geodesic", "cmd_flow", "cmd_converge",
            "cmd_check"),
}


class Tracer:
    """Per-entry-point and per-layer span totals for one traced phase."""

    def __init__(self) -> None:
        self.active = False  # spans are recorded only while an op runs
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.raised: Counter = Counter()  # (entry point, exception type)
        self.perron_iterations: List[int] = []
        self.perron_k: List[int] = []
        self.origami_cells: List[int] = []
        self.perron_cert_errors: set = set()
        self.geodesic_cert_fails = 0
        self.missing: List[str] = []
        self._children: List[float] = []  # time covered by child spans
        self._depth: Counter = Counter()
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._children.append(0.0)
            tracer._depth[layer] += 1
            error, result = None, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                child = tracer._children.pop()
                tracer._depth[layer] -= 1
                tracer.calls[name] += 1
                tracer.busy[name] += elapsed
                tracer.self_time[name] += elapsed - child
                tracer.layer_self[layer] += elapsed - child
                if tracer._depth[layer] == 0:
                    tracer.layer_busy[layer] += elapsed
                if tracer._children:
                    tracer._children[-1] += elapsed
                tracer._observe(name, args, result, error)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result, error) -> None:
        if error is not None:
            self.raised[(name, type(error).__name__)] += 1
        if name == "perron_solve":
            rows = getattr(args[0], "entries", args[0])
            self.perron_k.append(len(rows))
            iterations = getattr(result if error is None else error, "iterations", None)
            if iterations is not None:
                self.perron_iterations.append(iterations)
            if type(error).__name__ == "CertificationError":
                self.perron_cert_errors.add(id(error))
        elif name == "optimal_geodesic" and type(error).__name__ == "CertificationError":
            if id(error) not in self.perron_cert_errors:
                self.geodesic_cert_fails += 1
        elif name == "Origami.__init__":
            self.origami_cells.append(args[1])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; record the ones that do not."""
        modules = [m for key, m in sys.modules.items()
                   if (key == "origeo" or key.startswith("origeo.")) and m is not None]
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"origeo.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(layer, name, original)
                if owner_name:
                    self._rebind(owner, attr, original, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries -----------------------------------------------------------

    def mean_ms(self, *names: str) -> float:
        """Mean duration in ms of one call to any of the named entry points."""
        calls = sum(self.calls[n] for n in names)
        return 1e3 * sum(self.busy[n] for n in names) / calls if calls else 0.0

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.self_time[name] / calls if calls else 0.0

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)


def mean(values: List[float], default: float = 0.0) -> float:
    return sum(values) / len(values) if values else default
