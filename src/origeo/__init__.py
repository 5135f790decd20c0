"""Optimal Teichmueller geodesics on square-tiled surfaces.

Build an origami, pick a transverse pair of weighted boundary specs, and
``optimal_geodesic`` returns the unique geodesic line joining them via a
Perron–Frobenius reduction — with interval certificates for everything a
float cannot witness exactly.

The names here are the error classes, the core types and the operations
the command line runs.  Oracles, audits and the individual bounds behind a
distance bracket stay in their modules (``origeo.perron``, ``origeo.horo``,
``origeo.surface``, ...).

Importing the package runs ``errors`` and ``origami`` only.
Each other layer is registered in ``sys.modules`` as a lazy module (the
handle ``origeo.errors`` builds for NumPy) and runs at its first attribute
access; its public names here are read from it at each access.  Each such
name is written once, in its layer's entry of ``_LAZY_NAMES``: ``__all__``
is the names imported here plus those entries, sorted.
"""

from .errors import (
    CertificationError,
    ComplexityError,
    HostMismatch,
    HypothesisError,
    InputError,
    InvalidOrigami,
    NoConvergenceError,
    NotFillingError,
    NotPrimitiveError,
    SideMismatch,
    _lazy_import,
)
from .origami import (HORIZONTAL, VERTICAL, IntersectionMatrix, Origami, builtin, catalog,
                      parse_origami)

# The public names of the layers that load on first use, by layer.
_LAZY_NAMES = {
    "geodesic": ("GeodesicLine", "backward_limit", "flow_distance", "forward_limit",
                 "line_from_report", "line_report", "optimal_geodesic", "point_at",
                 "reversed_line"),
    "horo": ("busemann_interval", "delta_probe", "miyachi_intersection",
             "psi_foliation"),
    "intervals": ("ValueInterval",),
    "multicurve": ("BusemannSpec", "FillingStatus", "WeightedMulticurve",
                   "filling_status", "parse_busemann_spec"),
    "perron": ("PerronResult",),
    "surface": ("WeightedSurface", "distance_interval", "ext_interval"),
}
_LAYER_OF = {name: layer for layer, names in _LAZY_NAMES.items() for name in names}

# Each layer is in ``sys.modules`` and an attribute of the package from here
# on, and runs at its first attribute access.
for _layer in (*_LAZY_NAMES, "sampling", "checks"):
    globals()[_layer] = _lazy_import(f"{__name__}.{_layer}")
del _layer


def __getattr__(name: str):
    """A public name of a lazy layer, read from the layer at each access, so
    that a function rebound there is the one this returns."""
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted([
    "CertificationError", "ComplexityError", "HORIZONTAL", "HostMismatch",
    "HypothesisError", "InputError", "IntersectionMatrix", "InvalidOrigami",
    "NoConvergenceError", "NotFillingError", "NotPrimitiveError", "Origami",
    "SideMismatch", "VERTICAL", "builtin", "catalog", "parse_origami", *_LAYER_OF,
])
