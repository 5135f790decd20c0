"""Optimal Teichmueller geodesics on square-tiled surfaces.

Build an origami, pick a transverse pair of weighted boundary specs, and
``optimal_geodesic`` returns the unique geodesic line joining them via a
Perron–Frobenius reduction — with interval certificates for everything a
float cannot witness exactly.

The names here are the error classes, the core types and the operations
the command line runs.  Oracles, audits and the individual bounds behind a
distance bracket stay in their modules (``origeo.perron``, ``origeo.horo``,
``origeo.surface``, ...).
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
)
from .geodesic import (
    GeodesicLine,
    backward_limit,
    flow_distance,
    forward_limit,
    line_from_report,
    line_report,
    optimal_geodesic,
    point_at,
    reversed_line,
)
from .horo import (
    busemann_interval,
    delta_probe,
    miyachi_intersection,
    psi_foliation,
)
from .intervals import ValueInterval
from .multicurve import (
    HORIZONTAL,
    VERTICAL,
    BusemannSpec,
    FillingStatus,
    IntersectionMatrix,
    WeightedMulticurve,
    filling_status,
    parse_busemann_spec,
)
from .origami import Origami, builtin, catalog, parse_origami
from .perron import PerronResult
from .surface import WeightedSurface, distance_interval, ext_interval

__version__ = "0.1.0"

__all__ = [
    "BusemannSpec",
    "CertificationError",
    "ComplexityError",
    "FillingStatus",
    "GeodesicLine",
    "HORIZONTAL",
    "HostMismatch",
    "HypothesisError",
    "InputError",
    "IntersectionMatrix",
    "InvalidOrigami",
    "NoConvergenceError",
    "NotFillingError",
    "NotPrimitiveError",
    "Origami",
    "PerronResult",
    "SideMismatch",
    "VERTICAL",
    "ValueInterval",
    "WeightedMulticurve",
    "WeightedSurface",
    "backward_limit",
    "builtin",
    "busemann_interval",
    "catalog",
    "delta_probe",
    "distance_interval",
    "ext_interval",
    "filling_status",
    "flow_distance",
    "forward_limit",
    "line_from_report",
    "line_report",
    "miyachi_intersection",
    "optimal_geodesic",
    "parse_busemann_spec",
    "parse_origami",
    "point_at",
    "psi_foliation",
    "reversed_line",
]
