"""Optimal Teichmueller geodesics on square-tiled surfaces.

Build an origami, pick a transverse pair of weighted boundary specs, and
``optimal_geodesic`` returns the unique geodesic line joining them via a
Perron–Frobenius reduction — with interval certificates for everything a
float cannot witness exactly.
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
    HorofunctionValue,
    busemann_interval,
    delta_probe,
    lower_bound_audit,
    minsky_audit,
    miyachi_intersection,
    psi_foliation,
    psi_interior,
    walsh_eval,
)
from .intervals import ValueInterval
from .multicurve import (
    HORIZONTAL,
    VERTICAL,
    BusemannSpec,
    FillingStatus,
    IntersectionMatrix,
    WeightedMulticurve,
    core_curve,
    filling_status,
    intersection,
    pair_intersection,
    parse_busemann_spec,
)
from .origami import Origami, builtin, catalog, load_origami, parse_origami
from .perron import (
    PerronResult,
    gram,
    is_primitive,
    perron_solve,
    wielandt_oracle,
)
from .surface import (
    WeightedSurface,
    curve_ext_bounds,
    distance_interval,
    ext_interval,
    foliation_ext,
    kerckhoff_lower,
    load_weights,
    qc_upper,
)

__version__ = "0.1.0"

__all__ = [
    "BusemannSpec",
    "CertificationError",
    "ComplexityError",
    "FillingStatus",
    "GeodesicLine",
    "HORIZONTAL",
    "HorofunctionValue",
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
    "core_curve",
    "curve_ext_bounds",
    "delta_probe",
    "distance_interval",
    "ext_interval",
    "filling_status",
    "flow_distance",
    "foliation_ext",
    "forward_limit",
    "gram",
    "intersection",
    "is_primitive",
    "kerckhoff_lower",
    "line_from_report",
    "line_report",
    "load_origami",
    "load_weights",
    "lower_bound_audit",
    "minsky_audit",
    "miyachi_intersection",
    "optimal_geodesic",
    "pair_intersection",
    "parse_busemann_spec",
    "parse_origami",
    "perron_solve",
    "point_at",
    "psi_foliation",
    "psi_interior",
    "qc_upper",
    "reversed_line",
    "walsh_eval",
    "wielandt_oracle",
]
