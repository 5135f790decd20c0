"""Command-line driver.

Five subcommands over JSON/CSV files:

* ``validate`` — structural audit of an origami description.
* ``geodesic`` — build the optimal geodesic for a pair of boundary specs
  and emit a reconstructible JSON report.
* ``flow`` — sample a built line along a time grid into CSV.
* ``converge`` — replay the boundary convergence scheme (exact section
  plus a jittered demonstration) from a report.
* ``check`` — run the randomized self-check suites.

Exit codes: 0 success; 2 malformed input or configuration; 3 hypothesis
failure (not filling / not primitive / genus too small is 2 since it is an
input property); 4 iteration did not converge; 5 a certification audit
failed.  All output is deterministic for a fixed seed: reports carry no
timestamps and floats print with 15 significant digits, except a report's
``lambda``, printed as the shortest string that reads back to the same
float so that it lies inside its printed bracket.  Only ``geodesic`` takes
``--tol``; ``flow`` and ``converge`` rebuild the line at the tolerance its
report records.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from . import checks as checks_mod
from .errors import (
    CertificationError,
    HypothesisError,
    InputError,
    NoConvergenceError,
)
from .geodesic import (
    GeodesicLine,
    flow_distance,
    line_from_report,
    line_report,
    optimal_geodesic,
    point_at,
)
from .horo import busemann_interval, delta_probe, miyachi_intersection, psi_foliation
from .multicurve import parse_busemann_spec
from .origami import builtin, catalog, parse_origami
from .perron import DEFAULT_TOL
from .sampling import jittered_surface
from .surface import WeightedSurface, distance_interval, ext_interval
import random


# Flow points G(s), G(t) carry weights scaled by e^{+-s}, e^{+-t}, and the
# brackets between them compare extremal lengths, which scale like e^{2|t|}.
# Keeping e^{2 (|s| + |t|)} below the square root of the largest float
# leaves the other half of the exponent range to the weights themselves.
MAX_REACH = math.log(sys.float_info.max) / 4
MAX_GRID_ROWS = 10_000


def _check_reach(reach: float, what: str) -> None:
    if not reach <= MAX_REACH:
        raise InputError(
            f"{what} is {reach:g}, beyond the {MAX_REACH:.1f} that floats "
            "carry (log of the largest float / 4)"
        )


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    tol: float = DEFAULT_TOL
    seed: int = 0
    t_min: float = -3.0
    t_max: float = 3.0
    step: float = 0.5
    horizon: Optional[float] = None
    n_max: int = 20
    eps: float = 0.05
    out: Optional[str] = None
    suites: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise InputError(f"--tol must be positive and finite, got {self.tol}")
        for flag, value in (("--t-min", self.t_min), ("--t-max", self.t_max)):
            if not math.isfinite(value):
                raise InputError(f"{flag} must be finite, got {value}")
        if not 0 < self.step < math.inf:
            raise InputError(f"step must be positive and finite, got {self.step}")
        if self.t_min > self.t_max:
            raise InputError(
                f"empty time grid: t-min {self.t_min} > t-max {self.t_max}"
            )
        if self.n_max < 1:
            raise InputError(f"n-max must be at least 1, got {self.n_max}")
        if not 0 <= self.eps < math.inf:
            raise InputError(f"--eps must be nonnegative and finite, got {self.eps}")
        if self.horizon is not None and not self.horizon > 0:
            raise InputError(f"horizon must be positive, got {self.horizon}")


def _config_from(args: argparse.Namespace) -> RunConfig:
    kwargs = {}
    for name in (
        "tol", "seed", "t_min", "t_max", "step",
        "horizon", "n_max", "eps", "out",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if getattr(args, "suite", None):
        kwargs["suites"] = list(args.suite)
    return RunConfig(**kwargs)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _resolve_origami(args: argparse.Namespace):
    if getattr(args, "builtin", None):
        if args.origami is not None:
            raise InputError("give either an origami file or --builtin, not both")
        return builtin(args.builtin)
    if args.origami is None:
        raise InputError(
            "an origami is required: pass a JSON file or --builtin NAME "
            f"(known: {', '.join(catalog())})"
        )
    return parse_origami(_load_json(args.origami))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    o = _resolve_origami(args)
    summary = o.validate()
    text = json.dumps(summary.to_json(), indent=2) + "\n"
    _emit(text, cfg.out)
    return text


def cmd_geodesic(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    o = _resolve_origami(args)
    xi = parse_busemann_spec(_load_json(args.xi), o)
    eta = parse_busemann_spec(_load_json(args.eta), o)
    line = optimal_geodesic(xi, eta, tol=cfg.tol, seed=cfg.seed)
    text = json.dumps(line_report(line), indent=2) + "\n"
    _emit(text, cfg.out)
    return text


def _grid(cfg: RunConfig) -> List[float]:
    span = (cfg.t_max - cfg.t_min) / cfg.step
    count = round(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_ROWS:
        raise InputError(
            f"time grid needs {count} rows, more than {MAX_GRID_ROWS}; "
            "raise --step or narrow [--t-min, --t-max]"
        )
    return [cfg.t_min + i * cfg.step for i in range(max(count, 1))]


def cmd_flow(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    line = line_from_report(_load_json(args.report))
    base = line.require_surface()
    f_v, f_h = line.vertical_foliation, line.horizontal_foliation
    horizon = cfg.horizon if cfg.horizon is not None else cfg.t_max + 5.0
    # each row pairs G(t) with the Busemann point G(max(horizon, t + 5))
    _check_reach(
        max(abs(cfg.t_min), abs(cfg.t_max)) + max(horizon, cfg.t_max + 5.0),
        "flow time plus horizon",
    )
    grid = _grid(cfg)

    width_labels = list(base.widths)
    height_labels = list(base.heights)
    header = (
        ["t"]
        + [f"width_{lab}" for lab in width_labels]
        + [f"height_{lab}" for lab in height_labels]
        + ["ext_fv", "ext_fh", "psi_fv", "psi_fh",
           "busemann_lo", "busemann_hi", "d_to_base"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for t in grid:
        pt = point_at(line, t)
        psi_v = psi_foliation(f_v, pt, base)
        psi_h = psi_foliation(f_h, pt, base)
        for hv, want, name in ((psi_v, -t, "psi_fv"), (psi_h, t, "psi_fh")):
            if not hv.contains(want, tol=1e-12):
                raise CertificationError(
                    f"{name} at t={t} strays from {want}: [{hv.lo}, {hv.hi}]"
                )
        bus = busemann_interval(line, pt, horizon=max(horizon, t + 5.0))
        if not bus.contains(-t, tol=1e-9):
            raise CertificationError(
                f"Busemann enclosure at t={t} misses {-t}: [{bus.lo}, {bus.hi}]"
            )
        writer.writerow(
            [_fmt(t)]
            + [_fmt(pt.widths[lab]) for lab in width_labels]
            + [_fmt(pt.heights[lab]) for lab in height_labels]
            + [
                _fmt(ext_interval(pt, f_v).lo),
                _fmt(ext_interval(pt, f_h).lo),
                _fmt(psi_v.midpoint()),
                _fmt(psi_h.midpoint()),
                _fmt(bus.lo),
                _fmt(bus.hi),
                _fmt(flow_distance(line, 0.0, t)),
            ]
        )
    text = buf.getvalue()
    _emit(text, cfg.out)
    return text


def _converge_payload(line: GeodesicLine, cfg: RunConfig) -> dict:
    base = line.require_surface()
    # the jitter widens each of G(-n-max) and G(n-max) by up to e^eps
    _check_reach(
        2.0 * (cfg.n_max + cfg.eps), "the span of G(-n-max) and G(n-max) plus --eps"
    )
    rng = random.Random(cfg.seed)
    exact_rows, jitter_rows = [], []
    for n in range(1, cfg.n_max + 1):
        x_n = point_at(line, float(-n))
        y_n = point_at(line, float(n))
        gap = flow_distance(line, -n, n) - flow_distance(line, 0, -n)
        mi = miyachi_intersection(x_n, y_n, base)
        exact_rows.append(
            {"n": n, "gap": gap, "miyachiLo": mi.lo, "miyachiHi": mi.hi}
        )

        x_j, hf_x, wf_x = jittered_surface(rng, x_n, cfg.eps)
        y_j, hf_y, wf_y = jittered_surface(rng, y_n, cfg.eps)
        proxy = WeightedSurface(
            base.origami,
            {lab: w * math.sqrt(hf_x[lab] * hf_y[lab])
             for lab, w in base.heights.items()},
            {lab: w * math.sqrt(wf_x[lab] * wf_y[lab])
             for lab, w in base.widths.items()},
        )
        d_proxy = distance_interval(base, proxy)
        d_xy = distance_interval(x_j, y_j)
        d_0x = distance_interval(base, x_j)
        jitter_rows.append(
            {
                "n": n,
                "proxyLo": d_proxy.lo,
                "proxyHi": d_proxy.hi,
                "gapLo": d_xy.lo - d_0x.hi,
                "gapHi": d_xy.hi - d_0x.lo,
            }
        )

    return {
        "nMax": cfg.n_max,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "exact": exact_rows,
        "jittered": {
            "note": "demonstration, not certificate",
            "rows": jitter_rows,
        },
        "deltaProbe": delta_probe(
            line.forward_spec, line.backward_spec, base
        ),
    }


def cmd_converge(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    line = line_from_report(_load_json(args.report))
    text = json.dumps(_converge_payload(line, cfg), indent=2) + "\n"
    _emit(text, cfg.out)
    return text


def cmd_check(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    report = checks_mod.run_suites(seed=cfg.seed, names=cfg.suites or None)
    report["config"] = {"seed": cfg.seed}
    text = json.dumps(report, indent=2) + "\n"
    _emit(text, cfg.out)
    return text


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="origeo",
        description="optimal Teichmueller geodesics on square-tiled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="seed for every randomized choice (default 0)")
        p.add_argument("--out", default=None,
                       help="also write the output to this file")

    def add_origami_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("origami", nargs="?", default=None,
                       help="origami description JSON")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help=f"use a built-in origami ({', '.join(catalog())})")

    p = sub.add_parser("validate", help="audit an origami description")
    add_origami_source(p)
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("geodesic", help="build the optimal geodesic report")
    add_origami_source(p)
    p.add_argument("xi", help="vertical-side boundary spec JSON")
    p.add_argument("eta", help="horizontal-side boundary spec JSON")
    p.add_argument("--tol", type=float, default=None,
                   help="relative width the eigenvalue bracket must reach "
                        "(default 1e-12); flow and converge reuse the report's")
    add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("flow", help="sample a geodesic report along a time grid")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--t-min", type=float, default=None, dest="t_min")
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--step", type=float, default=None,
                   help=f"grid step (at most {MAX_GRID_ROWS} rows)")
    p.add_argument("--horizon", type=float, default=None,
                   help="Busemann horizon time (default t-max + 5)")
    add_common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("converge", help="replay boundary convergence from a report")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--eps", type=float, default=None,
                   help="jitter amplitude for the demonstration section")
    add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="run randomized self-check suites")
    p.add_argument("--suite", action="append", default=None, metavar="NAME",
                   help="run only matching suites (may repeat); known: "
                        + ", ".join(checks_mod.suite_names()))
    add_common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 4
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
