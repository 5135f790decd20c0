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
report records.  Only ``converge`` (its jitter) and ``check`` (its random
cases) take ``--seed``; the geodesic construction draws nothing at random,
and a report's ``config.seed`` is always 0.

The argument parser is built once per process, on the first :func:`main`
call, and reused; ``main`` then looks the subcommand up by name
(``cmd_<command>``) at call time, so a ``cmd_*`` rebound on this module,
say by a tracer or a test, is the one that runs.  The same holds one layer
down: this module holds ``geodesic``, ``surface``, ``horo``, ``intervals``,
``sampling`` and ``checks`` as modules and reads each of their functions at
the call, so a function rebound on the module that defines it is the one
that runs, and a command loads only the layers it calls (``--help`` and
``validate`` load none of them).  An unwritable ``--out`` is refused with
the other options, before the command runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from . import checks as checks_mod, geodesic, horo, intervals, sampling, surface
from .errors import (
    DEFAULT_TOL,
    SUITE_NAMES,
    CertificationError,
    Checks,
    HypothesisError,
    InputError,
    NoConvergenceError,
    at,
    np,
)
from .multicurve import parse_busemann_spec
from .origami import builtin, catalog, parse_origami


# Flow points G(s), G(t) carry weights scaled by e^{+-s}, e^{+-t}, and the
# brackets between them compare extremal lengths, which scale like e^{2|t|}.
# Keeping e^{2 (|s| + |t|)} below the square root of the largest float
# leaves the other half of the exponent range to the weights themselves.
MAX_REACH = math.log(sys.float_info.max) / 4
MAX_GRID_ROWS = 10_000
# A flow grid is evaluated this many rows at a time, so that memory stays
# flat up to MAX_GRID_ROWS: a block's largest array is this many times the
# largest per-row array, the (cylinders x cylinders) circumference table of
# an extremal length off the defining foliations.
_BLOCK_ROWS = 128


def _check_reach(reach: float, what: str) -> None:
    if not reach <= MAX_REACH:
        raise InputError(
            f"{what} is {reach:g}, beyond the {MAX_REACH:.1f} that floats "
            "carry (log of the largest float / 4)"
        )


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
            raise InputError(f"--step must be positive and finite, got {self.step}")
        if self.t_min > self.t_max:
            raise InputError(
                f"empty time grid: t-min {self.t_min} > t-max {self.t_max}"
            )
        if self.n_max < 1:
            raise InputError(f"--n-max must be at least 1, got {self.n_max}")
        if not 0 <= self.eps < math.inf:
            raise InputError(f"--eps must be nonnegative and finite, got {self.eps}")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise InputError(f"--horizon must be positive and finite, got {self.horizon}")
        if self.out:
            _check_writable(self.out)


def _check_writable(path: str) -> None:
    """Refuse an output file that cannot be written, before the command runs:
    a directory, or a file in a missing or closed directory.  It creates and
    truncates nothing, so a command that fails later leaves the file as it was."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise InputError(f"cannot write {path}: {reason}")


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
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
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
    line = geodesic.optimal_geodesic(xi, eta, tol=cfg.tol)
    text = json.dumps(geodesic.line_report(line), indent=2) + "\n"
    _emit(text, cfg.out)
    return text


def _grid(cfg: RunConfig) -> np.ndarray:
    span = (cfg.t_max - cfg.t_min) / cfg.step
    count = round(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_ROWS:
        raise InputError(
            f"time grid needs {count} rows, more than {MAX_GRID_ROWS}; "
            "raise --step or narrow [--t-min, --t-max]"
        )
    return cfg.t_min + np.arange(max(count, 1)) * cfg.step


def cmd_flow(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    line = geodesic.line_from_report(_load_json(args.report))
    base = line.require_surface()
    horizon = cfg.horizon if cfg.horizon is not None else cfg.t_max + 5.0
    # each row pairs G(t) with the Busemann point G(max(horizon, t + 5))
    _check_reach(
        max(abs(cfg.t_min), abs(cfg.t_max)) + max(horizon, cfg.t_max + 5.0),
        "flow time plus horizon",
    )
    grid = _grid(cfg)
    header = (
        ["t"]
        + [f"width_{lab}" for lab in base.widths]
        + [f"height_{lab}" for lab in base.heights]
        + ["ext_fv", "ext_fh", "psi_fv", "psi_fh",
           "busemann_lo", "busemann_hi", "d_to_base"]
    )
    rows = [",".join(header)]
    for start in range(0, len(grid), _BLOCK_ROWS):
        rows += _csv_lines(_flow_block(line, grid[start:start + _BLOCK_ROWS], horizon))
    text = "\n".join(rows) + "\n"
    _emit(text, cfg.out)
    return text


def _csv_lines(table: np.ndarray) -> List[str]:
    """Each row of ``table`` as a CSV line of f"{v:.15g}" values, formatted
    by one ``%`` per row: '%.15g' % v is f"{v:.15g}" for every float."""
    template = ",".join(["%.15g"] * table.shape[1])
    return [template % tuple(row) for row in table.tolist()]


def _flow_block(line: geodesic.GeodesicLine, ts: np.ndarray,
                horizon: float) -> np.ndarray:
    """The flow CSV's columns at the times ts, each one array pass over the
    rows, with the checks of every row."""
    base = line.require_surface().rows
    with Checks() as checks:
        pt = geodesic.flow_rows(line, ts, checks)
        exts, psis = [], []
        for f in (line.vertical_foliation, line.horizontal_foliation):
            # the line's foliations are the base's own: F_v weighs the widths,
            # and its extremal length at the base is the base's area
            exts.append(surface.ext_rows(pt, f.side, base.side(f.side), checks))
            psis.append(horo.psi_rows(exts[-1], (base.area, base.area), checks))
        for (lo, hi), want, name in zip(psis, (-ts, ts), ("psi_fv", "psi_fh")):
            def strays(i, lo=lo, hi=hi, want=want, name=name):
                return CertificationError(f"{name} at t={at(ts, i)} strays from "
                                          f"{at(want, i)}: [{at(lo, i)}, {at(hi, i)}]")
            checks.add(intervals.outside(lo, hi, want, 1e-12), strays)
        bus_lo, bus_hi = horo.busemann_rows(line, pt, np.maximum(horizon, ts + 5.0),
                                            checks)
        checks.add(intervals.outside(bus_lo, bus_hi, -ts, 1e-9),
                   lambda i: CertificationError(
                       f"Busemann enclosure at t={at(ts, i)} misses {at(-ts, i)}: "
                       f"[{at(bus_lo, i)}, {at(bus_hi, i)}]"))
        d_to_base = np.abs(ts)
        geodesic.check_flow_distance(
            d_to_base, *surface.distance_rows(base, pt, checks), checks)
    return np.column_stack(
        [ts, pt.widths, pt.heights, exts[0][0], exts[1][0]]
        + [(lo + hi) / 2.0 for lo, hi in psis]
        + [bus_lo, bus_hi, d_to_base]
    )


def _converge_payload(line: geodesic.GeodesicLine, cfg: RunConfig) -> dict:
    base = line.require_surface()
    # the jitter widens each of G(-n-max) and G(n-max) by up to e^eps; the
    # cap keeps n-max below 89, so the whole ladder is one block of rows
    _check_reach(
        2.0 * (cfg.n_max + cfg.eps), "the span of G(-n-max) and G(n-max) plus --eps"
    )
    o, b = base.origami, base.rows
    ns = np.arange(1.0, cfg.n_max + 1)
    with Checks() as checks:
        x, y = (geodesic.flow_rows(line, t, checks) for t in (-ns, ns))
        d_xy = surface.distance_rows(x, y, checks)
        geodesic.check_flow_distance(2.0 * ns, *d_xy, checks)
        d_0x = surface.distance_rows(b, x, checks)
        geodesic.check_flow_distance(ns, *d_0x, checks)
        miyachi = horo.miyachi_rows(d_0x, surface.distance_rows(b, y, checks), d_xy,
                                    checks)

        # per n, the height and width factors of G(-n), then those of G(n):
        # the order that gives each seed its jitter
        kh, k = b.heights.shape[1], b.heights.shape[1] + b.widths.shape[1]
        draws = sampling.jitter_factors(random.Random(cfg.seed),
                                        range(cfg.n_max * 2 * k), cfg.eps)
        f = np.fromiter(draws.values(), float).reshape(cfg.n_max, 2, k)
        hf_x, wf_x, hf_y, wf_y = f[:, 0, :kh], f[:, 0, kh:], f[:, 1, :kh], f[:, 1, kh:]
        x_j = surface.check_weights(
            surface.SurfaceRows(o, x.heights * hf_x, x.widths * wf_x), checks)
        y_j = surface.check_weights(
            surface.SurfaceRows(o, y.heights * hf_y, y.widths * wf_y), checks)
        # sqrt is correctly rounded in IEEE 754, so np.sqrt gives math.sqrt's bits
        proxy = surface.SurfaceRows(o, b.heights * np.sqrt(hf_x * hf_y),
                                    b.widths * np.sqrt(wf_x * wf_y))
        d_proxy = surface.distance_rows(b, surface.check_weights(proxy, checks), checks)
        d_j = surface.distance_rows(x_j, y_j, checks)
        d_0j = surface.distance_rows(b, x_j, checks)

    return {
        "nMax": cfg.n_max,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "exact": _rungs(gap=2.0 * ns - ns, miyachiLo=miyachi[0], miyachiHi=miyachi[1]),
        "jittered": {
            "note": "demonstration, not certificate",
            "rows": _rungs(proxyLo=d_proxy[0], proxyHi=d_proxy[1],
                           gapLo=d_j[0] - d_0j[1], gapHi=d_j[1] - d_0j[0]),
        },
        "deltaProbe": horo.delta_probe(line.forward_spec, line.backward_spec, base),
    }


def _rungs(**columns) -> List[dict]:
    """One object per rung n = 1, 2, ...: n, then a number per column."""
    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    return [dict(zip(("n", *columns), (n, *row))) for n, row in enumerate(rows, 1)]


def cmd_converge(args: argparse.Namespace) -> str:
    cfg = _config_from(args)
    line = geodesic.line_from_report(_load_json(args.report))
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

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        if seed:
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
    add_common(p, seed=False)

    p = sub.add_parser("geodesic", help="build the optimal geodesic report")
    add_origami_source(p)
    p.add_argument("xi", help="vertical-side boundary spec JSON")
    p.add_argument("eta", help="horizontal-side boundary spec JSON")
    p.add_argument("--tol", type=float, default=None,
                   help="relative width the eigenvalue bracket must reach "
                        "(default 1e-12); flow and converge reuse the report's")
    add_common(p, seed=False)

    p = sub.add_parser("flow", help="sample a geodesic report along a time grid")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--t-min", type=float, default=None, dest="t_min")
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--step", type=float, default=None,
                   help=f"grid step (at most {MAX_GRID_ROWS} rows)")
    p.add_argument("--horizon", type=float, default=None,
                   help="Busemann horizon time (default t-max + 5)")
    add_common(p, seed=False)

    p = sub.add_parser("converge", help="replay boundary convergence from a report")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--eps", type=float, default=None,
                   help="jitter amplitude for the demonstration section")
    add_common(p)

    p = sub.add_parser("check", help="run randomized self-check suites")
    p.add_argument("--suite", action="append", default=None, metavar="NAME",
                   help="run only matching suites (may repeat); known: "
                        + ", ".join(SUITE_NAMES))
    add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # by name at call time, so that a rebound cmd_* is the one that runs
        globals()[f"cmd_{args.command}"](args)
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
