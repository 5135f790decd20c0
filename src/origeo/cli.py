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
down: this module holds ``multicurve``, ``geodesic``, ``horo`` and
``checks`` as modules and reads each of their functions at the call, so a
function rebound on the module that defines it is the one that runs, and a
command loads only the layers it calls (``--help`` and ``validate`` load
none of them).  The commands only parse, dispatch and print: each gets
its payload finished by its layer and neither rebuilds nor edits it.  The
flow table, CSV header included, is :func:`origeo.horo.flow_table`, the
convergence ladder :func:`origeo.horo.converge_ladder`, and the check
report, ``config`` block included, :func:`origeo.checks.run_suites`.  Each
option's default is set once, in :func:`build_parser` (a help text that
names it reads ``%(default)s``); ``main`` hands a command its parsed
options once :func:`_checked` has refused a bad value, an unwritable
``--out`` among them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

from . import checks as checks_mod, geodesic, horo, multicurve
from .errors import (
    DEFAULT_TOL,
    SUITE_NAMES,
    CertificationError,
    HypothesisError,
    InputError,
    NoConvergenceError,
    np,
)
from .origami import _CATALOG_DATA, builtin, parse_origami


MAX_GRID_ROWS = 10_000


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


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """Refuse a bad value of an option the subcommand has, in a fixed order."""
    if args.command == "geodesic" and not 0 < args.tol < math.inf:
        raise InputError(f"--tol must be positive and finite, got {args.tol}")
    if args.command == "flow":
        for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
            if not math.isfinite(value):
                raise InputError(f"{flag} must be finite, got {value}")
        if not 0 < args.step < math.inf:
            raise InputError(f"--step must be positive and finite, got {args.step}")
        if args.t_min > args.t_max:
            raise InputError(f"empty time grid: t-min {args.t_min} > t-max {args.t_max}")
        if args.horizon is not None and not 0 < args.horizon < math.inf:
            raise InputError(f"--horizon must be positive and finite, got {args.horizon}")
    if args.command == "converge":
        if args.n_max < 1:
            raise InputError(f"--n-max must be at least 1, got {args.n_max}")
        if not 0 <= args.eps < math.inf:
            raise InputError(f"--eps must be nonnegative and finite, got {args.eps}")
    if args.out:
        _check_writable(args.out)
    return args


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
            f"(known: {', '.join(_CATALOG_DATA)})"
        )
    return parse_origami(_load_json(args.origami))


def _emit(text: str, out: Optional[str]) -> str:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
    sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> str:
    o = _resolve_origami(args)
    return _emit(json.dumps(o.validate().to_json(), indent=2) + "\n", args.out)


def cmd_geodesic(args: argparse.Namespace) -> str:
    o = _resolve_origami(args)
    xi = multicurve.parse_busemann_spec(_load_json(args.xi), o)
    eta = multicurve.parse_busemann_spec(_load_json(args.eta), o)
    line = geodesic.optimal_geodesic(xi, eta, tol=args.tol)
    return _emit(json.dumps(geodesic.line_report(line), indent=2) + "\n", args.out)


def _grid(args: argparse.Namespace) -> np.ndarray:
    # whole steps only, with room for the rounding of a span such as 6 / 0.05
    span = (args.t_max - args.t_min) / args.step * (1 + 1e-12)
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_ROWS:
        raise InputError(
            f"time grid needs {count} rows, more than {MAX_GRID_ROWS}; "
            "raise --step or narrow [--t-min, --t-max]"
        )
    return args.t_min + np.arange(count) * args.step  # t-min <= t-max: count >= 1


def cmd_flow(args: argparse.Namespace) -> str:
    line = geodesic.line_from_report(_load_json(args.report))
    horizon = args.horizon if args.horizon is not None else args.t_max + 5.0
    header, table = horo.flow_table(line, _grid(args), horizon)
    return _emit("\n".join([",".join(header), *_csv_lines(table)]) + "\n", args.out)


def _csv_lines(table: np.ndarray) -> List[str]:
    """Each row of ``table`` as a CSV line of f"{v:.15g}" values, formatted
    by one ``%`` per row: '%.15g' % v is f"{v:.15g}" for every float."""
    template = ",".join(["%.15g"] * table.shape[1])
    return [template % tuple(row) for row in table.tolist()]


def cmd_converge(args: argparse.Namespace) -> str:
    line = geodesic.line_from_report(_load_json(args.report))
    ladder = horo.converge_ladder(line, args.n_max, args.eps, args.seed)
    return _emit(json.dumps(ladder, indent=2) + "\n", args.out)


def cmd_check(args: argparse.Namespace) -> str:
    report = checks_mod.run_suites(seed=args.seed, names=args.suite)
    return _emit(json.dumps(report, indent=2) + "\n", args.out)


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
            p.add_argument("--seed", type=int, default=0,
                           help="seed for every randomized choice (default %(default)s)")
        p.add_argument("--out", default=None,
                       help="also write the output to this file")

    def add_origami_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("origami", nargs="?", default=None,
                       help="origami description JSON")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help=f"use a built-in origami ({', '.join(_CATALOG_DATA)})")

    p = sub.add_parser("validate", help="audit an origami description")
    add_origami_source(p)
    add_common(p, seed=False)

    p = sub.add_parser("geodesic", help="build the optimal geodesic report")
    add_origami_source(p)
    p.add_argument("xi", help="vertical-side boundary spec JSON")
    p.add_argument("eta", help="horizontal-side boundary spec JSON")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative width the eigenvalue bracket must reach "
                        "(default %(default)s); flow and converge reuse the report's")
    add_common(p, seed=False)

    p = sub.add_parser("flow", help="sample a geodesic report along a time grid")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--t-min", type=float, default=-3.0, dest="t_min")
    p.add_argument("--t-max", type=float, default=3.0, dest="t_max")
    p.add_argument("--step", type=float, default=0.5,
                   help=f"grid step (at most {MAX_GRID_ROWS} rows)")
    p.add_argument("--horizon", type=float, default=None,
                   help="Busemann horizon time (default t-max + 5)")
    add_common(p, seed=False)

    p = sub.add_parser("converge", help="replay boundary convergence from a report")
    p.add_argument("report", help="geodesic report JSON (from `origeo geodesic`)")
    p.add_argument("--n-max", type=int, default=20, dest="n_max")
    p.add_argument("--eps", type=float, default=0.05,
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
        globals()[f"cmd_{args.command}"](_checked(args))
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
