"""The row kernels: against the exact path, and block by block against one row.

The float kernels' extremal lengths and distance brackets must agree with
the exact integer path on the same numbers (each float weight read as the
``Fraction`` it is), within the kernels' documented slack.  ``flow`` and
``converge`` evaluate whole blocks of rows; every printed number must be
what the one-row calls give the row's surface, with the jitter drawn in the
order of :func:`origeo.sampling.jittered_surface`, and a failing check must
raise what a loop over the rows would have raised first.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origeo import cli, geodesic, horo, surface
from origeo.errors import CertificationError, Checks
from origeo.geodesic import (
    flow_distance,
    flow_rows,
    line_from_report,
    line_report,
    optimal_geodesic,
    point_at,
)
from origeo.horo import busemann_interval, miyachi_intersection, psi_foliation
from origeo.multicurve import (
    BusemannSpec,
    WeightedMulticurve,
    parse_busemann_spec,
)
from origeo.origami import HORIZONTAL, VERTICAL, builtin, parse_origami
from origeo.sampling import jittered_surface, random_full_instance
from origeo.surface import (
    SurfaceRows,
    WeightedSurface,
    curve_ext_bounds,
    curve_ext_rows,
    distance_interval,
    distance_rows,
    ext_interval,
    ext_rows,
)


def _fmt(x):
    return f"{float(x):.15g}"


@st.composite
def _reports(draw):
    """The report of a small random full-support line."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    _, xi, eta = random_full_instance(rng, (3, 8))
    return line_report(optimal_geodesic(xi, eta))


def _run(report, *argv):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    return out.getvalue()


# The slack of the float kernels: an extremal length's bounds may graze by
# 1e-9 relative (curve_ext_rows), and a curve within 1e-9 relative of r times
# a defining foliation takes the proportional value; a distance's bounds may
# cross by 1e-12 (_DISTANCE_SLACK).
EXT_SLACK = 1e-9
DISTANCE_SLACK = 1e-12


def _staircase_line(n):
    """The staircase with n cells, h = (1 2)(3 4)... and v = (2 3)(4 5)...,
    with unit specs on all of its cores."""
    h = [i + 2 if i % 2 == 0 else i for i in range(n)]
    v = [1] + [i + 2 if i % 2 == 1 else i for i in range(1, n - 1)] + [n]
    o = parse_origami({"squares": n, "h": h, "v": v})
    xi, eta = (BusemannSpec(o, side, {c.label: 1 for c in o.cylinders(side)})
               for side in (VERTICAL, HORIZONTAL))
    return optimal_geodesic(xi, eta)


def _as_fractions(weights):
    return {lab: Fraction(w) for lab, w in weights.items()}


def _exact_surface(rows, i):
    x = rows.surface(i)
    return WeightedSurface(x.origami, _as_fractions(x.heights), _as_fractions(x.widths))


def _exact_curve(curve):
    return WeightedMulticurve(curve.host, curve.side, _as_fractions(curve.weights))


@st.composite
def _blocks(draw):
    """Two blocks of float flow points of a random-full line or of a
    staircase, the second jittered by factors in [e^-0.3, e^0.3], and float
    curves on them: the line's foliations, one within 1e-6 of F_v but not
    proportional to it, and random curves, some without full support."""
    if draw(st.booleans()):
        line = optimal_geodesic(*random_full_instance(
            random.Random(draw(st.integers(0, 10**6))), (3, 8))[1:])
    else:
        line = _staircase_line(draw(st.sampled_from([10, 20])))
    o, count = line.origami, draw(st.integers(1, 4))
    times = st.lists(st.floats(-3.0, 3.0), min_size=count, max_size=count)
    with Checks() as checks:
        x = flow_rows(line, np.array(draw(times)), checks)
        y = flow_rows(line, np.array(draw(times)), checks)
    h, k = x.heights.shape[1], x.heights.shape[1] + x.widths.shape[1]
    jitter = np.exp(np.array(draw(st.lists(
        st.floats(-0.3, 0.3), min_size=count * k, max_size=count * k))).reshape(count, k))
    y = SurfaceRows(o, y.heights * jitter[:, :h], y.widths * jitter[:, h:])
    f_v = line.vertical_foliation
    curves = [f_v, line.horizontal_foliation, WeightedMulticurve(o, f_v.side, {
        lab: w * (1.0 + m * 1e-6) for m, (lab, w) in enumerate(f_v.weights.items())})]
    for side in (HORIZONTAL, VERTICAL):
        labels = [c.label for c in o.cylinders(side)]
        support = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        curves.append(WeightedMulticurve(o, side, {
            lab: draw(st.floats(0.1, 10.0)) for lab in support}))
    return x, y, curves


def _agree(got, want, slack):
    lo, hi = (float(v) for v in (want.lo, want.hi))
    return abs(got[0] - lo) <= slack * hi and abs(got[1] - hi) <= slack * hi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_blocks())
def test_float_kernels_agree_with_the_exact_path(block):
    x, y, curves = block
    with Checks() as checks:
        ext = [(z, c, *(kernel(z, c.side, np.array([c.vector()]), checks)
                        for kernel in (ext_rows, curve_ext_rows)))
               for z in (x, y) for c in curves]
        dist = distance_rows(x, y, checks)
    for i in range(len(x.heights)):
        for z, c, interval, bounds in ext:
            exact_z, exact_c = _exact_surface(z, i), _exact_curve(c)
            assert _agree([a[i] for a in interval], ext_interval(exact_z, exact_c),
                          EXT_SLACK)
            assert _agree([a[i] for a in bounds], curve_ext_bounds(exact_z, exact_c),
                          EXT_SLACK)
        want = distance_interval(_exact_surface(x, i), _exact_surface(y, i))
        assert abs(dist[0][i] - want.lo) <= DISTANCE_SLACK
        assert abs(dist[1][i] - want.hi) <= DISTANCE_SLACK
        one = distance_interval(x.surface(i), y.surface(i))  # the one-row view
        assert (one.lo, one.hi) == (dist[0][i], dist[1][i])


@pytest.mark.xfail(
    strict=True,
    raises=CertificationError,
    reason="ROADMAP item 1: the distance bracket of two near-proportional "
    "float surfaces inverts: lower 1.0000000004191738 exceeds upper 1.0",
)
def test_near_proportional_distance_bracket_is_certified():
    # two float surfaces on h = [3, 2, 1], v = [1, 3, 2], drawn by
    # test_float_kernels_agree_with_the_exact_path with float curve rows;
    # read as Fractions they have the distance bracket [0.99999999958, 1.0]
    o = parse_origami({"squares": 3, "h": [3, 2, 1], "v": [1, 3, 2]})
    x = SurfaceRows(o, np.array([[0.24998817354334912, 0.520260095022889]]),
                    np.array([[0.3795275689430812, 4.677508519031928]]))
    y = SurfaceRows(o, np.array([[0.6795383094725521, 1.4142135623730951]]),
                    np.array([[0.13962038997193676, 1.7207592215367105]]))
    want = distance_interval(_exact_surface(x, 0), _exact_surface(y, 0))
    with Checks() as checks:
        lo, hi = distance_rows(x, y, checks)
    assert abs(lo[0] - want.lo) <= DISTANCE_SLACK
    assert abs(hi[0] - want.hi) <= DISTANCE_SLACK


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    _reports(),
    st.floats(-3.0, 0.0),
    st.sampled_from([0.01, 0.0137, 0.02]),
    st.floats(0.5, 4.0),
)
def test_flow_cells_are_the_scalar_values(report, t_min, step, horizon):
    # at least 151 rows, more than one block; the horizon lies below t + 5
    # for most rows, so those rows take their own far point G(t + 5)
    t_max = t_min + 150 * step + 0.5 * step
    out = _run(report, "flow", f"--t-min={t_min!r}", f"--t-max={t_max!r}",
               f"--step={step!r}", f"--horizon={horizon!r}")
    line = line_from_report(report)
    base = line.base_surface
    f_v, f_h = line.vertical_foliation, line.horizontal_foliation
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) > horo._BLOCK_ROWS
    for i, row in enumerate(rows):
        t = t_min + i * step
        pt = point_at(line, t)
        bus = busemann_interval(line, pt, horizon=max(horizon, t + 5.0))
        want = (
            [t, *pt.widths.values(), *pt.heights.values()]
            + [ext_interval(pt, f_v).lo, ext_interval(pt, f_h).lo]
            + [psi_foliation(f, pt, base).midpoint() for f in (f_v, f_h)]
            + [bus.lo, bus.hi, flow_distance(line, 0.0, t)]
        )
        assert row == [_fmt(v) for v in want], f"row {i}, t={t}"


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(_reports(), st.integers(1, 12), st.sampled_from([0.0, 0.05, 0.3]),
       st.integers(0, 99))
def test_converge_rows_are_the_scalar_values(report, n_max, eps, seed):
    out = _run(report, "converge", f"--n-max={n_max}", f"--eps={eps}",
               f"--seed={seed}")
    data = json.loads(out)
    line = line_from_report(report)
    base = line.base_surface
    rng = random.Random(seed)
    for n, exact, jittered in zip(range(1, n_max + 1), data["exact"],
                                  data["jittered"]["rows"]):
        x_n, y_n = point_at(line, -n), point_at(line, n)
        mi = miyachi_intersection(x_n, y_n, base)
        gap = flow_distance(line, -n, n) - flow_distance(line, 0, -n)
        assert exact == {"n": n, "gap": gap, "miyachiLo": mi.lo, "miyachiHi": mi.hi}
        x_j, hf_x, wf_x = jittered_surface(rng, x_n, eps)
        y_j, hf_y, wf_y = jittered_surface(rng, y_n, eps)
        proxy = WeightedSurface(
            base.origami,
            {k: w * math.sqrt(hf_x[k] * hf_y[k]) for k, w in base.heights.items()},
            {k: w * math.sqrt(wf_x[k] * wf_y[k]) for k, w in base.widths.items()},
        )
        d_proxy = distance_interval(base, proxy)
        d_xy, d_0x = distance_interval(x_j, y_j), distance_interval(base, x_j)
        assert jittered == {
            "n": n, "proxyLo": d_proxy.lo, "proxyHi": d_proxy.hi,
            "gapLo": d_xy.lo - d_0x.hi, "gapHi": d_xy.hi - d_0x.lo,
        }


@pytest.mark.parametrize(
    "failing, named",
    [
        # psi_fv is checked before psi_fh within a row, but row 3 comes first
        ({"psi_fv": [7], "psi_fh": [3, 7]}, "psi_fh at t=0.30000000000000004 "),
        # both fail in row 3: the one checked first
        ({"psi_fv": [3, 5], "psi_fh": [3]}, "psi_fv at t=0.30000000000000004 "),
    ],
)
def test_failing_rows_raise_the_earliest_rows_error(monkeypatch, capsys, failing, named):
    report = line_report(optimal_geodesic(*random_full_instance(
        random.Random(3), (3, 8))[1:]))
    psi_rows = horo.psi_rows
    names = iter(["psi_fv", "psi_fh"])  # the order flow asks for them

    def shifted(ext_x, ext_0, checks):
        lo, hi = (a.copy() for a in psi_rows(ext_x, ext_0, checks))
        rows = failing[next(names)]
        lo[rows] += 1.0
        hi[rows] += 1.0
        return lo, hi

    monkeypatch.setattr(horo, "psi_rows", shifted)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        code = cli.main(["flow", str(path), "--t-min=0", "--t-max=1", "--step=0.1"])
    assert code == 5
    assert capsys.readouterr().err.startswith("certification failure: " + named)


def _line_report(xi, eta):
    o = parse_origami({"squares": 3, "h": [2, 1, 3], "v": [3, 2, 1]})
    xi = parse_busemann_spec(
        {"side": "vertical", "coeffs": [["B1", xi[0]], ["B2", xi[1]]]}, o)
    eta = parse_busemann_spec(
        {"side": "horizontal", "coeffs": [["A1", eta[0]], ["A2", eta[1]]]}, o)
    return line_report(optimal_geodesic(xi, eta))


# Rows past the float range, reached once the reach cap is lifted.  Each
# outcome is what the row loop gave: the exit code and stderr of the first
# check failing, or the exception of a math call.  Their arrays fill with inf
# and nan on the way, which must not raise a RuntimeWarning (pytest makes it
# an error) nor cut the checks short.
@pytest.mark.parametrize(
    "xi, eta, argv, outcome",
    [
        # row t = 708: G(t) overflows both widths
        (("1000", "1000"), ("1", "1"), ["flow", "--t-min=0", "--t-max=708",
         "--step=708", "--horizon=1"],
         (2, "error: weight on B1 must be positive and finite, got inf\n")),
        # row t = -708, the first: G(t) overflows a height
        (("1e-3", "1"), ("1e5", "1"), ["flow", "--t-min=-708", "--t-max=0",
         "--step=354", "--horizon=1"],
         (2, "error: weight on A1 must be positive and finite, got inf\n")),
        # row t = 708: e^-1416 underflows r^2 of F_v at G(t) to 0, log(0)
        (("1", "1"), ("1", "1"), ["flow", "--t-min=0", "--t-max=708",
         "--step=708", "--horizon=1"],
         (2, "error: log(0.0) has no finite float value: the point lies past the "
             "float range\n")),
        # row t = -712: e^712 overflows to inf, a height G(t) cannot carry
        (("1", "1"), ("1", "1"), ["flow", "--t-min=-712", "--t-max=-690",
         "--step=0.5", "--horizon=1"],
         (2, "error: weight on A1 must be positive and finite, got inf\n")),
        # rung n = 178: the bracket of d(G(-n), G(n)) overflows
        (("1", "1"), ("1", "1"), ["converge", "--n-max=200", "--eps=0"],
         (5, "certification failure: flow distance 356.0 escapes certified "
             "interval [inf, inf]\n")),
        # rung n = 176: Ext of F_h at G(n) overflows to inf, and so does the
        # lower bound of d(G(-n), G(n)); the jittered rungs before it certify
        (("1000", "1"), ("1", "1"), ["converge", "--n-max=200", "--eps=0.3"],
         (5, "certification failure: distance bounds inverted: lower inf exceeds "
             "upper 352.0\n")),
    ],
)
def test_overflowing_rows_fail_as_the_row_loop_failed(monkeypatch, capsys, xi, eta,
                                                       argv, outcome):
    report = _line_report(xi, eta)
    monkeypatch.setattr(geodesic, "MAX_REACH", 2000.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        argv = [argv[0], str(path), *argv[1:]]
        if isinstance(outcome[0], int):
            assert cli.main(argv) == outcome[0]
            assert capsys.readouterr() == ("", outcome[1])
        else:
            with pytest.raises(outcome[0], match=f"^{outcome[1]}$"):
                cli.main(argv)


@pytest.mark.parametrize("b2", ["1", "1e150"])
def test_a_1e150_coefficient_runs_every_command(tmp_path, capsys, b2):
    # converge exited 5 with "extremal length bounds inverted: lo=inf
    # hi=7.109883420790702e+158" (b2 = "1"): pairing^2 overflowed on a jittered rung
    xi = {"side": "vertical", "coeffs": [["B1", "1e150"], ["B2", b2]], "approx": True}
    eta = {"side": "horizontal", "coeffs": [["A1", "1"], ["A2", "1"]]}
    paths = [tmp_path / "xi.json", tmp_path / "eta.json"]
    for path, spec in zip(paths, (xi, eta)):
        path.write_text(json.dumps(spec))
    report = str(tmp_path / "report.json")
    for argv in (["geodesic", "--builtin", "l-2-2", *map(str, paths), "--out", report],
                 ["flow", report], ["converge", report]):
        assert cli.main(argv) == 0, capsys.readouterr().err


def test_busemann_enclosure_reads_only_the_upper_distance_bound(monkeypatch):
    # the one extremal length is the foliation bound at G(0.7); the far point
    # G(h) enters through qc_rows alone
    o = builtin("l-2-2")
    line = optimal_geodesic(*(BusemannSpec(o, side, {c.label: 1 for c in o.cylinders(side)})
                              for side in (VERTICAL, HORIZONTAL)))
    calls = []
    for module in (surface, horo):
        monkeypatch.setattr(module, "ext_rows", lambda *args, kernel=module.ext_rows:
                            calls.append(args) or kernel(*args))
    hv = busemann_interval(line, point_at(line, 0.7), horizon=6.0)
    assert (hv.lo, hv.hi) == (-0.7000000000000002, -0.7)
    assert len(calls) == 1


def test_checks_raise_the_first_check_of_the_earliest_row():
    checks = Checks()
    checks.add(np.array([False, False, True]), lambda i: CertificationError(f"a{i}"))
    checks.add(np.array([False, True, True]), lambda i: CertificationError(f"b{i}"))
    checks.add(np.array([True]), lambda i: CertificationError(f"c{i}"))  # all rows
    with pytest.raises(CertificationError, match="^c0$"):
        checks.raise_first()
    checks.pop()
    with pytest.raises(CertificationError, match="^b1$"):
        checks.raise_first()
    Checks([(np.array([False, False]), None)]).raise_first()  # nothing fails


_FLOAT64 = st.one_of(
    st.floats(width=64),  # inf, nan, -0.0 and subnormals included
    st.integers(0, 2**64 - 1).map(  # any bit pattern, nan payloads too
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_FLOAT64, min_size=1, max_size=30))
def test_csv_lines_are_the_per_value_format(row):
    rows = [row, row[::-1]]
    want = [",".join(f"{v:.15g}" for v in r) for r in rows]
    assert cli._csv_lines(np.array(rows)) == want
