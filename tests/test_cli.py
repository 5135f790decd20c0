import csv
import io
import json
import subprocess
import sys

import pytest

L22 = {"squares": 3, "h": [2, 1, 3], "v": [3, 2, 1]}
XI_UNIT = {"side": "vertical", "coeffs": [["B1", "1"], ["B2", "1"]], "approx": False}
ETA_UNIT = {
    "side": "horizontal",
    "coeffs": [["A1", "1"], ["A2", "1"]],
    "approx": False,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "origeo.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (
        ("origami", L22),
        ("xi", XI_UNIT),
        ("eta", ETA_UNIT),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


@pytest.fixture
def report_file(files, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "geodesic", files["origami"], files["xi"], files["eta"],
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    return str(out)


def test_validate_summary_fields(files):
    res = run_cli("validate", files["origami"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["squares"] == 3
    assert data["genus"] == 2
    assert data["coneAngles2Pi"] == [3]
    assert data["intersectionMatrix"] == [[1, 1], [1, 0]]
    labels = [c["id"] for c in data["cylinders"]["horizontal"]]
    assert labels == ["A1", "A2"]


def test_validate_builtin_flag():
    res = run_cli("validate", "--builtin", "quaternion-8")
    assert res.returncode == 0
    assert json.loads(res.stdout)["genus"] == 3


def test_validate_requires_exactly_one_source(files):
    assert run_cli("validate").returncode == 2
    assert (
        run_cli("validate", files["origami"], "--builtin", "l-2-2").returncode == 2
    )


def test_geodesic_report_content(report_file):
    data = json.loads(open(report_file).read())
    lam = float(data["lambda"])
    assert abs(lam - 2.618033988749895) < 1e-10
    assert data["filling"] == "FillingCertified"
    assert data["walshForwardCosine"] > 1 - 1e-9
    assert float(data["area"]) > 0
    assert data["inputs"]["origami"]["squares"] == 3
    assert data["config"]["seed"] == 0


def test_geodesic_deterministic_bytes(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli(
            "geodesic", files["origami"], files["xi"], files["eta"],
            "--seed", "3", "--out", str(out),
        )
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_flow_grid_and_columns(report_file):
    res = run_cli(
        "flow", report_file, "--t-min", "-3", "--t-max", "3", "--step", "0.5"
    )
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout)))
    header, body = rows[0], rows[1:]
    assert header == [
        "t", "width_B1", "width_B2", "height_A1", "height_A2",
        "ext_fv", "ext_fh", "psi_fv", "psi_fh",
        "busemann_lo", "busemann_hi", "d_to_base",
    ]
    assert len(body) == 13
    ts = [float(r[0]) for r in body]
    assert ts == [(-3 + 0.5 * i) for i in range(13)]
    for r in body:
        t = float(r[0])
        assert abs(float(r[header.index("psi_fv")]) + t) <= 1e-12
        assert abs(float(r[header.index("psi_fh")]) - t) <= 1e-12
        assert abs(float(r[header.index("d_to_base")]) - abs(t)) <= 1e-12
        assert abs(float(r[header.index("busemann_lo")]) + t) <= 1e-9
        assert abs(float(r[header.index("busemann_hi")]) + t) <= 1e-9


def test_flow_respects_custom_grid(report_file):
    res = run_cli("flow", report_file, "--t-min", "0", "--t-max", "1", "--step", "0.25")
    body = res.stdout.strip().splitlines()[1:]
    assert len(body) == 5


def test_flow_rejects_empty_grid(report_file):
    res = run_cli("flow", report_file, "--t-min", "2", "--t-max", "-2")
    assert res.returncode == 2


def test_converge_exact_gaps(report_file):
    res = run_cli("converge", report_file, "--n-max", "6", "--eps", "0.05")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert [row["gap"] for row in data["exact"]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for row in data["exact"]:
        assert row["miyachiLo"] - 1e-12 <= 1.0 <= row["miyachiHi"] + 1e-12
    assert data["jittered"]["note"] == "demonstration, not certificate"
    assert data["deltaProbe"]["status"] == "probe"


def test_converge_zero_jitter_collapses(report_file):
    res = run_cli("converge", report_file, "--n-max", "4", "--eps", "0")
    data = json.loads(res.stdout)
    for row in data["jittered"]["rows"]:
        assert row["proxyLo"] == 0.0 and row["proxyHi"] == 0.0


def test_converge_jitter_stays_bounded(report_file):
    res = run_cli("converge", report_file, "--n-max", "12", "--eps", "0.1")
    data = json.loads(res.stdout)
    for row in data["jittered"]["rows"]:
        assert row["proxyHi"] <= 0.5  # bounded uniformly in n


def test_check_passes_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("check", "--seed", "11", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["status"] == "pass"
    assert len(data["suites"]) == 7


def test_check_suite_filter():
    res = run_cli("check", "--suite", "gauss")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert [s["name"] for s in data["suites"]] == ["gauss-bonnet"]


def test_check_unknown_suite_exits_config_error():
    assert run_cli("check", "--suite", "nonesuch").returncode == 2


def test_check_negative_tolerance_exits_config_error():
    assert run_cli("check", "--tol", "-1").returncode == 2


def test_missing_file_exits_input_error(tmp_path):
    assert run_cli("validate", str(tmp_path / "nope.json")).returncode == 2


def test_bad_json_exits_input_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert run_cli("validate", str(p)).returncode == 2


def test_low_genus_exits_input_error(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"squares": 2, "h": [2, 1], "v": [1, 2]}))
    res = run_cli("validate", str(p))
    assert res.returncode == 2
    assert "genus" in res.stderr


def test_non_filling_exits_hypothesis_error(files, tmp_path):
    xi = tmp_path / "xi2.json"
    eta = tmp_path / "eta2.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B2", "1"]], "approx": False}
    ))
    eta.write_text(json.dumps(
        {"side": "horizontal", "coeffs": [["A2", "1"]], "approx": False}
    ))
    res = run_cli("geodesic", files["origami"], str(xi), str(eta))
    assert res.returncode == 3
    assert "fill" in res.stderr


def test_flow_without_flat_realization_exits_hypothesis_error(files, tmp_path):
    xi = tmp_path / "xi1.json"
    eta = tmp_path / "eta1.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B1", "1"]], "approx": False}
    ))
    eta.write_text(json.dumps(
        {"side": "horizontal", "coeffs": [["A1", "1"]], "approx": False}
    ))
    rep = tmp_path / "sub.json"
    assert run_cli(
        "geodesic", files["origami"], str(xi), str(eta), "--out", str(rep)
    ).returncode == 0
    assert run_cli("flow", str(rep)).returncode == 3


def test_unreachable_tolerance_exits_no_convergence(files):
    res = run_cli(
        "geodesic", files["origami"], files["xi"], files["eta"], "--tol", "1e-30"
    )
    assert res.returncode == 4


def test_out_file_matches_stdout(files, tmp_path):
    out = tmp_path / "v.json"
    res = run_cli("validate", files["origami"], "--out", str(out))
    assert res.returncode == 0
    assert out.read_text() == res.stdout


def test_long_horizon_flow_exits_input_error(report_file):
    res = run_cli("flow", report_file, "--t-min", "0", "--t-max", "800",
                  "--step", "100")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "flow time plus horizon" in res.stderr


def test_tiny_step_flow_exits_input_error(report_file):
    res = run_cli("flow", report_file, "--t-min", "0", "--t-max", "1",
                  "--step", "1e-9")
    assert res.returncode == 2
    assert "rows" in res.stderr
    assert res.stdout == ""


def test_far_converge_exits_input_error(report_file):
    res = run_cli("converge", report_file, "--n-max", "1000")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["validate", "flow", "converge", "check"])
def test_tol_is_a_geodesic_option_only(command, files, report_file):
    args = {
        "validate": [files["origami"]],
        "flow": [report_file],
        "converge": [report_file],
        "check": ["--suite", "gauss"],
    }[command]
    assert run_cli(command, *args).returncode == 0
    res = run_cli(command, *args, "--tol", "1e-9")
    assert res.returncode == 2
    assert "--tol" in res.stderr


def test_check_config_echoes_only_the_seed():
    res = run_cli("check", "--suite", "gauss", "--seed", "4")
    assert json.loads(res.stdout)["config"] == {"seed": 4}


def test_flow_pairs_each_surface_once(report_file, monkeypatch, capsys):
    """``flow`` derives each flat surface's area once, however often it asks."""
    from origeo import cli, multicurve, surface

    calls, surfaces = [], []
    pairing = multicurve.pair_intersection
    init = surface.WeightedSurface.__post_init__

    def counted_pairing(a, b):
        calls.append((a, b))
        return pairing(a, b)

    def counted_init(self):
        surfaces.append(self)
        init(self)

    for module in (multicurve, surface):
        monkeypatch.setattr(module, "pair_intersection", counted_pairing)
    monkeypatch.setattr(surface.WeightedSurface, "__post_init__", counted_init)
    code = cli.main(["flow", report_file, "--t-min", "0", "--t-max", "1",
                     "--step", "0.5"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 4  # header and 3 rows
    # the rebuilt line pairs its two foliations once; every other pairing
    # is the area of one of the surfaces the rows built
    assert len(calls) <= 1 + len(surfaces)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tol_exits_input_error(files, value):
    res = run_cli("geodesic", files["origami"], files["xi"], files["eta"],
                  "--tol", value)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--tol" in res.stderr


@pytest.mark.parametrize("value", ["800", "1e308", "inf", "nan"])
def test_far_or_non_finite_eps_exits_input_error(report_file, value):
    res = run_cli("converge", report_file, "--eps", value)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--eps" in res.stderr


@pytest.mark.parametrize("value", ["1e400", "inf"])
def test_non_finite_spec_weight_exits_input_error(files, tmp_path, value):
    xi = tmp_path / "xi-big.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B1", "1"], ["B2", value]], "approx": True}
    ))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "B2" in res.stderr and "finite" in res.stderr


# md5 of the golden line's stdout: reusing flow points and extremal lengths
# must leave every printed bit as it was
GOLDEN_STDOUT_MD5 = {
    ("flow", "--step", "0.05"): "39bade7259e9843b9510e5e201bbbed7",
    ("converge", "--n-max", "20"): "07416b409c2cbf6cfcbb59162576b693",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_MD5))
def test_golden_stdout_is_pinned(report_file, argv):
    import hashlib

    res = run_cli(argv[0], report_file, *argv[1:])
    assert res.returncode == 0, res.stderr
    assert hashlib.md5(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT_MD5[argv]


def _count_surfaces_and_proportionality(monkeypatch):
    from origeo import surface

    built, calls = [], []
    init = surface.WeightedSurface.__post_init__
    proportionality = surface.WeightedSurface.proportionality
    monkeypatch.setattr(
        surface.WeightedSurface, "__post_init__",
        lambda self: built.append(self) or init(self),
    )
    monkeypatch.setattr(
        surface.WeightedSurface, "proportionality",
        lambda self, curve: calls.append(curve) or proportionality(self, curve),
    )
    return built, calls


def test_flow_builds_each_point_once(report_file, monkeypatch, capsys):
    from origeo import cli

    built, calls = _count_surfaces_and_proportionality(monkeypatch)
    assert cli.main(["flow", report_file, "--step", "0.05"]) == 0
    assert capsys.readouterr().out.count("\n") == 122  # header and 121 rows
    # the base, one point per row but t = 0 and one far Busemann point;
    # building every point afresh took 362 surfaces and 1,815 calls
    assert len(built) <= 122
    assert len(calls) <= 726


def test_converge_builds_each_point_once(report_file, monkeypatch, capsys):
    from origeo import cli

    built, _ = _count_surfaces_and_proportionality(monkeypatch)
    assert cli.main(["converge", report_file, "--n-max", "20"]) == 0
    capsys.readouterr()
    # the base, then per n: G(-n), G(n), their two jitters and one proxy;
    # rebuilding the flow points took 201
    assert len(built) <= 101


def test_long_flow_keeps_its_memos_bounded(report_file, monkeypatch, capsys):
    from origeo import cli

    lines = []
    rebuild = cli.line_from_report
    monkeypatch.setattr(
        cli, "line_from_report", lambda report: lines.append(rebuild(report)) or lines[-1]
    )
    built, _ = _count_surfaces_and_proportionality(monkeypatch)
    code = cli.main(["flow", report_file, "--t-min", "0", "--t-max", "1",
                     "--step", "0.0005"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 2002
    assert len(lines) == 1 and len(lines[0]._points) <= 4
    assert max(len(s._ext) for s in built) <= 8


@pytest.mark.parametrize("command", ["flow", "converge"])
@pytest.mark.parametrize(
    "config, named",
    [
        (None, "config"),
        ({"tol": "abc"}, "tol"),
        ({"tol": 1e-12, "seed": 1.5}, "seed"),
    ],
)
def test_malformed_report_config_exits_input_error(
    report_file, tmp_path, command, config, named
):
    report = json.loads(open(report_file).read())
    report["config"] = config
    bad = tmp_path / "bad-config.json"
    bad.write_text(json.dumps(report))
    res = run_cli(command, str(bad))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert named in res.stderr


@pytest.mark.parametrize(
    "value, approx",
    [("1e300", True), ("1e-300", True), ("1e400", False), ("1e-400", False)],
)
def test_coupling_beyond_float_range_exits_input_error(files, tmp_path, value, approx):
    xi = tmp_path / "xi-range.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B1", "1"], ["B2", value]], "approx": approx}
    ))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 2
    assert "RuntimeWarning" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert "float64" in res.stderr


@pytest.mark.parametrize(
    "origami, named",
    [
        ({"squares": 3, "h": [2.5, 1, 3], "v": [3, 2, 1]}, "h"),
        ({"squares": 3, "h": [2, 1, 3], "v": ["3", 2, True]}, "v"),
        ({"squares": True, "h": [1], "v": [1]}, "squares"),
    ],
)
def test_validate_rejects_non_integer_cells(tmp_path, origami, named):
    path = tmp_path / "origami.json"
    path.write_text(json.dumps(origami))
    res = run_cli("validate", str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert named in res.stderr
