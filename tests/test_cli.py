import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from origeo import cli

L22 = {"squares": 3, "h": [2, 1, 3], "v": [3, 2, 1]}
XI_UNIT = {"side": "vertical", "coeffs": [["B1", "1"], ["B2", "1"]], "approx": False}
ETA_UNIT = {
    "side": "horizontal",
    "coeffs": [["A1", "1"], ["A2", "1"]],
    "approx": False,
}


def run_cli(*args):
    # a NumPy RuntimeWarning fails the command, as it fails in-process tests
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "origeo.cli", *args],
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
            "--out", str(out),
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
    res = run_cli("converge", report_file, "--n-max", "6")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert list(data) == ["nMax", "exact", "deltaProbe"]
    assert [row["gap"] for row in data["exact"]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for row in data["exact"]:
        assert row["miyachiLo"] - 1e-12 <= 1.0 <= row["miyachiHi"] + 1e-12
    assert data["deltaProbe"]["status"] == "probe"


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


def test_run_suites_keeps_the_suite_order_once_each(monkeypatch):
    from origeo import checks
    from origeo.errors import InputError

    ran = []
    monkeypatch.setattr(checks, "_SUITES", tuple(
        (name, lambda seed, name=name: ran.append(name) or {"status": "pass"})
        for name, _ in checks._SUITES))
    assert checks.run_suites(0, ["walsh", "oracle", "perron"])["status"] == "pass"
    assert ran == ["perron-oracle", "primitivity-oracle", "walsh-consistency"]
    with pytest.raises(InputError, match="'nonesuch'"):
        checks.run_suites(0, ["gauss", "nonesuch"])
    assert ran == ["perron-oracle", "primitivity-oracle", "walsh-consistency"]


def test_check_negative_tolerance_exits_config_error():
    assert run_cli("check", "--tol", "-1").returncode == 2


def test_missing_file_exits_input_error(tmp_path):
    assert run_cli("validate", str(tmp_path / "nope.json")).returncode == 2


def test_bad_json_exits_input_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert run_cli("validate", str(p)).returncode == 2


def test_non_utf8_file_exits_input_error(tmp_path):
    p = tmp_path / "utf16.json"
    # UTF-16 with its byte-order mark ff fe
    p.write_bytes(b"\xff\xfe" + json.dumps(L22).encode("utf-16-le"))
    res = run_cli("validate", str(p))
    assert res.returncode == 2
    assert f"{p} is not UTF-8 text" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_input_error(files, tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    res = run_cli("validate", files["origami"], "--out", str(out))
    assert res.returncode == 2
    assert f"cannot write {out}" in res.stderr
    assert "Traceback" not in res.stderr
    # the file is written before stdout, so nothing was printed
    assert res.stdout == ""


def test_unwritable_out_is_refused_before_the_suites_run(tmp_path, monkeypatch, capsys):
    from origeo import checks

    ran = []
    monkeypatch.setattr(checks, "run_suites", lambda **kwargs: ran.append(kwargs))
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["check", "--seed", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: no directory {out.parent}\n"
    assert captured.out == ""
    assert ran == []
    assert not out.parent.exists()


def test_out_file_is_untouched_by_a_command_that_fails(tmp_path, capsys):
    out = tmp_path / "x.json"
    out.write_text("kept")
    assert cli.main(["check", "--suite", "no-such-suite", "--out", str(out)]) == 2
    assert "no check suite matches" in capsys.readouterr().err
    assert out.read_text() == "kept"


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
    # (B1, A1) does not fill: their O′ is the one-square torus, so there is
    # no line for geodesic to report, nor for flow to rebuild from a report
    pair = (
        {"side": "vertical", "coeffs": [["B1", "1"]], "approx": False},
        {"side": "horizontal", "coeffs": [["A1", "1"]], "approx": False},
    )
    xi, eta = tmp_path / "xi1.json", tmp_path / "eta1.json"
    for path, doc in zip((xi, eta), pair):
        path.write_text(json.dumps(doc))
    res = run_cli("geodesic", files["origami"], str(xi), str(eta))
    assert res.returncode == 3
    assert "genus(O′) = 1 < 2" in res.stderr
    report = json.loads(
        run_cli("geodesic", files["origami"], files["xi"], files["eta"]).stdout)
    report["inputs"]["xi"], report["inputs"]["eta"] = pair
    rep = tmp_path / "sub.json"
    rep.write_text(json.dumps(report))
    res = run_cli("flow", str(rep))
    assert res.returncode == 3
    assert "genus" in res.stderr


def test_proper_filling_pair_runs_end_to_end(tmp_path, capsys):
    # B1, B2 and A2 fill this genus 2 origami: geodesic, flow and converge
    # run on their O′, and the report embeds the origami itself
    from origeo.geodesic import line_from_report, line_report

    origami = {"squares": 4, "h": [1, 3, 4, 2], "v": [4, 3, 2, 1]}
    docs = {
        "origami": origami,
        "xi": {"side": "vertical", "coeffs": [["B1", "2"], ["B2", "1/3"]]},
        "eta": {"side": "horizontal", "coeffs": [["A2", "3/2"]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    rep = tmp_path / "report.json"
    assert cli.main(["geodesic", str(paths["origami"]), str(paths["xi"]),
                     str(paths["eta"]), "--out", str(rep)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["area"] is not None and report["filling"] == "FillingCertified"
    assert report["inputs"]["origami"] == origami

    assert cli.main(["flow", str(rep), "--t-min", "-3", "--t-max", "3",
                     "--step", "0.5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 13
    for row in rows:
        t = float(row["t"])
        tol = 1e-12 * max(1.0, abs(t))
        assert abs(float(row["psi_fv"]) + t) <= tol
        assert abs(float(row["psi_fh"]) - t) <= tol
        assert abs(float(row["d_to_base"]) - abs(t)) <= tol
    assert cli.main(["converge", str(rep)]) == 0
    capsys.readouterr()

    line = line_from_report(report)
    back = line_from_report(json.loads(json.dumps(line_report(line))))
    assert back.eigen.eigenvalue.hex() == line.eigen.eigenvalue.hex()
    assert [v.hex() for v in back.x + back.y] == [v.hex() for v in line.x + line.y]


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


@pytest.mark.parametrize("t_min, t_max, step, reach", [
    ("-360", "-359", "1", "714"),
    ("-300", "-299", "1", "594"),
    ("300", "301", "1", "607"),
    ("0", "800", "100", "1605"),
])
def test_far_flow_windows_exit_input_error_on_either_side(report_file, capsys, t_min,
                                                          t_max, step, reach):
    # the default horizon t-max + 5 is negative on the left, and the far point
    # G(max(horizon, t + 5)) is then as far out as G(t): |t| + |far| counts both
    assert cli.main(["flow", report_file, f"--t-min={t_min}", f"--t-max={t_max}",
                     "--step", step]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: flow time plus horizon is {reach}, beyond the 177.4")


@pytest.mark.parametrize("t_min, t_max, step, times", [
    ("-1", "1", "3", [-1.0]),
    ("0", "1", "0.35", [0.0, 0.35, 0.7]),
    ("-3", "3", "0.05", [round(-3 + 0.05 * k, 12) for k in range(121)]),
])
def test_flow_grid_stops_at_t_max(report_file, capsys, t_min, t_max, step, times):
    assert cli.main(["flow", report_file, f"--t-min={t_min}", f"--t-max={t_max}",
                     "--step", step]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [round(float(row.split(",")[0]), 12) for row in rows] == times


@pytest.mark.parametrize("value", ["1e-100", "1e100"])
def test_coupling_gram_beyond_float_range_exits_input_error(files, tmp_path, capsys, value):
    # every square is normal, but M M^T is 2e-400 (underflow) or 2e400 (overflow)
    for name, side, prefix in (("xi", "vertical", "B"), ("eta", "horizontal", "A")):
        (tmp_path / f"{name}-gram.json").write_text(json.dumps(
            {"side": side, "coeffs": [[f"{prefix}1", value], [f"{prefix}2", value]]}))
    assert cli.main(["geodesic", files["origami"], str(tmp_path / "xi-gram.json"),
                     str(tmp_path / "eta-gram.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the coefficients span more than float64 carries")


def test_row_cap_is_checked_before_the_reach_cap(report_file):
    # 1,000,001 rows reaching t = 1e6: the grid is refused before any time is
    res = run_cli("flow", report_file, "--t-min", "0", "--t-max", "1e6", "--step", "1")
    assert res.returncode == 2
    assert res.stderr == ("error: time grid needs 1000001 rows, more than 10000; "
                          "raise --step or narrow [--t-min, --t-max]\n")


def test_tiny_step_flow_exits_input_error(report_file):
    res = run_cli("flow", report_file, "--t-min", "0", "--t-max", "1",
                  "--step", "1e-9")
    assert res.returncode == 2
    assert "rows" in res.stderr
    assert res.stdout == ""


def test_converge_probe_skips_a_core_without_unit_rescaling(tmp_path, capsys):
    # B1's extremal length bound at the base is inf: the probe leaves it out
    # and takes its minimum over the cores that have a float rescaling
    docs = {
        "xi": {"side": "vertical", "coeffs": [["B1", "1e-150"], ["B2", "1"], ["B3", "1"]],
               "approx": True},
        "eta": {"side": "horizontal", "coeffs": [["A1", "1e30"], ["A2", "1"]],
                "approx": True},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    rep = tmp_path / "report.json"
    assert cli.main(["geodesic", "--builtin", "staircase-4", str(tmp_path / "xi.json"),
                     str(tmp_path / "eta.json"), "--out", str(rep)]) == 0
    assert cli.main(["flow", str(rep)]) == 0
    capsys.readouterr()
    assert cli.main(["converge", str(rep)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in data["exact"]] == list(range(1, 21))
    assert data["deltaProbe"]["status"] == "probe"
    assert data["deltaProbe"]["witness"] != "B1"


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


@pytest.mark.parametrize("command", ["validate", "flow", "geodesic"])
def test_seed_is_not_a_validate_or_flow_option(command, files, report_file):
    args = {
        "validate": [files["origami"]],
        "flow": [report_file],
        "geodesic": [files["origami"], files["xi"], files["eta"]],
    }[command]
    assert run_cli(command, *args).returncode == 0
    res = run_cli(command, *args, "--seed", "1")
    assert res.returncode == 2
    assert "--seed" in res.stderr


def test_check_config_echoes_only_the_seed():
    res = run_cli("check", "--suite", "gauss", "--seed", "4")
    assert json.loads(res.stdout)["config"] == {"seed": 4}


def test_flow_pairs_each_surface_once(report_file, monkeypatch, capsys):
    """``flow`` derives each flat surface's area once, however often it asks."""
    from origeo import cli, multicurve, surface

    calls, surfaces = [], []
    pairing = multicurve.pair_intersection
    keep = surface.WeightedSurface._keep

    def counted_pairing(a, b):
        calls.append((a, b))
        return pairing(a, b)

    def counted_keep(self, defining):
        surfaces.append(self)
        keep(self, defining)

    for module in (multicurve, surface):
        monkeypatch.setattr(module, "pair_intersection", counted_pairing)
    # the last step of both constructors, the validating one and the one
    # from checked rows
    monkeypatch.setattr(surface.WeightedSurface, "_keep", counted_keep)
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


@pytest.mark.parametrize(
    "option", ["--t-min=nan", "--t-max=nan", "--t-min=-inf", "--t-max=inf"]
)
def test_non_finite_flow_time_names_its_flag(files, tmp_path, capsys, option):
    report = str(tmp_path / "report.json")
    assert cli.main(["geodesic", files["origami"], files["xi"], files["eta"],
                     "--out", report]) == 0
    capsys.readouterr()
    assert cli.main(["flow", report, option]) == 2
    flag, value = option.split("=")
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_bad_horizon_names_its_flag(report_file, capsys, value):
    assert cli.main(["flow", report_file, f"--horizon={value}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --horizon must be positive and finite, got {float(value)}\n"


@pytest.mark.parametrize(
    "option, message",
    [("--step=0", "--step must be positive and finite, got 0.0"),
     ("--step=inf", "--step must be positive and finite, got inf"),
     ("--n-max=0", "--n-max must be at least 1, got 0")],
)
def test_bad_step_and_n_max_name_their_flags(report_file, capsys, option, message):
    command = "converge" if option.startswith("--n-max") else "flow"
    assert cli.main([command, report_file, option]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["800", "1e308", "inf", "nan"])
def test_far_or_non_finite_eps_exits_input_error(report_file, capsys, value):
    # converge takes neither --eps nor --seed: the parser refuses both, at any
    # value, before a command runs
    for option in (["--eps", value], ["--eps", "0.05"], ["--seed", "3"]):
        with pytest.raises(SystemExit) as refused:
            cli.main(["converge", report_file, *option])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")


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


@pytest.mark.parametrize(
    "coeffs",
    [
        [[["A1"], "1"], ["A2", "1"]],  # unhashable: a traceback, exit 1
        [[{"A1": 1}, "1"], ["A2", "1"]],
        [[1, "1"], ["A2", "1"]],  # an int was read as the label "1"
    ],
)
def test_spec_label_that_is_not_a_string_exits_input_error(files, tmp_path, coeffs):
    eta = tmp_path / "eta-label.json"
    eta.write_text(json.dumps({"side": "horizontal", "coeffs": coeffs}))
    res = run_cli("geodesic", files["origami"], files["xi"], str(eta))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "coeffs[0]" in res.stderr and "must be a string" in res.stderr


@pytest.mark.parametrize(
    "coeffs, entry",
    [
        (["B1", "B2"], "coeffs[0] = 'B1'"),  # read as "duplicate component 'B'"
        (["B1"], "coeffs[0] = 'B1'"),  # read as "no vertical cylinder ['B']"
        ([["B1", "1"], "B2"], "coeffs[1] = 'B2'"),
        ([["B1", "1", "2"]], "coeffs[0] = ['B1', '1', '2']"),
        ([{"B1": "1"}], "coeffs[0] = {'B1': '1'}"),
    ],
)
def test_spec_entry_that_is_not_a_pair_is_named(files, tmp_path, coeffs, entry):
    xi = tmp_path / "xi-entry.json"
    xi.write_text(json.dumps({"side": "vertical", "coeffs": coeffs}))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        f"error: {entry}: an entry must be a [label, value] pair"]


def test_spec_coeffs_that_are_an_object_are_refused(files, tmp_path):
    xi = tmp_path / "xi-object.json"
    xi.write_text(json.dumps({"side": "vertical", "coeffs": {"B1": "1", "B2": "1"}}))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: 'coeffs' must be a list of [label, value] pairs"]


def test_flow_on_a_report_with_string_entries_is_refused(report_file, tmp_path):
    report = json.loads(open(report_file).read())
    report["inputs"]["xi"]["coeffs"] = ["B1", "B2"]
    bad = tmp_path / "report-entries.json"
    bad.write_text(json.dumps(report))
    res = run_cli("flow", str(bad))
    assert res.returncode == 2
    assert "coeffs[0] = 'B1': an entry must be a [label, value] pair" in res.stderr


def test_eigenvalue_past_the_float_range_exits_input_error(files, tmp_path):
    # M and M M^T fit; lambda ~ 2.2e308 does not.  It was exit 4 after four
    # RuntimeWarnings (an error under -W error here) and 1,001 power steps
    for name, side, prefix in (("xi", "vertical", "B"), ("eta", "horizontal", "A")):
        (tmp_path / f"{name}-huge.json").write_text(json.dumps({
            "side": side, "coeffs": [[f"{prefix}1", "9.6e76"], [f"{prefix}2", "9.6e76"]],
            "approx": True,
        }))
    res = run_cli("geodesic", files["origami"], str(tmp_path / "xi-huge.json"),
                  str(tmp_path / "eta-huge.json"))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: the leading eigenvalue leaves the float64 range: its "
        "Collatz–Wielandt upper bound exceeds the largest float"]


@pytest.mark.parametrize("approx", ["no", "false", 0, 1, None, []])
def test_approx_that_is_not_a_boolean_exits_input_error(files, tmp_path, approx):
    # "no" was read as true, and the report echoed "approx": true
    xi = tmp_path / "xi-approx.json"
    xi.write_text(json.dumps(dict(XI_UNIT, approx=approx)))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "'approx' must be true or false" in res.stderr


# md5 of the stdout of the golden line, of the l-3-2 line with unit specs
# (keys starting "l-3-2") and of the canonical staircase-20 line with unit
# specs (21 cores, 29 CSV columns; keys starting "staircase-20"): evaluating
# the rows column-wise must leave every printed bit as the row loop printed
# it.  "--horizon 1" gives each flow row its own far point G(t + 5).
GOLDEN_STDOUT_MD5 = {
    ("flow", "--step", "0.05"): "39bade7259e9843b9510e5e201bbbed7",
    ("converge", "--n-max", "20"): "0dda2cc0d0b377ba3f48f17fc3308657",
    ("flow", "--t-min", "-7", "--t-max", "2", "--step", "0.37", "--horizon", "1"):
        "7b9407422dc5f9474d1036b46d1e3e6e",
    ("l-3-2", "flow", "--step", "0.05"): "be0e5f9d4b95252f19dfda3b83499af2",
    ("l-3-2", "converge", "--n-max", "20"): "28d2ba6540a27e6c04f00719e5ed557d",
    ("staircase-20", "flow", "--step", "0.05"): "d4767a701c3da23e21c02b22c90c102a",
    ("staircase-20", "converge", "--n-max", "20"): "889f688ea340f5fef7896671e1afeba1",
}
# md5 of ``check --seed 7``'s and ``check --seed 0``'s stdout: every
# suite's random stream and report
CHECK_SEED_7_MD5 = "a817223dbb0cd5774c2b2b2cbddbead1"
CHECK_SEED_0_MD5 = "ffaf8864fd828d66325775acc3dbaff7"


@pytest.fixture
def l32_report(files, tmp_path):
    xi = tmp_path / "xi-l32.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B1", "1"], ["B2", "1"], ["B3", "1"]]}
    ))
    out = tmp_path / "l32-report.json"
    res = run_cli("geodesic", "--builtin", "l-3-2", str(xi), files["eta"],
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    return str(out)


def _staircase(n):
    """The staircase with n cells, h = (1 2)(3 4)...(n-1 n) and
    v = (2 3)(4 5)...(n-2 n-1), and unit specs on all n/2 + (n/2 + 1) cores,
    as JSON."""
    h = [i + 2 if i % 2 == 0 else i for i in range(n)]
    v = [1] + [i + 2 if i % 2 == 1 else i for i in range(1, n - 1)] + [n]
    return ({"squares": n, "h": h, "v": v},
            {"side": "vertical", "coeffs": [[f"B{i}", "1"] for i in range(1, n // 2 + 2)]},
            {"side": "horizontal", "coeffs": [[f"A{i}", "1"] for i in range(1, n // 2 + 1)]})


@pytest.fixture(scope="module")
def stair_report(tmp_path_factory):
    """The report of the staircase with 20 cells (10 + 11 cores)."""
    tmp = tmp_path_factory.mktemp("staircase-20")
    paths = {}
    for name, data in zip(("origami", "xi", "eta"), _staircase(20)):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    out = tmp / "report.json"
    res = run_cli("geodesic", str(paths["origami"]), str(paths["xi"]),
                  str(paths["eta"]), "--out", str(out))
    assert res.returncode == 0, res.stderr
    return str(out)


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_MD5))
def test_golden_stdout_is_pinned(report_file, l32_report, stair_report, argv):
    import hashlib

    reports = {"l-3-2": l32_report, "staircase-20": stair_report}
    report, args = (
        (reports[argv[0]], argv[1:]) if argv[0] in reports else (report_file, argv)
    )
    res = run_cli(args[0], report, *args[1:])
    assert res.returncode == 0, res.stderr
    assert hashlib.md5(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT_MD5[argv]


def test_check_seed_7_stdout_is_pinned():
    import hashlib

    res = run_cli("check", "--seed", "7")
    assert res.returncode == 0, res.stderr
    assert hashlib.md5(res.stdout.encode()).hexdigest() == CHECK_SEED_7_MD5


def test_check_seed_0_stdout_is_pinned():
    import hashlib

    res = run_cli("check", "--seed", "0")
    assert res.returncode == 0, res.stderr
    assert hashlib.md5(res.stdout.encode()).hexdigest() == CHECK_SEED_0_MD5


# md5 of ``geodesic``'s stdout on two larger lines: the unit-weight
# staircase with 160 cells (80 x 81 cores) and the seeded random full-support
# instance with 300 cells
LARGE_GEODESIC_MD5 = {
    "staircase-160": "125c3235aa6c932078e176ef6a583338",
    "random-full-300": "d08aca14373bc49c42e2c11595fe2f93",
}


def _large_instance(name):
    """The origami and the two specs of a LARGE_GEODESIC_MD5 line, as JSON."""
    if name == "staircase-160":
        return _staircase(160)
    import random

    from origeo.sampling import random_full_instance

    o, xi, eta = random_full_instance(random.Random("300:2"), (300, 300))
    return ({"squares": o.n, "h": list(o.h), "v": list(o.v)},
            *({"side": spec.side, "coeffs": [[lab, str(c)] for lab, c in spec.coeffs.items()]}
              for spec in (xi, eta)))


@pytest.mark.parametrize("name", sorted(LARGE_GEODESIC_MD5))
def test_large_geodesic_stdout_is_pinned(tmp_path, capsys, name):
    import hashlib

    paths = []
    for part, data in zip(("origami", "xi", "eta"), _large_instance(name)):
        paths.append(tmp_path / f"{part}.json")
        paths[-1].write_text(json.dumps(data))
    assert cli.main(["geodesic", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == LARGE_GEODESIC_MD5[name]


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["validate"], {"origami": None, "builtin": None}),
        (["geodesic", "XI", "ETA"],
         {"origami": None, "builtin": None, "xi": "XI", "eta": "ETA", "tol": 1e-12}),
        (["flow", "R"],
         {"report": "R", "t_min": -3.0, "t_max": 3.0, "step": 0.5, "horizon": None}),
        (["converge", "R"], {"report": "R", "n_max": 20}),
        (["check"], {"suite": None, "seed": 0}),
    ],
)
def test_each_default_is_set_by_the_parser(argv, defaults):
    args = cli.build_parser().parse_args(argv)
    want = {"command": argv[0], "out": None, **defaults}
    # repr tells -3 from -3.0
    assert {k: repr(v) for k, v in vars(args).items()} == {k: repr(v) for k, v in want.items()}


def _count_surfaces_and_blocks(monkeypatch):
    """Count the surfaces built and the blocks of rows (each block is a whole
    column of surfaces)."""
    from origeo import surface

    built, blocks = [], []
    keep = surface.WeightedSurface._keep
    rows_init = surface.SurfaceRows.__init__
    # _keep ends both constructors: the validating one and the one from
    # checked rows
    monkeypatch.setattr(
        surface.WeightedSurface, "_keep",
        lambda self, defining: built.append(self) or keep(self, defining),
    )
    monkeypatch.setattr(
        surface.SurfaceRows, "__init__",
        lambda self, *args: blocks.append(self) or rows_init(self, *args),
    )
    return built, blocks


def test_flow_builds_each_point_once(report_file, monkeypatch, capsys):
    from origeo import cli

    built, blocks = _count_surfaces_and_blocks(monkeypatch)
    assert cli.main(["flow", report_file, "--step", "0.05"]) == 0
    assert capsys.readouterr().out.count("\n") == 122  # header and 121 rows
    # only the base is a surface object; the 121 rows are one block of flow
    # points and one of far Busemann points, next to the base's block.  The
    # row loop built 122 surfaces and made 724 proportionality calls (362
    # surfaces and 1,815 calls before that)
    assert len(built) == 1
    assert len(blocks) == 3


def test_converge_builds_each_point_once(report_file, monkeypatch, capsys):
    from origeo import cli

    built, blocks = _count_surfaces_and_blocks(monkeypatch)
    assert cli.main(["converge", report_file, "--n-max", "20"]) == 0
    capsys.readouterr()
    # only the base is a surface object; G(-n) and G(n) are one block each,
    # next to the base's.  The row loop built 101 surfaces and made 322
    # proportionality calls
    assert len(built) == 1
    assert len(blocks) == 3


def test_long_flow_builds_only_the_base_surface(report_file, monkeypatch, capsys):
    from origeo import cli, geodesic

    lines = []
    rebuild = geodesic.line_from_report
    monkeypatch.setattr(
        geodesic, "line_from_report",
        lambda report: lines.append(rebuild(report)) or lines[-1],
    )
    built, _ = _count_surfaces_and_blocks(monkeypatch)
    code = cli.main(["flow", report_file, "--t-min", "0", "--t-max", "1",
                     "--step", "0.0005"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 2002
    # the 2,001 rows are blocks of rows: the base is the one surface object
    assert len(lines) == 1 and len(built) == 1


@pytest.mark.parametrize("command", ["flow", "converge"])
def test_report_seed_value_is_unused(report_file, tmp_path, command, capsys):
    report = json.loads(open(report_file).read())
    report["config"]["seed"] = 3
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(report))
    outputs = []
    for path in (report_file, str(seeded)):
        assert cli.main([command, path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    "xi_value, eta_value", [("1e305", "1e-305"), ("1e-170", "1e170")]
)
def test_squared_coefficient_beyond_float_range_exits_input_error(
    files, tmp_path, xi_value, eta_value
):
    # the coupling M is all ones here; spec_pairing squares the coefficients
    for name, side, prefix, value in (
        ("xi", "vertical", "B", xi_value), ("eta", "horizontal", "A", eta_value)
    ):
        (tmp_path / f"{name}-range.json").write_text(json.dumps({
            "side": side, "coeffs": [[f"{prefix}1", value], [f"{prefix}2", value]],
            "approx": True,
        }))
    res = run_cli("geodesic", files["origami"], str(tmp_path / "xi-range.json"),
                  str(tmp_path / "eta-range.json"))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: the coefficients span more than float64 carries: a coefficient's "
        "square leaves the normal range, or the coupling M or M M^T overflows to "
        "inf or underflows to 0"
    ]


@pytest.mark.parametrize("b1, b2", [("1e154", "1e154"), ("1.3e154", "1")])
def test_spec_pairing_past_the_float_range_exits_input_error(tmp_path, b1, b2):
    # each square fits, but i(xi, .)^2 sums 1e308 + 1e308 = inf: the limit
    # certificate's cosine was NaN, and geodesic and flow exited 0; with
    # (1.3e154, 1) each pairing fits and only the squared norm overflows
    xi = {"side": "vertical", "coeffs": [["B1", b1], ["B2", b2]], "approx": True}
    eta = {"side": "horizontal", "coeffs": [["A1", "1e-150"], ["A2", "1e-150"]],
           "approx": True}
    paths = []
    for name, data in (("xi", xi), ("eta", eta),
                       ("report", {"inputs": {"origami": L22, "xi": xi, "eta": eta}})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    for args in (("geodesic", "--builtin", "l-2-2", str(paths[0]), str(paths[1])),
                 ("flow", str(paths[2]), "--t-max", "0")):
        res = run_cli(*args)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "NaN" not in res.stdout
        assert res.stderr.startswith("error: the coefficients span more than float64")


def test_coefficient_whose_square_fits_certifies(files, tmp_path):
    xi = tmp_path / "xi-1e150.json"
    xi.write_text(json.dumps(
        {"side": "vertical", "coeffs": [["B1", "1"], ["B2", "1e150"]], "approx": True}
    ))
    res = run_cli("geodesic", files["origami"], str(xi), files["eta"])
    assert res.returncode == 0, res.stderr


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: the bracket encloses λ of the float Gram matrix, not of "
    "the exact coupling; 1/10 gives the zero-width 0.0016000000000000007 and 1/7 "
    "0.006663890045814243, both beside the exact λ",
)
@pytest.mark.parametrize("coeff", ["1/10", "1/7"])
def test_one_cylinder_bracket_encloses_the_exact_lambda(tmp_path, capsys, coeff):
    # N = [[4]], so the exact coupling is M = [[4 c^2]] and λ = (4 c^2)^2
    specs = []
    for side, label in (("vertical", "B1"), ("horizontal", "A1")):
        specs.append(tmp_path / f"{side}.json")
        specs[-1].write_text(json.dumps({"side": side, "coeffs": [[label, coeff]]}))
    assert cli.main(["geodesic", "--builtin", "one-cylinder-4", *map(str, specs)]) == 0
    report = json.loads(capsys.readouterr().out)
    exact = (4 * Fraction(coeff) ** 2) ** 2
    assert Fraction(report["lambdaLo"]) <= exact <= Fraction(report["lambdaHi"])


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["validate", "--builtin", "l-2-2"], ["check", "--suite", "gauss"],
                 ["validate", "--builtin", "quaternion-8"]) * 3:
        assert cli.main(argv) == 0
    assert builds == [1]


def test_rebound_command_is_the_one_that_runs(monkeypatch, capsys):
    assert cli.main(["validate", "--builtin", "l-2-2"]) == 0  # parser built
    assert capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.builtin))
    assert cli.main(["validate", "--builtin", "quaternion-8"]) == 0
    assert seen == ["quaternion-8"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "first, second",
    [
        (["check", "--suite", "gauss"], ["check", "--suite", "perron"]),
        (["flow", "REPORT", "--horizon", "1"], ["flow", "REPORT"]),
        (["converge", "REPORT", "--n-max", "3"], ["converge", "REPORT"]),
    ],
)
def test_flags_do_not_leak_between_calls(report_file, capsys, first, second):
    """In one process, each call prints what a fresh process prints."""
    first, second = ([report_file if a == "REPORT" else a for a in argv]
                     for argv in (first, second))
    for argv in (first, second):
        assert cli.main(argv) == 0
        res = run_cli(*argv)
        assert res.returncode == 0, res.stderr
        assert capsys.readouterr().out == res.stdout


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
