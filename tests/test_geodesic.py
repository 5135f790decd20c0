import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from origeo.errors import (
    ComplexityError,
    HostMismatch,
    InputError,
    NotFillingError,
    SideMismatch,
)
from origeo.geodesic import (
    line_from_report,
    line_report,
    optimal_geodesic,
    ray_limit,
    spec_pairing,
)
from origeo.multicurve import (
    HORIZONTAL,
    VERTICAL,
    BusemannSpec,
    FillingStatus,
    WeightedMulticurve,
    core_curve,
    intersection,
)
from origeo.origami import Origami, builtin
from origeo.perron import gram
from origeo.sampling import random_full_instance, random_primitive_instance

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture
def golden():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    return optimal_geodesic(xi, eta)


def test_golden_eigendata(golden):
    assert abs(golden.eigen.eigenvalue - (3 + math.sqrt(5)) / 2) < 1e-10
    assert golden.eigen.residual <= 1e-12
    # x and y both l1-normalize the ray (1, 1/phi)
    expect = (PHI / (1 + PHI), 1 / (1 + PHI))
    assert max(abs(a - b) for a, b in zip(golden.x, expect)) < 1e-8
    assert max(abs(a - b) for a, b in zip(golden.y, expect)) < 1e-8
    assert abs(golden.scale - PHI) < 1e-10


def test_golden_foliations_and_area(golden):
    assert golden.filling is FillingStatus.FILLING_CERTIFIED
    fv = golden.vertical_foliation
    fh = golden.horizontal_foliation
    assert fv.side == VERTICAL and fh.side == HORIZONTAL
    # unit coefficients: weights equal the eigenvector entries
    assert fv.weights["B1"] == golden.x[0]
    assert fh.weights["A2"] == golden.y[1]
    area = float(golden.base_surface.area())
    assert abs(area - math.sqrt(5) / PHI**2) < 1e-12


def test_golden_walsh_certificates(golden):
    assert golden.walsh_forward_cosine > 1 - 1e-9
    assert golden.walsh_backward_cosine > 1 - 1e-9


def test_limits_are_unit_vectors_supported_transversally(golden):
    fl = golden.forward_limit()
    bl = golden.backward_limit()
    assert abs(sum(v * v for v in fl.values()) - 1.0) < 1e-12
    assert abs(sum(v * v for v in bl.values()) - 1.0) < 1e-12
    # the forward datum is vertical, so it pairs only with horizontal cores
    assert fl["B1"] == fl["B2"] == 0.0
    assert bl["A1"] == bl["A2"] == 0.0
    assert fl["A1"] > fl["A2"] > 0


def test_point_at_scales_widths_and_heights(golden):
    base = golden.base_surface
    pt = golden.point_at(2.0)
    for lab, w in base.widths.items():
        assert pt.widths[lab] == float(w) * math.exp(2.0)
    for lab, h in base.heights.items():
        assert pt.heights[lab] == float(h) * math.exp(-2.0)
    assert golden.point_at(0.0) is base


def test_point_at_rejects_non_finite(golden):
    with pytest.raises(ValueError):
        golden.point_at(math.inf)


@pytest.mark.parametrize("reversed_first", [False, True])
def test_reversed_line_never_reads_the_forward_flow_points(golden, reversed_first):
    forward_one = golden.point_at(1.0)  # G(1) now sits in the forward memo
    rev = golden.reversed()
    if reversed_first:
        back, fwd = rev.point_at(1.0), golden.point_at(-1.0)
    else:
        fwd, back = golden.point_at(-1.0), rev.point_at(1.0)
    assert (back.widths, back.heights) == (fwd.widths, fwd.heights)
    assert back is not forward_one and back.widths != forward_one.widths


def test_point_memo_keeps_the_most_recently_used_points(golden):
    far = golden.point_at(8.0)
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        assert golden.point_at(t) is golden.point_at(t)
        assert golden.point_at(8.0) is far
    assert len(golden._points) == 4


def test_flow_distance_is_exact_parameter_gap(golden):
    assert golden.flow_distance(0, 1) == 1.0
    assert golden.flow_distance(-2.5, 1.5) == 4.0
    assert golden.flow_distance(3, 3) == 0.0
    assert golden.flow_distance(7, -13) == 20.0


def test_reversal_swaps_everything_in_place(golden):
    rev = golden.reversed()
    assert rev.forward_spec is golden.backward_spec
    assert rev.vertical_foliation is golden.horizontal_foliation
    assert rev.forward_limit() == golden.backward_limit()
    assert rev.backward_limit() == golden.forward_limit()
    assert rev.point_at(1.0).widths == golden.point_at(-1.0).widths
    assert rev.point_at(1.0).heights == golden.point_at(-1.0).heights
    again = rev.reversed()
    assert again.forward_limit() == golden.forward_limit()


def test_input_order_does_not_matter():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    a = optimal_geodesic(xi, eta)
    b = optimal_geodesic(eta, xi)  # auto-oriented: vertical side leads
    assert a.forward_spec is b.forward_spec is xi
    assert a.eigen.eigenvalue == b.eigen.eigenvalue
    assert a.x == b.x


def test_same_side_specs_rejected():
    o = builtin("l-2-2")
    one = BusemannSpec(o, VERTICAL, {"B1": Fraction(1)})
    two = BusemannSpec(o, VERTICAL, {"B2": Fraction(1)})
    with pytest.raises(SideMismatch):
        optimal_geodesic(one, two)


def test_cross_host_specs_rejected():
    xi = BusemannSpec(builtin("l-2-2"), VERTICAL, {"B1": Fraction(1)})
    eta = BusemannSpec(builtin("l-3-2"), HORIZONTAL, {"A1": Fraction(1)})
    with pytest.raises(HostMismatch):
        optimal_geodesic(xi, eta)


def test_low_genus_host_rejected():
    torus = Origami(2, (2, 1), (1, 2))
    xi = BusemannSpec(torus, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(torus, HORIZONTAL, {"A1": Fraction(1)})
    with pytest.raises(ComplexityError):
        optimal_geodesic(xi, eta)


def test_non_filling_pair_rejected():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A2": Fraction(1)})  # n(A2, B2) = 0
    with pytest.raises(NotFillingError):
        optimal_geodesic(xi, eta)


def test_proper_subsets_build_without_surface():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1)})
    line = optimal_geodesic(xi, eta)
    assert line.filling is FillingStatus.MATRIX_PRIMITIVE_ONLY
    assert line.base_surface is None
    assert line.eigen.eigenvalue == pytest.approx(1.0)
    with pytest.raises(NotFillingError):
        line.point_at(1.0)
    with pytest.raises(NotFillingError):
        line.flow_distance(0, 1)
    # limit functions still make sense
    fl = line.forward_limit()
    assert fl["A1"] > 0 and fl["B1"] == 0.0


def test_coefficients_steer_the_weights():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(3), "B2": Fraction(1, 2)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(2)})
    line = optimal_geodesic(xi, eta)
    fv = line.vertical_foliation.weights
    assert fv["B1"] == pytest.approx(3 * line.x[0])
    assert fv["B2"] == pytest.approx(0.5 * line.x[1])
    assert line.walsh_forward_cosine > 1 - 1e-9


def test_report_schema_and_round_trip(golden):
    rep = line_report(golden)
    assert set(rep) >= {
        "lambda", "x", "y", "residual", "fVert", "fHor", "area",
        "walshForwardCosine", "walshBackwardCosine", "inputs", "config",
    }
    assert isinstance(rep["lambda"], str)
    assert all(isinstance(s, str) for s in rep["x"] + rep["y"])
    assert isinstance(rep["residual"], float)
    assert set(rep["fVert"]) == {"B1", "B2"}
    assert set(rep["fHor"]) == {"A1", "A2"}

    again = line_from_report(json.loads(json.dumps(rep)))
    assert again.eigen.eigenvalue == golden.eigen.eigenvalue
    assert again.x == golden.x and again.y == golden.y


def test_report_without_inputs_is_rejected(golden):
    rep = line_report(golden)
    del rep["inputs"]
    with pytest.raises(InputError):
        line_from_report(rep)


@pytest.mark.parametrize(
    "config, named",
    [
        (None, "config"),
        ([1e-12, 0], "config"),
        ({"tol": "abc"}, "tol"),
        ({"tol": True}, "tol"),
        ({"tol": 10**400}, "tol"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"seed": False}, "seed"),
    ],
)
def test_report_config_is_checked(golden, config, named):
    rep = line_report(golden)
    rep["config"] = config
    with pytest.raises(InputError, match=named):
        line_from_report(rep)


@pytest.mark.parametrize(
    "coeff", [1e300, 1e-300, Fraction(10) ** 400, Fraction(10) ** -400]
)
def test_coupling_beyond_float_range_is_an_input_error(coeff):
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": 1.0, "B2": coeff})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": 1.0, "A2": 1.0})
    with pytest.raises(InputError, match="float64"):
        optimal_geodesic(xi, eta)


def test_subset_report_has_null_area():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1)})
    rep = line_report(optimal_geodesic(xi, eta))
    assert rep["area"] is None
    assert rep["filling"] == "MatrixPrimitiveOnly"


@pytest.mark.parametrize("seed", range(6))
def test_random_instances_close_the_system(seed):
    rng = random.Random(f"geo:{seed}")
    _, xi, eta = random_primitive_instance(rng)
    line = optimal_geodesic(xi, eta)
    assert line.walsh_forward_cosine > 1 - 1e-9
    assert line.walsh_backward_cosine > 1 - 1e-9
    # y side closes exactly by construction; x side within the certificate
    assert min(line.x) > 0 and min(line.y) > 0


@pytest.mark.parametrize("seed", range(3))
def test_random_full_instances_flow(seed):
    rng = random.Random(f"full:{seed}")
    _, xi, eta = random_full_instance(rng)
    line = optimal_geodesic(xi, eta)
    assert line.base_surface is not None
    assert line.flow_distance(-1.25, 2.75) == 4.0
    a0 = float(line.base_surface.area())
    a2 = float(line.point_at(2.0).area())
    assert abs(a2 - a0) < 1e-9 * a0


def _staircase(n):
    """h swaps (1 2)(3 4)..., v swaps (2 3)(4 5)...: n/2 and n/2 + 1 cylinders."""
    h = [i + 2 if i % 2 == 0 else i for i in range(n)]
    v = [1] + [i + 2 if i % 2 == 1 else i for i in range(1, n - 1)] + [n]
    return Origami(n, h, v)


def _unit_specs(o):
    xi = BusemannSpec(o, VERTICAL, {c.label: Fraction(1) for c in o.cylinders(VERTICAL)})
    eta = BusemannSpec(
        o, HORIZONTAL, {c.label: Fraction(1) for c in o.cylinders(HORIZONTAL)}
    )
    return xi, eta


def _coupling(line):
    """M_ij = c_i d_j n_ij, recomputed from the line's specs."""
    n = line.origami.intersection_matrix()
    xi, eta = line.forward_spec, line.backward_spec
    return [
        [
            float(xi.coeffs[g]) * float(eta.coeffs[a])
            * n.entries[n.row_labels.index(a)][n.col_labels.index(g)]
            for a in eta.support
        ]
        for g in xi.support
    ]


@pytest.mark.parametrize("n", [40, 80])
def test_staircases_with_closing_gaps_certify(n):
    # lambda_2 / lambda_1 is 0.983 at n = 40 and 0.9956 at n = 80
    line = optimal_geodesic(*_unit_specs(_staircase(n)))
    lam = float(np.linalg.eigvalsh(np.array(gram(_coupling(line))))[-1])
    assert line.eigen.lower <= line.eigen.eigenvalue <= line.eigen.upper
    assert abs(line.eigen.eigenvalue - lam) <= 1e-10 * lam
    assert line.flow_distance(-1.0, 2.0) == 3.0


def test_large_lambda_random_full_instance_certifies():
    # n90-s0 of the benchmark family: lambda ~ 1.65e4
    _, xi, eta = random_full_instance(random.Random("90:0"), (90, 90))
    line = optimal_geodesic(xi, eta)
    assert line.eigen.eigenvalue > 1e4
    assert line.eigen.upper - line.eigen.lower <= 1e-12 * line.eigen.lower
    assert min(line.walsh_forward_cosine, line.walsh_backward_cosine) > 1 - 1e-11


def test_large_coefficients_close_the_system():
    # coefficients of 1e6 put lambda near 1e24; the closure bound is relative
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(10**6), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(10**6), "A2": Fraction(3)})
    line = optimal_geodesic(xi, eta)
    assert line.eigen.eigenvalue > 1e23
    assert line.walsh_forward_cosine > 1 - 1e-11


def test_report_carries_the_certified_bracket(golden):
    rep = line_report(golden)
    assert rep["lambdaLo"] <= golden.eigen.eigenvalue <= rep["lambdaHi"]
    assert rep["lambdaLo"] <= (3 + math.sqrt(5)) / 2 <= rep["lambdaHi"]


def test_report_lambda_reads_back_inside_its_bracket(golden):
    rng = random.Random("report-lambda")
    lines = [golden]
    lines += [optimal_geodesic(*random_full_instance(rng, (3, 30))[1:]) for _ in range(10)]
    lines += [optimal_geodesic(*random_primitive_instance(rng)[1:]) for _ in range(10)]
    for line in lines:
        rep = line_report(line)
        assert float(rep["lambda"]) == line.eigen.eigenvalue
        assert rep["lambdaLo"] <= float(rep["lambda"]) <= rep["lambdaHi"]
    assert line_report(golden)["lambda"] == repr(golden.eigen.eigenvalue)


def test_line_pairing_is_the_area_and_survives_reversal(golden):
    assert golden.pairing == golden.base_surface.area()
    assert golden.reversed().pairing == golden.pairing
    assert golden.pairing == intersection(
        golden.vertical_foliation, golden.horizontal_foliation
    )


def _brute_force_profile(side_cores, q, curves):
    """sqrt(sum_k q_k i(core_k, gamma)^2), one exact pairing per core and curve."""
    out = []
    for gamma in curves:
        total = 0.0
        for core in side_cores:
            pairing = float(intersection(core, gamma))
            total += q[core.support[0]] * pairing * pairing
        out.append(math.sqrt(total))
    return out


def _all_cores(o):
    return [
        core_curve(o, side, c.label)
        for side in (HORIZONTAL, VERTICAL)
        for c in o.cylinders(side)
    ]


@pytest.mark.parametrize(
    "instance",
    [("full", s) for s in range(4)] + [("subset", s) for s in range(4)],
    ids=lambda inst: f"{inst[0]}-{inst[1]}",
)
def test_limit_kernel_matches_per_core_reference(instance):
    kind, seed = instance
    rng = random.Random(f"kernel:{kind}:{seed}")
    draw = random_full_instance if kind == "full" else random_primitive_instance
    o, xi, eta = draw(rng, (5, 12))
    line = optimal_geodesic(xi, eta)
    cores = _all_cores(o)
    mixed = WeightedMulticurve(
        o, HORIZONTAL, {c.label: Fraction(rng.randint(1, 5), 3)
                        for c in o.cylinders(HORIZONTAL)}
    )
    curves = cores + [mixed]
    for f, g in (
        (line.vertical_foliation, line.horizontal_foliation),
        (line.horizontal_foliation, line.vertical_foliation),
    ):
        side_cores = [core_curve(o, f.side, lab) for lab in f.weights]
        q = {
            lab: float(w) / float(intersection(core_curve(o, f.side, lab), g))
            for lab, w in f.weights.items()
        }
        want = _brute_force_profile(side_cores, q, curves)
        got = ray_limit(f, g, curves).tolist()
        assert got[: len(cores)] == ray_limit(f, g).tolist()
        scale = max(want)
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))
    for spec in (xi, eta):
        side_cores = [core_curve(o, spec.side, lab) for lab in spec.coeffs]
        q = {lab: float(c) ** 2 for lab, c in spec.coeffs.items()}
        want = _brute_force_profile(side_cores, q, curves)
        got = spec_pairing(spec, curves).tolist()
        scale = max(want)
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))


def test_pipeline_validates_each_weighted_family_a_bounded_number_of_times(
    monkeypatch,
):
    # one random-full pipeline operation: parse, filling check, geodesic,
    # both limits, one flow distance, one Busemann enclosure and one
    # distance bracket; 2 specs + base surface + 6 flow points = 16
    import origeo as og
    from origeo.multicurve import busemann_spec_to_json
    from origeo.origami import origami_to_json

    o, xi, eta = random_full_instance(random.Random("40:0"), (40, 40))
    docs = [origami_to_json(o), busemann_spec_to_json(xi), busemann_spec_to_json(eta)]
    calls = []
    validate = WeightedMulticurve.__post_init__
    monkeypatch.setattr(
        WeightedMulticurve, "__post_init__",
        lambda self: calls.append(self.side) or validate(self),
    )
    origami = og.parse_origami(docs[0])
    origami.validate()
    xi = og.parse_busemann_spec(docs[1], origami)
    eta = og.parse_busemann_spec(docs[2], origami)
    og.filling_status(xi.as_multicurve(), eta.as_multicurve())
    line = og.optimal_geodesic(xi, eta)
    og.forward_limit(line), og.backward_limit(line)
    s, t = -1.25, 2.5
    og.flow_distance(line, s, t)
    og.busemann_interval(line, og.point_at(line, t), horizon=abs(t) + 5.0)
    og.distance_interval(og.point_at(line, s), og.point_at(line, t))
    assert len(calls) <= 16


def test_line_foliations_are_the_base_surface_datum(golden):
    base = golden.base_surface
    assert golden.vertical_foliation is base.defining_foliation(VERTICAL)
    assert golden.horizontal_foliation is base.defining_foliation(HORIZONTAL)
