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
    backward_limit,
    flow_distance,
    forward_limit,
    line_from_report,
    line_report,
    optimal_geodesic,
    point_at,
    ray_limit,
    reversed_line,
    spec_pairing,
)
from origeo.multicurve import (
    BusemannSpec,
    WeightedMulticurve,
    core_curve,
    intersection,
)
from origeo.errors import checked
from origeo.origami import (
    HORIZONTAL,
    VERTICAL,
    Origami,
    builtin,
    origami_to_json,
    parse_origami,
)
from origeo.perron import gram
from origeo.sampling import random_full_instance, random_primitive_instance
from origeo.surface import SurfaceRows, WeightedSurface, check_weights

PHI = (1 + math.sqrt(5)) / 2

# A proper filling pair: A2 meets B1 once and B2 twice, and its O′ is the
# genus 2 L-shaped origami on the 3 cells of A2.
PROPER = (4, [1, 3, 4, 2], [4, 3, 2, 1])


def _proper_line():
    o = Origami(*PROPER)
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(2), "B2": Fraction(1, 3)})
    eta = BusemannSpec(o, HORIZONTAL, {"A2": Fraction(3, 2)})
    return optimal_geodesic(xi, eta)


def _filling_line(rng, draw=random_primitive_instance, *args):
    """The line of the first draw from ``rng`` that fills; each draw refused
    on the way is a proper pair, refused with NotFillingError."""
    while True:
        _, xi, eta = draw(rng, *args)
        try:
            return optimal_geodesic(xi, eta)
        except NotFillingError:
            full = (xi.as_multicurve().is_full_support()
                    and eta.as_multicurve().is_full_support())
            assert not full


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
    # full supports run on the host itself
    assert golden.origami.parent is golden.origami is golden.forward_spec.host
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
    fl = forward_limit(golden)
    bl = backward_limit(golden)
    assert abs(sum(v * v for v in fl.values()) - 1.0) < 1e-12
    assert abs(sum(v * v for v in bl.values()) - 1.0) < 1e-12
    # the forward datum is vertical, so it pairs only with horizontal cores
    assert fl["B1"] == fl["B2"] == 0.0
    assert bl["A1"] == bl["A2"] == 0.0
    assert fl["A1"] > fl["A2"] > 0


def test_point_at_scales_widths_and_heights(golden):
    base = golden.base_surface
    pt = point_at(golden, 2.0)
    for lab, w in base.widths.items():
        assert pt.widths[lab] == float(w) * math.exp(2.0)
    for lab, h in base.heights.items():
        assert pt.heights[lab] == float(h) * math.exp(-2.0)
    assert point_at(golden, 0.0) is base


def test_point_at_rejects_non_finite(golden):
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError, match="flow time must be finite"):
            point_at(golden, t)


@pytest.mark.parametrize("t", [800.0, -800.0])
def test_flow_time_past_the_float_range_is_an_input_error(golden, t):
    # e^800 overflows to inf and e^-800 underflows to 0: either weight is refused
    for call in (lambda: point_at(golden, t), lambda: flow_distance(golden, 0, t)):
        with pytest.raises(InputError, match="^weight on A1 must be positive and finite"):
            call()


@pytest.mark.parametrize("reversed_first", [False, True])
def test_reversed_line_never_reads_the_forward_flow_points(golden, reversed_first):
    forward_one = point_at(golden, 1.0)
    rev = reversed_line(golden)
    if reversed_first:
        back, fwd = point_at(rev, 1.0), point_at(golden, -1.0)
    else:
        fwd, back = point_at(golden, -1.0), point_at(rev, 1.0)
    assert (back.widths, back.heights) == (fwd.widths, fwd.heights)
    assert back is not forward_one and back.widths != forward_one.widths


def test_flow_distance_is_exact_parameter_gap(golden):
    assert flow_distance(golden, 0, 1) == 1.0
    assert flow_distance(golden, -2.5, 1.5) == 4.0
    assert flow_distance(golden, 3, 3) == 0.0
    assert flow_distance(golden, 7, -13) == 20.0


def test_reversal_swaps_everything_in_place(golden):
    rev = reversed_line(golden)
    assert rev.forward_spec is golden.backward_spec
    assert rev.vertical_foliation is golden.horizontal_foliation
    assert forward_limit(rev) == backward_limit(golden)
    assert backward_limit(rev) == forward_limit(golden)
    assert point_at(rev, 1.0).widths == point_at(golden, -1.0).widths
    assert point_at(rev, 1.0).heights == point_at(golden, -1.0).heights
    again = reversed_line(rev)
    assert forward_limit(again) == forward_limit(golden)


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


def test_proper_subsets_that_do_not_fill_are_refused():
    # B1 and A1 cross once: their O′ is the one-square torus
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1)})
    with pytest.raises(NotFillingError, match=r"genus\(O′\) = 1 < 2"):
        optimal_geodesic(xi, eta)


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


def test_a_fault_inside_a_report_parser_propagates(golden, monkeypatch):
    # only the report's own JSON lookups become "lacks reconstructible inputs"
    from origeo import geodesic

    def faulty(data, host):
        raise TypeError("fault inside the parser")

    monkeypatch.setattr(geodesic, "parse_busemann_spec", faulty)
    with pytest.raises(TypeError, match="fault inside the parser"):
        line_from_report(line_report(golden))


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


def test_proper_filling_pair_runs_on_its_restricted_origami():
    line = _proper_line()
    cut = line.origami
    o = cut.parent
    assert o == Origami(*PROPER) and cut != Origami(cut.n, cut.h, cut.v)
    assert cut.n == 3 and cut.genus() == o.genus() == 2
    assert line.forward_spec.host is line.backward_spec.host is cut
    assert line.base_surface.origami is cut
    # N(O′) is N restricted to the supports, bit for bit
    n = o.intersection_matrix().array
    assert cut.intersection_matrix().array.tobytes() == n[np.ix_([1], [0, 1])].tobytes()
    assert list(forward_limit(line)) == ["A2", "B1", "B2"]
    assert flow_distance(line, -1.25, 2.75) == 4.0
    rep = line_report(line)
    assert rep["area"] == f"{float(line.base_surface.area()):.15g}"
    assert rep["filling"] == "FillingCertified"
    assert rep["inputs"]["origami"] == origami_to_json(o)
    back = line_from_report(json.loads(json.dumps(rep)))
    assert (back.eigen, back.x, back.y) == (line.eigen, line.x, line.y)
    assert back == line and back.origami is not cut


@pytest.mark.parametrize("seed", range(6))
def test_random_instances_close_the_system(seed):
    rng = random.Random(f"geo:{seed}")
    line = _filling_line(rng)
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
    assert flow_distance(line, -1.25, 2.75) == 4.0
    a0 = float(line.base_surface.area())
    a2 = float(point_at(line, 2.0).area())
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


def _relabelled_staircase(n, seed):
    """The staircase with its cells renumbered by a seeded permutation."""
    o = _staircase(n)
    sigma = list(range(1, n + 1))
    random.Random(seed).shuffle(sigma)
    h, v = [0] * n, [0] * n
    for i in range(n):
        h[sigma[i] - 1] = sigma[o.h[i] - 1]
        v[sigma[i] - 1] = sigma[o.v[i] - 1]
    return Origami(n, h, v)


@pytest.mark.parametrize(
    "n, relabel",
    [
        pytest.param(40, False, id="40"),
        pytest.param(80, False, id="80"),
        pytest.param(160, False, id="160"),
        pytest.param(160, True, id="160-relabelled"),
    ],
)
def test_staircases_with_closing_gaps_certify(n, relabel):
    # lambda_2 / lambda_1 is 0.983 at n = 40, 0.9956 at n = 80 and 0.9989 at
    # n = 160; renumbering the cells reorders the rows and columns of N
    o = _relabelled_staircase(n, f"stair:{n}") if relabel else _staircase(n)
    line = optimal_geodesic(*_unit_specs(o))
    lam = float(np.linalg.eigvalsh(np.array(gram(_coupling(line))))[-1])
    assert line.eigen.lower <= line.eigen.eigenvalue <= line.eigen.upper
    assert abs(line.eigen.eigenvalue - lam) <= 1e-10 * lam
    assert flow_distance(line, -1.0, 2.0) == 3.0


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
    lines += [_filling_line(rng) for _ in range(10)]
    for line in lines:
        rep = line_report(line)
        assert float(rep["lambda"]) == line.eigen.eigenvalue
        assert rep["lambdaLo"] <= float(rep["lambda"]) <= rep["lambdaHi"]
    assert line_report(golden)["lambda"] == repr(golden.eigen.eigenvalue)


def test_line_pairing_is_the_area_and_survives_reversal(golden):
    assert golden.pairing == golden.base_surface.area()
    assert reversed_line(golden).pairing == golden.pairing
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
    line = _filling_line(rng, draw, (5, 12))
    # a proper pair's line, its specs and its limits live on its O′
    o, xi, eta = line.origami, line.forward_spec, line.backward_spec
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
        want = _brute_force_profile(side_cores, q, cores)
        got = ray_limit(f, g).tolist()
        assert len(got) == len(cores)
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


def test_eigenvalue_past_the_float_range_is_an_input_error():
    # M and M M^T fit in float64, lambda ~ 2.2e308 does not
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": 9.6e76, "B2": 9.6e76}, approx=True)
    eta = BusemannSpec(o, HORIZONTAL, {"A1": 9.6e76, "A2": 9.6e76}, approx=True)
    with pytest.raises(InputError, match="eigenvalue leaves the float64 range"):
        optimal_geodesic(xi, eta)


@pytest.mark.parametrize("instance", ["random-full", "staircase-40"])
def test_construction_converts_solves_and_pads_once(monkeypatch, instance):
    # one construction and both limits: each spec coefficient goes to float
    # once, the solve builds no Fraction and runs once, and the limit kernel
    # on the identity curves stacks no zero block
    import fractions

    from origeo import geodesic, perron

    if instance == "random-full":
        _, xi, eta = random_full_instance(random.Random("40:0"), (40, 40))
    else:
        xi, eta = _unit_specs(_staircase(40))
    converted, built, solves, stacks = [], [], [], []
    in_perron = []
    to_float, new = fractions.Fraction.__float__, fractions.Fraction.__new__
    monkeypatch.setattr(fractions.Fraction, "__float__",
                        lambda self: converted.append(id(self)) or to_float(self))
    monkeypatch.setattr(
        fractions.Fraction, "__new__",
        staticmethod(lambda cls, *a, **k: (in_perron and built.append(a)) or new(cls, *a, **k)))
    solve = perron.perron_solve

    def counted_solve(*args, **kwargs):
        solves.append(1)
        in_perron.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            in_perron.pop()

    monkeypatch.setattr(geodesic, "perron_solve", counted_solve)
    hstack = np.hstack
    monkeypatch.setattr(np, "hstack", lambda *a, **k: stacks.append(1) or hstack(*a, **k))
    line = optimal_geodesic(xi, eta)
    forward_limit(line), backward_limit(line)
    coefficients = [id(c) for spec in (xi, eta) for c in spec.coeffs.values()]
    assert all(isinstance(c, Fraction) for spec in (xi, eta) for c in spec.coeffs.values())
    assert sorted(converted) == sorted(coefficients)
    assert built == []
    assert solves == [1]
    assert stacks == []


def test_staircase_line_never_builds_the_dense_table():
    # N of staircase-160 has 160 nonzero cells out of 80 x 81; the line, a
    # flow distance, a flow point and a Busemann enclosure read the cells
    from origeo.horo import busemann_interval

    o = _staircase(160)
    line = optimal_geodesic(*_unit_specs(o))
    flow_distance(line, -1.0, 2.0)
    busemann_interval(line, point_at(line, 2.0), horizon=7.0)
    assert "entries" not in vars(o.intersection_matrix())


@pytest.mark.parametrize("value", [Fraction(10**400), Fraction(1, 10**400)])
def test_exact_coefficient_past_the_float_range_is_refused(value):
    # the float row reads 10^400 as an OverflowError and 10^-400 as 0; the
    # underflowed coefficient is refused, not dropped from the support
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": value})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    with pytest.raises(InputError, match="coefficients span more than float64"):
        optimal_geodesic(xi, eta)


def test_float_row_is_read_only_in_cylinder_order():
    o = builtin("l-2-2")
    curve = WeightedMulticurve(o, VERTICAL, {"B2": Fraction(1, 3)})
    row = curve.row
    assert row.dtype == np.float64 and row.tolist() == [0.0, 1 / 3]
    assert curve.row is row  # converted once
    with pytest.raises(ValueError):
        row[0] = 1.0


# ---------------------------------------------------------------------------
# quantities derived once: surfaces from checked rows, limits from the
# certificate


def _random_full_line(seed):
    return optimal_geodesic(*random_full_instance(random.Random(f"once:{seed}"))[1:])


def _staircase_line(n):
    return optimal_geodesic(*_unit_specs(_staircase(n)))


LINES = [lambda: _random_full_line(0), lambda: _random_full_line(1),
         lambda: _random_full_line(2), lambda: _staircase_line(40)]


def _assert_validated_twin(surface):
    """surface equals, bit for bit, what the validating constructor builds
    from its weights."""
    twin = WeightedSurface(surface.origami, dict(surface.heights), dict(surface.widths))
    assert list(surface.heights.items()) == list(twin.heights.items())
    assert list(surface.widths.items()) == list(twin.widths.items())
    assert surface == twin
    for got, want in ((surface.rows.heights, twin.rows.heights),
                      (surface.rows.widths, twin.rows.widths)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert float(surface.area()).hex() == float(twin.area()).hex()
    for side in (HORIZONTAL, VERTICAL):
        got, want = surface.defining_foliation(side), twin.defining_foliation(side)
        assert got == want
        assert list(got.weights.values()) == surface.rows.side(side)[0].tolist()
        assert got.row.tobytes() == want.row.tobytes()
        assert not got.row.flags.writeable
        assert got.integer_form is None and want.integer_form is None


@pytest.mark.parametrize("make", LINES)
def test_surfaces_from_checked_rows_match_the_validating_constructor(make):
    line = make()
    _assert_validated_twin(line.base_surface)
    for t in (-2.5, -0.125, 0.75, 3.0):
        _assert_validated_twin(point_at(line, t))


@pytest.mark.parametrize("bad", [0.0, math.inf])
def test_a_checked_row_with_a_bad_weight_raises_the_constructors_text(bad):
    block = SurfaceRows(builtin("l-2-2"), np.array([[1.0, bad]]), np.array([[1.0, 1.0]]))
    with pytest.raises(InputError,
                       match=f"^weight on A2 must be positive and finite, got {bad!r}$"):
        checked(check_weights, block)


@pytest.mark.parametrize("make", LINES)
def test_limits_are_the_certificate_vectors_and_reverse_bit_for_bit(make):
    line = make()
    f_v, f_h = line.vertical_foliation, line.horizontal_foliation
    assert line.forward_values.tobytes() == ray_limit(f_v, f_h).tobytes()
    assert line.backward_values.tobytes() == ray_limit(f_h, f_v).tobytes()
    assert not line.forward_values.flags.writeable
    rev = reversed_line(line)
    assert forward_limit(rev) == backward_limit(line)
    assert backward_limit(rev) == forward_limit(line)
    assert rev == reversed_line(reversed_line(rev))


def test_staircase_pipeline_checks_and_derives_each_quantity_once(monkeypatch):
    """One staircase-160 pipeline: each spec weight meets the Python weight
    check once, the two ray limits are computed only while the line is
    constructed, and each distinct coefficient text is parsed once per spec."""
    from origeo import geodesic, multicurve
    from origeo.horo import busemann_interval
    from origeo.multicurve import filling_status, parse_busemann_spec

    o = _staircase(160)
    docs = [origami_to_json(o)] + [
        {"side": side, "coeffs": [[c.label, "1"] for c in o.cylinders(side)]}
        for side in (VERTICAL, HORIZONTAL)]
    weights, texts, limits, constructing = [], [], [], []
    check, parse = multicurve._check_weights, multicurve.parse_coefficient
    limit, construct = geodesic.ray_limit, optimal_geodesic

    def constructed(*args):
        constructing.append(1)
        try:
            return construct(*args)
        finally:
            constructing.pop()

    monkeypatch.setattr(multicurve, "_check_weights",
                        lambda w: weights.extend(w) or check(w))
    monkeypatch.setattr(multicurve, "parse_coefficient",
                        lambda text, approx: texts.append(text) or parse(text, approx))
    monkeypatch.setattr(geodesic, "ray_limit",
                        lambda *args: limits.append(bool(constructing)) or limit(*args))

    host = parse_origami(docs[0])
    host.validate()
    xi, eta = (parse_busemann_spec(doc, host) for doc in docs[1:])
    filling_status(xi.as_multicurve(), eta.as_multicurve())
    line = constructed(xi, eta)
    forward_limit(line), backward_limit(line)
    flow_distance(line, -1.0, 2.0)
    busemann_interval(line, point_at(line, 2.0), horizon=7.0)

    labels = [c.label for side in (VERTICAL, HORIZONTAL) for c in host.cylinders(side)]
    assert len(labels) == 161
    assert sorted(weights) == sorted(labels)
    assert limits == [True, True]
    assert texts == ["1", "1"]


# the random-full rows whose certified bracket misses the exact rho by about
# one ulp: the bracket is of the rounded Gram matrix (ROADMAP item 15)
_ITEM_15_MISSES = {"n10-s2", "n20-s3", "n30-s4", "n40-s2", "n70-s0", "n100-s4",
                   "n160-s2", "n170-s2", "n210-s2", "n230-s0", "n240-s0"}


def _random_full_rows():
    item_15 = pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the bracket "
                                "encloses rho of the float Gram matrix, not of the "
                                "exact coupling")
    for n in range(10, 301, 10):
        for s in range(5):
            tag = f"n{n}-s{s}"
            yield pytest.param(n, s, id=tag,
                               marks=[item_15] if tag in _ITEM_15_MISSES else [])


@pytest.mark.parametrize("n, s", _random_full_rows())
def test_random_full_bracket_encloses_the_exact_rho(n, s):
    import mpmath

    _, xi, eta = random_full_instance(random.Random(f"{n}:{s}"), (n, n))
    line = optimal_geodesic(xi, eta)
    matrix = xi.host.intersection_matrix()
    c = [xi.coeffs[b] for b in matrix.col_labels]
    d = [eta.coeffs[a] for a in matrix.row_labels]
    # M_ij = c_i d_j N[j][i], and T = M M^T, both exact
    m = [[ci * dj * row[i] for dj, row in zip(d, matrix.entries)] for i, ci in enumerate(c)]
    t = [[sum((a * b for a, b in zip(u, v)), Fraction(0)) for v in m] for u in m]
    with mpmath.workdps(60):
        rho = max(mpmath.eigsy(mpmath.matrix(
            [[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in t]),
            eigvals_only=True))
        assert mpmath.mpf(line.eigen.lower) <= rho <= mpmath.mpf(line.eigen.upper)
