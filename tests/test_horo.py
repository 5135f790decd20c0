import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origeo.errors import HostMismatch, InputError, NotFillingError
from origeo.geodesic import optimal_geodesic, point_at, reversed_line, spec_pairing
from origeo.horo import (
    busemann_interval,
    delta_probe,
    lower_bound_audit,
    minsky_audit,
    miyachi_intersection,
    psi_foliation,
    psi_interior,
    walsh_eval,
)
from origeo.multicurve import (
    BusemannSpec,
    WeightedMulticurve,
    core_curve,
    intersection,
)
from origeo.origami import HORIZONTAL, VERTICAL, Origami, builtin
from origeo.sampling import (
    jittered_surface,
    random_full_instance,
    random_origami,
    random_primitive_instance,
    random_surface,
)
from origeo.surface import (
    WeightedSurface,
    core_ext_bounds,
    curve_ext_bounds,
    ext_interval,
)

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def golden():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    return optimal_geodesic(xi, eta)


def test_walsh_eval_reads_the_pairing():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(2), "B2": Fraction(1)})
    a1 = core_curve(o, HORIZONTAL, "A1")
    # sqrt((2*1)^2 + (1*1)^2)
    assert walsh_eval(xi, a1) == pytest.approx(math.sqrt(5))
    b1 = core_curve(o, VERTICAL, "B1")
    assert walsh_eval(xi, b1) == 0.0


def test_busemann_and_probe_refuse_a_surface_on_another_origami(golden):
    o = builtin("l-3-2")
    other = WeightedSurface(o, {c.label: 1 for c in o.cylinders(HORIZONTAL)},
                            {c.label: 1 for c in o.cylinders(VERTICAL)})
    with pytest.raises(HostMismatch, match="line's origami"):
        busemann_interval(golden, other)
    with pytest.raises(HostMismatch, match="different origamis"):
        delta_probe(golden.forward_spec, golden.backward_spec, other)


def test_walsh_eval_rejects_cross_host():
    xi = BusemannSpec(builtin("l-2-2"), VERTICAL, {"B1": Fraction(1)})
    with pytest.raises(HostMismatch):
        walsh_eval(xi, core_curve(builtin("l-3-2"), HORIZONTAL, "A1"))


@pytest.mark.parametrize("k", range(-6, 7))
def test_defining_rays_have_exact_linear_horofunctions(golden, k):
    t = 0.5 * k
    pt = point_at(golden, t)
    base = golden.base_surface
    down = psi_foliation(golden.vertical_foliation, pt, base)
    up = psi_foliation(golden.horizontal_foliation, pt, base)
    assert down.width == 0 and up.width == 0
    assert abs(down.lo + t) <= 1e-12
    assert abs(up.lo - t) <= 1e-12


def test_off_ray_foliation_value_is_an_interval(golden):
    rng = random.Random("off-ray")
    z, _, _ = jittered_surface(rng, point_at(golden, 0.7), 0.3)
    hv = psi_foliation(golden.vertical_foliation, z, golden.base_surface)
    assert hv.width > 0
    assert hv.lo <= hv.hi


def test_interior_horofunction_brackets_the_difference(golden):
    base = golden.base_surface
    z = point_at(golden, 2.0)
    hv = psi_interior(z, point_at(golden, 0.5), base)
    # d(X, Z) - d(X0, Z) = 1.5 - 2.0 on the line
    assert hv.lo <= -0.5 <= hv.hi
    assert hv.hi - hv.lo <= 1e-12
    at_base = psi_interior(z, base, base)
    assert at_base.lo <= 0.0 <= at_base.hi


@pytest.mark.parametrize("horofunction", [
    lambda line, x: busemann_interval(line, x),
    lambda line, x: psi_foliation(line.vertical_foliation, x, line.base_surface),
], ids=["busemann_interval", "psi_foliation"])
def test_a_flow_point_past_the_float_range_is_refused(golden, horofunction):
    # at t = 700 the extremal length e^-1400 * area underflows to 0
    with pytest.raises(InputError, match=r"^log\(0\.0\) has no finite float value"):
        horofunction(golden, point_at(golden, 700))


def test_busemann_collapses_on_the_line(golden):
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        hv = busemann_interval(golden, point_at(golden, t), horizon=t + 5.0)
        assert abs(hv.lo + t) <= 1e-9
        assert abs(hv.hi + t) <= 1e-9


def test_busemann_renormalizes_at_given_basepoint(golden):
    # with X0 = G(1) the value at G(t) becomes -t - (-1) = 1 - t
    hv = busemann_interval(golden, point_at(golden, 2.0)).minus(
        busemann_interval(golden, point_at(golden, 1.0))
    )
    assert hv.lo <= -1.0 <= hv.hi
    assert hv.hi - hv.lo <= 1e-9


def test_busemann_rejects_bad_horizon(golden):
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="horizon must be positive and finite"):
            busemann_interval(golden, golden.base_surface, horizon=horizon)


def test_busemann_upper_bound_tightens_with_horizon(golden):
    z = point_at(golden, 1.3)
    wide = busemann_interval(golden, z, horizon=2.0)
    tight = busemann_interval(golden, z, horizon=9.0)
    assert tight.hi <= wide.hi + 1e-12
    assert wide.lo == tight.lo  # lower bound ignores the horizon


def test_miyachi_product_is_one_through_the_basepoint(golden):
    iv = miyachi_intersection(
        point_at(golden, -2.0), point_at(golden, 3.0), golden.base_surface
    )
    assert iv.contains(1.0, tol=1e-9)


def test_miyachi_decays_off_the_product_position(golden):
    # basepoint far to the side: gromov product |s| at X0 = G(0)
    iv = miyachi_intersection(
        point_at(golden, 2.0), point_at(golden, 3.0), golden.base_surface
    )
    assert iv.hi < 1.0
    assert iv.contains(math.exp(-2.0 * 2.0), tol=1e-9)


def test_minsky_audit_certifies_all_core_pairs(golden):
    rep = minsky_audit(golden.base_surface)
    assert rep["status"] == "pass"
    assert rep["definingEquality"]["status"] == "exact"
    assert len(rep["pairs"]) == 4
    assert all(e["status"] == "certified" for e in rep["pairs"])


def test_minsky_audit_on_selected_pairs():
    o = builtin("quaternion-8")
    x = WeightedSurface(
        o,
        {"A1": Fraction(2), "A2": Fraction(1, 3)},
        {"B1": Fraction(1), "B2": Fraction(5, 2)},
    )
    rep = minsky_audit(x)
    assert len(rep["pairs"]) == 4
    assert ["A1", "B2"] in [e["pair"] for e in rep["pairs"]]
    assert all(e["status"] == "certified" for e in rep["pairs"])
    assert rep["status"] == "pass"


def test_lower_bound_audit_golden_margin(golden):
    rep = lower_bound_audit(golden)
    assert rep["status"] == "pass"
    by_curve = {e["curve"]: e for e in rep["entries"]}
    # frozen closed form for the long horizontal core:
    # sqrt(2/phi) - phi / 5^(1/4)
    frozen = math.sqrt(2 / PHI) - PHI / 5**0.25
    assert by_curve["A1"]["margin"] == pytest.approx(frozen, abs=1e-12)
    # vertical cores pair trivially on both sides
    assert by_curve["B1"]["margin"] == 0.0
    assert rep["minMargin"] >= -1e-12


def test_lower_bound_audit_runs_over_the_used_cores():
    # a proper filling pair: its line lives on O′, whose cores are A2, B1, B2
    o = Origami(4, [1, 3, 4, 2], [4, 3, 2, 1])
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A2": Fraction(1)})
    rep = lower_bound_audit(optimal_geodesic(xi, eta))
    assert [e["curve"] for e in rep["entries"]] == ["A2", "B1", "B2"]
    assert rep["status"] == "pass"


def test_delta_probe_is_labeled_and_minimal(golden):
    rep = delta_probe(
        golden.forward_spec, golden.backward_spec, golden.base_surface
    )
    assert rep["status"] == "probe"
    assert rep["witness"] == "A2"
    # witness A2 pairs only with B1 (coefficient 1) and its normalized
    # length works out to phi^(-1/2)
    assert rep["value"] == pytest.approx(PHI**-0.5, abs=1e-12)


@pytest.mark.parametrize("draw", [random_full_instance, random_primitive_instance])
@pytest.mark.parametrize("seed", range(4))
def test_lower_bound_audit_pairs_like_the_per_curve_loop(draw, seed):
    rng = random.Random(f"audit:{seed}")
    while True:  # past the proper pairs that do not fill
        _, xi, eta = draw(rng, (4, 12))
        try:
            line = optimal_geodesic(xi, eta)
            break
        except NotFillingError:
            assert draw is random_primitive_instance
    # a proper pair's line and its audit live on its O′
    cores = _cores(line.origami)
    for audited in (line, reversed_line(line)):
        rep = lower_bound_audit(audited)
        sqrt_area = math.sqrt(audited.pairing)
        assert len(rep["entries"]) == len(cores)
        for entry, gamma in zip(rep["entries"], cores):
            # the array sum runs in another order than the exact loop: a few
            # float64 roundings apart
            want = float(intersection(audited.vertical_foliation, gamma)) / sqrt_area
            assert entry["curve"] == gamma.support[0]
            assert entry["pairingOverSqrtArea"] == pytest.approx(want, rel=1e-14, abs=0)
        assert rep["status"] == "pass"


def _cores(host):
    """Every core of the host as a weight-1 multicurve, horizontal first."""
    return [core_curve(host, side, c.label)
            for side in (HORIZONTAL, VERTICAL) for c in host.cylinders(side)]


def _probe_by_core(xi, eta, base, bound=curve_ext_bounds):
    """delta_probe as a loop over the cores: one ``bound`` call (by default
    curve_ext_bounds) and one rescaled multicurve each."""
    cores = _cores(base.origami)
    units = [gamma.scaled(1.0 / math.sqrt(float(bound(base, gamma).hi)))
             for gamma in cores]
    values = spec_pairing(xi, units) + spec_pairing(eta, units)
    best = int(np.argmin(values))
    return {"value": float(values[best]), "witness": cores[best].support[0],
            "status": "probe"}


@st.composite
def _probe_cases(draw):
    """A float base (a random line's, or one of its flow points or jittered
    neighbours) and the line's specs."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    _, xi, eta = random_full_instance(rng, (3, 12))
    line = optimal_geodesic(xi, eta)
    base = draw(st.sampled_from(["base", "flow", "jitter"]))
    if base == "base":
        base = line.base_surface
    elif base == "flow":
        base = point_at(line, draw(st.floats(-6.0, 6.0)))
    else:
        base = jittered_surface(rng, line.base_surface, 0.3)[0]
    return xi, eta, base


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_probe_cases())
def test_delta_probe_is_the_per_curve_bound_bit_for_bit(case):
    xi, eta, base = case
    assert delta_probe(xi, eta, base) == _probe_by_core(xi, eta, base)


def _core_bounds_by_core(x, side):
    """core_ext_bounds as a loop over the cores of a side."""
    bounds = [curve_ext_bounds(x, core_curve(x.origami, side, c.label))
              for c in x.origami.cylinders(side)]
    return [b.lo for b in bounds], [b.hi for b in bounds]


def _float_bits(values):
    return [(type(v), v.hex()) for v in values]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_probe_cases())
def test_core_bounds_of_a_float_side_are_the_per_core_bounds_bit_for_bit(case):
    base = case[2]
    for side in (HORIZONTAL, VERTICAL):
        got, want = core_ext_bounds(base, side), _core_bounds_by_core(base, side)
        assert [_float_bits(b) for b in got] == [_float_bits(b) for b in want]


def test_core_bounds_of_the_golden_base_are_the_per_core_bounds(golden):
    for side in (HORIZONTAL, VERTICAL):
        got = core_ext_bounds(golden.base_surface, side)
        want = _core_bounds_by_core(golden.base_surface, side)
        assert [_float_bits(b) for b in got] == [_float_bits(b) for b in want]


@pytest.mark.parametrize("height, width", [(1e300, 1e-300), (1e-300, 1e300)])
def test_delta_probe_refuses_a_curve_without_unit_rescaling(golden, height, width):
    # the annulus bound of A1 is 0 on the first surface and inf on the second
    o = golden.origami
    base = WeightedSurface(o, {c.label: height for c in o.cylinders(HORIZONTAL)},
                           {c.label: width for c in o.cylinders(VERTICAL)})
    with pytest.raises(InputError, match="probe curve A1 has no unit rescaling"):
        delta_probe(golden.forward_spec, golden.backward_spec, base)


def test_delta_probe_takes_no_shortcut_on_a_one_cylinder_side():
    # the lone horizontal core is proportional to the horizontal foliation,
    # and its r^2 * area from ext_interval is off curve_ext_bounds' upper
    # bound in the last bit, which here moves the reported value
    o, xi, eta = random_full_instance(random.Random("one-cylinder:9"), (3, 8))
    assert len(o.cylinders(HORIZONTAL)) == 1
    base = point_at(optimal_geodesic(xi, eta), 1.5)
    want = _probe_by_core(xi, eta, base)
    assert want != _probe_by_core(xi, eta, base, bound=ext_interval)
    assert delta_probe(xi, eta, base) == want


def test_default_probes_build_no_multicurve(golden, monkeypatch):
    """The default probes, every core, are an identity block of weights."""
    built = []
    init = WeightedMulticurve.__post_init__
    monkeypatch.setattr(WeightedMulticurve, "__post_init__",
                        lambda self: built.append(self) or init(self))
    delta_probe(golden.forward_spec, golden.backward_spec, golden.base_surface)
    lower_bound_audit(golden)
    assert built == []


@pytest.mark.parametrize("surface", ["exact", "golden"])
def test_minsky_audit_builds_no_multicurve_per_core(golden, monkeypatch, surface):
    """Every core's bounds are one pass over its side, not a curve per core."""
    if surface == "exact":
        rng = random.Random("1:minsky")  # the minsky suite's stream at seed 1
        x = random_surface(rng, random_origami(rng, (3, 8)))
    else:
        x = golden.base_surface
    built = []
    init = WeightedMulticurve.__post_init__
    monkeypatch.setattr(WeightedMulticurve, "__post_init__",
                        lambda self: built.append(self) or init(self))
    assert minsky_audit(x)["status"] == "pass"
    assert built == []
