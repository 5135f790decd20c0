import math
import random
from fractions import Fraction

import pytest

from origeo.errors import HostMismatch, InputError
from origeo.geodesic import optimal_geodesic, point_at
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
    HORIZONTAL,
    VERTICAL,
    BusemannSpec,
    WeightedMulticurve,
    core_curve,
)
from origeo.origami import builtin
from origeo.sampling import jittered_surface
from origeo.surface import WeightedSurface

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


def test_busemann_collapses_on_the_line(golden):
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        hv = busemann_interval(golden, point_at(golden, t), horizon=t + 5.0)
        assert abs(hv.lo + t) <= 1e-9
        assert abs(hv.hi + t) <= 1e-9


def test_busemann_renormalizes_at_given_basepoint(golden):
    # with X0 = G(1) the value at G(t) becomes -t - (-1) = 1 - t
    hv = busemann_interval(
        golden, point_at(golden, 2.0), x0=point_at(golden, 1.0), horizon=8.0
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
    rep = minsky_audit(x, pairs=[("A1", "B2")])
    assert len(rep["pairs"]) == 1
    assert rep["pairs"][0]["pair"] == ["A1", "B2"]
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


def test_lower_bound_audit_without_flat_realization():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1)})
    line = optimal_geodesic(xi, eta)
    assert line.base_surface is None
    rep = lower_bound_audit(line)
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


def test_delta_probe_respects_curve_choice(golden):
    only_a1 = [core_curve(golden.origami, HORIZONTAL, "A1")]
    rep = delta_probe(
        golden.forward_spec, golden.backward_spec, golden.base_surface,
        curves=only_a1,
    )
    assert rep["witness"] == "A1"


def test_composite_curve_tags_in_audit(golden):
    mixed = WeightedMulticurve(
        golden.origami, VERTICAL, {"B1": Fraction(1), "B2": Fraction(2)}
    )
    rep = lower_bound_audit(golden, curves=[mixed])
    assert rep["entries"][0]["curve"] == "vertical:B1+B2"
    assert rep["status"] == "pass"
