import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqlab import jets
from kqlab.curvature import (BaseGeometry, ClassificationVerdict,
                             branch_coefficients, classify_check,
                             curvature_report, polyquad_closed,
                             required_base_coefficients)
from kqlab.errors import EmptyGrid, KQLabError, OrderExceeded, OutOfDomain
from kqlab.jets import TaylorJet
from kqlab.profiles import custom, linear, log_affine, log_ball, t_from_x


def _tgrid(p, lam, count=12, x_hi=2.5):
    """An admissible t-grid: x spread out but clear of positivity walls."""
    cap = x_hi
    if lam < 0:
        cap = min(cap, 0.9 / abs(lam))
    if p.family == "logaffine":
        cap = min(cap, 0.9 / abs(p.A))
    xs = [cap * (j + 1) / (count + 1) for j in range(count)]
    return [t_from_x(p, x) for x in xs]


# -- base presets -----------------------------------------------------------


def test_fubini_study_cp1_preset():
    for k in (1, 2, 3):
        b = BaseGeometry.fubini_study_cp1(k)
        assert b.a1 == pytest.approx(1.0 / k, rel=1e-15)
        assert b.a2 == pytest.approx(0.0, abs=1e-15)
        assert b.eps(5.0) == pytest.approx(5.0 + 1.0 / k, rel=1e-15)


def test_fubini_study_cpd_preset():
    for d in (1, 2, 3):
        b = BaseGeometry.fubini_study_cpd(d)
        assert b.a1 == pytest.approx(d * (d + 1) / 2.0, rel=1e-15)
        assert b.a2 == pytest.approx(
            (d - 1) * d * (d + 1) * (3 * d + 2) / 24.0, rel=1e-12, abs=1e-12)
        assert b.eps(3.0) == pytest.approx(
            math.prod(3.0 + j for j in range(1, d + 1)), rel=1e-14)
        assert b.lapk == 0.0


def test_from_coefficients_recovers_targets():
    b = BaseGeometry.from_coefficients(3, 1.5, a1=-2.2, a2=0.9)
    assert b.a1 == pytest.approx(-2.2, rel=1e-14)
    assert b.a2 == pytest.approx(0.9, rel=1e-13)


# -- pointwise engine -------------------------------------------------------


def test_sphere_bundle_constant_coefficients():
    # degree-1 sphere base, rank-2 ball bundle with A = 1/3: expansion
    # coefficients are constant with a1 = -2, a2 = 11/9
    base = BaseGeometry.fubini_study_cp1(1)
    p = log_ball(1.0 / 3.0)
    for t in (-5.0, -2.0, -1.0, -0.4):
        r = curvature_report(base, p, 2, t)
        assert r.a1 == pytest.approx(-2.0, rel=1e-11)
        assert r.a2 == pytest.approx(11.0 / 9.0, rel=1e-10)


def test_flat_base_nonconstant_first_coefficient():
    base = BaseGeometry.flat(1)
    p = log_ball(1.0)
    for t in (-3.0, -1.0, math.log(0.5)):
        r = curvature_report(base, p, 1, t)
        assert r.a1 == pytest.approx(-3.0 + 1.0 / (1.0 + r.x), rel=1e-11)


def test_linear_profile_zero_first_coefficient():
    # base tuned to d0*twist makes the full-space metric scalar-flat
    lam, d0 = 1.3, 2
    base = BaseGeometry.from_coefficients(1, lam, a1=d0 * lam, a2=0.0)
    p = linear(0.8)
    for t in (-2.0, 0.0, 1.0):
        r = curvature_report(base, p, d0, t)
        assert r.a1 == pytest.approx(0.0, abs=1e-11)


def test_report_rejects_bad_points():
    base = BaseGeometry.flat(1)
    with pytest.raises(OutOfDomain):
        curvature_report(base, log_ball(1.0), 1, -40.0)  # x below the floor
    neg = BaseGeometry.flat(1, twist=-1.0)
    with pytest.raises(OutOfDomain):
        # x = 4 makes 1 + twist*x negative
        curvature_report(neg, log_ball(1.0), 1, t_from_x(log_ball(1.0), 4.0))


# -- closed forms -----------------------------------------------------------


def test_polyquad_branch_values():
    d, d0, lam = 2, 1, 0.7
    n = d + d0
    base = BaseGeometry.from_coefficients(
        d, lam, a1=-d * (d + 1) * lam / 2,
        a2=(d - 1) * d * (d + 1) * (3 * d + 2) * lam ** 2 / 24)
    for x in (0.2, 1.0, 3.0):
        cf = polyquad_closed(base, d0, lam, x)
        a1_exp, a2_exp = branch_coefficients(n, lam)
        assert cf.a1 == pytest.approx(a1_exp, rel=1e-14)
        assert cf.a2 == pytest.approx(a2_exp, rel=1e-14)
        assert cf.two_a1_general == pytest.approx(2 * a1_exp, rel=1e-14)


def test_polyquad_d1_kills_general_tail():
    # the (1+lam*x)^-2 term of the general first coefficient carries d(d-1)
    base = BaseGeometry.from_coefficients(1, 1.0, a1=0.3, a2=0.1)
    direct = polyquad_closed(base, 2, 0.4, 1.3).two_a1_general
    n = 3
    by_hand = (-0.4 * n * (n + 1)
               + (0.6 + (2 * 0.4 + 2 * 0.4 * 2 - 1 - 4 + 1)) / (1 + 1.3))
    assert direct == pytest.approx(by_hand, rel=1e-14)


def test_polyquad_spot_minus_two():
    base = BaseGeometry.from_coefficients(1, 1.0, a1=1.0, a2=0.0)
    cf = polyquad_closed(base, 2, 1.0 / 3.0, 0.8)
    assert cf.two_a1_general / 2 == pytest.approx(-2.0, rel=1e-14)


@pytest.mark.parametrize("fam,A", [("logball", 0.5), ("logball", 1.0),
                                   ("linear", 0.0), ("logaffine", -0.5)])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, -1.0])
@pytest.mark.parametrize("d,d0", [(1, 1), (1, 3), (2, 2)])
def test_engine_matches_general_closed_form(fam, A, lam, d, d0):
    p = {"logball": lambda: log_ball(A), "linear": lambda: linear(1.0),
         "logaffine": lambda: log_affine(A, 1.0)}[fam]()
    base = BaseGeometry.from_coefficients(d, lam, a1=0.45, a2=-0.2)
    for t in _tgrid(p, lam, count=6):
        r = curvature_report(base, p, d0, t)
        cf = polyquad_closed(base, d0, A, r.x)
        assert 2 * r.a1 == pytest.approx(cf.two_a1_general, rel=1e-10, abs=1e-10)
        if A == lam:
            assert r.a2 == pytest.approx(cf.a2, rel=1e-10, abs=1e-10)


def test_two_a2_paths_agree_off_branch():
    base = BaseGeometry.from_coefficients(2, 1.0, a1=0.9, a2=0.4)
    p = log_ball(0.7)
    for t in _tgrid(p, 1.0, count=8):
        r = curvature_report(base, p, 3, t)
        assert r.a2 == pytest.approx(r.a2_from_invariants, rel=1e-9, abs=1e-9)


# -- rescaling covariance ---------------------------------------------------


@given(lam=st.floats(min_value=0.3, max_value=3.0),
       xfrac=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_rescaling_covariance(lam, xfrac):
    base = BaseGeometry.from_coefficients(2, lam, a1=-1.1, a2=0.6)
    p = log_ball(0.8)
    t = t_from_x(p, 2.5 * xfrac)
    r = curvature_report(base, p, 2, t)
    ru = curvature_report(base.unit_twist_rescaled(), p.scaled(lam), 2, t)
    assert r.scalar == pytest.approx(lam * ru.scalar, rel=1e-10, abs=1e-10)
    assert r.ric2 == pytest.approx(lam ** 2 * ru.ric2, rel=1e-10, abs=1e-10)
    assert r.lapk == pytest.approx(lam ** 2 * ru.lapk, rel=1e-10, abs=1e-10)
    assert r.riem2 == pytest.approx(lam ** 2 * ru.riem2, rel=1e-10, abs=1e-10)


# -- combination identity ---------------------------------------------------


def test_combination_identity_d1_branch():
    # on the degree-one branch: |R|^2 - 4|Ric|^2 = -2n(n+1)(2n+1)A^2
    A, lam, d0 = 0.5, 1.0, 2
    n = 1 + d0
    base = BaseGeometry.from_coefficients(1, lam, a1=d0 * lam - n * A, a2=0.0)
    p = log_ball(A)
    for t in _tgrid(p, lam, count=6):
        r = curvature_report(base, p, d0, t)
        assert r.riem2 - 4 * r.ric2 == pytest.approx(
            -2 * n * (n + 1) * (2 * n + 1) * A ** 2, rel=1e-10)


def test_combination_identity_higher_d_branch():
    lam, d, d0 = 1.5, 2, 2
    n = d + d0
    base = BaseGeometry.from_coefficients(
        d, lam, a1=-d * (d + 1) * lam / 2,
        a2=(d - 1) * d * (d + 1) * (3 * d + 2) * lam ** 2 / 24)
    p = log_ball(lam)
    for t in _tgrid(p, lam, count=6):
        r = curvature_report(base, p, d0, t)
        assert r.riem2 - 4 * r.ric2 == pytest.approx(
            -2 * n * (n + 1) * (2 * n + 1) * lam ** 2, rel=1e-10)


# -- classification ---------------------------------------------------------


def test_classify_positive_branch_210():
    A, lam, d0 = 0.5, 1.0, 2
    n = 1 + d0
    p = log_ball(A)
    a1, a2 = required_base_coefficients(p, 1, d0, lam, "ball")
    assert (a1, a2) == (d0 * lam - n * A, 0.0)
    base = BaseGeometry.from_coefficients(1, lam, a1=a1, a2=a2)
    v = classify_check(base, p, d0, "ball", _tgrid(p, lam))
    assert isinstance(v, ClassificationVerdict)
    assert v.constant and v.matched_branch == "2.10"
    assert v.a1_value == pytest.approx(-n * (n + 1) * A / 2, rel=1e-10)
    assert v.a2_value == pytest.approx(
        (n - 1) * n * (n + 1) * (3 * n + 2) * A ** 2 / 24, rel=1e-10)


def test_classify_negative_control():
    A, lam, d0 = 0.5, 1.0, 2
    p = log_ball(A)
    a1, a2 = required_base_coefficients(p, 1, d0, lam, "ball")
    base = BaseGeometry.from_coefficients(1, lam, a1=a1 + 0.1, a2=a2)
    v = classify_check(base, p, d0, "ball", _tgrid(p, lam))
    assert not v.constant
    assert v.max_deviation > 1e-3
    assert v.matched_branch is None


def test_classify_higher_d_needs_matching_profile():
    lam = 2.0
    p = log_ball(1.0)  # A != twist
    base = BaseGeometry.from_coefficients(
        2, lam, a1=-3 * lam, a2=2 * 3 * 8 * lam ** 2 / 24)
    v = classify_check(base, p, 1, "ball", _tgrid(p, lam))
    assert not v.constant


def test_classify_projective_branch_reports_ricci():
    d, d0 = 2, 1
    n = d + d0
    base = BaseGeometry.fubini_study_cpd(d)
    p = log_affine(-1.0, 1.0)
    v = classify_check(base, p, d0, "fullspace", _tgrid(p, -1.0))
    assert v.constant and v.matched_branch == "2.14"
    assert v.ricci_check is True
    assert v.ricci_constant == pytest.approx(n * (n + 1), rel=1e-9)


def test_classify_grid_requirements():
    base = BaseGeometry.flat(1)
    with pytest.raises(EmptyGrid):
        classify_check(base, log_ball(1.0), 1, "ball", [])
    with pytest.raises(EmptyGrid):
        classify_check(base, log_ball(1.0), 1, "ball", [-1.0, -2.0])


# -- one pass per grid --------------------------------------------------------


def _logball_t_rule(A):
    return lambda t, order: (-1.0 / A) * jets.log(1.0 - jets.exp(TaylorJet.variable(t, order)))


def _logball_rho_rule(A):
    return lambda rho, order: (-1.0 / A) * jets.log(1.0 - TaylorJet.variable(rho, order))


# (profile, the closed family that inverts its moment map)
_GRID_PROFILES = {
    "logball": (log_ball(0.5), log_ball(0.5)),
    "linear": (linear(1.3), linear(1.3)),
    "logaffine": (log_affine(-0.6, 1.0), log_affine(-0.6, 1.0)),
    "custom-t": (custom(_logball_t_rule(0.5), "t"), log_ball(0.5)),
    "custom-rho": (custom(_logball_rho_rule(0.5), "rho"), log_ball(0.5)),
}

_REPORT_FIELDS = ("t", "x", "mom", "sigma", "chi", "sigma_prime", "chi_prime",
                  "scalar", "ric2", "lapk", "riem2", "a1", "a2")


@given(name=st.sampled_from(sorted(_GRID_PROFILES)), d=st.sampled_from((1, 2)),
       d0=st.sampled_from((1, 2)), lam=st.sampled_from((0.7, -0.4)),
       fractions=st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1,
                          max_size=12))
@settings(max_examples=40, deadline=None)
def test_array_grid_report_equals_pointwise_reports(name, d, d0, lam, fractions):
    p, closed = _GRID_PROFILES[name]
    cap = 2.5 if lam > 0 else 0.9 / abs(lam)
    if closed.family == "logaffine":
        cap = min(cap, 0.9 / abs(closed.A))
    grid = [t_from_x(closed, cap * f) for f in fractions]
    base = BaseGeometry.from_coefficients(d, lam, a1=0.3, a2=-0.2)
    report = curvature_report(base, p, d0, np.array(grid))
    for j, t in enumerate(grid):
        point = curvature_report(base, p, d0, t)
        for field in _REPORT_FIELDS:
            assert getattr(report, field)[j] == pytest.approx(
                getattr(point, field), rel=1e-13, abs=0.0), field


@pytest.mark.parametrize("name", sorted(_GRID_PROFILES))
@pytest.mark.parametrize("d, d0", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("lam", [0.7, -0.4])
def test_default_order_report_is_bit_identical_to_order_8(name, d, d0, lam):
    # the fields read six derivatives of F, and a jet coefficient depends
    # only on coefficients of its own and lower orders
    p, closed = _GRID_PROFILES[name]
    cap = 2.5 if lam > 0 else 0.9 / abs(lam)
    if closed.family == "logaffine":
        cap = min(cap, 0.9 / abs(closed.A))
    grid = [t_from_x(closed, cap * f) for f in (0.05, 0.3, 0.55, 0.8, 0.95)]
    base = BaseGeometry.from_coefficients(d, lam, a1=0.3, a2=-0.2)
    for t in (np.array(grid), grid[2]):
        default = curvature_report(base, p, d0, t)
        eight = curvature_report(base, p, d0, t, order=8)
        for field in _REPORT_FIELDS:
            assert (np.asarray(getattr(default, field)).tobytes()
                    == np.asarray(getattr(eight, field)).tobytes()), field


def test_order_5_is_too_low_for_a_report():
    with pytest.raises(OrderExceeded):
        curvature_report(BaseGeometry.flat(1), log_ball(1.0), 1, -1.0, order=5)


@pytest.mark.parametrize("twist, p, bad", [
    (1.0, log_ball(1.0), -40.0),                          # x below the floor
    (-1.0, log_ball(1.0), t_from_x(log_ball(1.0), 4.0)),  # 1 + twist*x < 0
    (1.0, log_ball(1.0), math.nan),
    (1.0, custom(_logball_t_rule(1.0)), math.nan),
], ids=["x-floor", "shift", "nan", "custom-nan"])
def test_one_bad_grid_point_raises_the_pointwise_error(twist, p, bad):
    base = BaseGeometry.flat(1, twist=twist)
    grid = _tgrid(log_ball(1.0), twist, count=8, x_hi=0.5)
    grid[3] = bad
    with pytest.raises(KQLabError) as pointwise:
        curvature_report(base, p, 1, bad)
    with pytest.raises(KQLabError) as on_grid:
        curvature_report(base, p, 1, np.array(grid))
    assert type(on_grid.value) is type(pointwise.value)
    assert str(on_grid.value) == str(pointwise.value)
    assert str(bad) in str(on_grid.value)
