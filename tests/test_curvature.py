import functools
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kqlab import curvature, jets
from kqlab.curvature import (BaseGeometry, ClassificationVerdict, _close, _pow,
                             branch_coefficients, classify_check,
                             curvature_report, polyquad_closed,
                             required_base_coefficients)
from kqlab.errors import EmptyGrid, KQLabError, OrderExceeded, OutOfDomain
from kqlab.jets import TaylorJet
from kqlab.profiles import custom, linear, log_affine, log_ball, t_from_x
from fd_oracle import mp_momentum, mp_profile, mp_report
from test_jets import _same_bits, coeff, coeff_pairs, non_finite, signed_zero


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


def test_presets_and_their_bergman_laws_compare_by_value():
    # a fresh lambda per base made two bases of one preset unequal
    assert BaseGeometry.fubini_study_cp1(2) == BaseGeometry.fubini_study_cp1(2)
    assert BaseGeometry.fubini_study_cpd(2) == BaseGeometry.fubini_study_cpd(2)
    assert BaseGeometry.fubini_study_cp1(2) != BaseGeometry.fubini_study_cp1(3)
    assert BaseGeometry.fubini_study_cp1(2).eps(4.0) == 4.0 + 1.0 / 2


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


# -- 40-digit referee ----------------------------------------------------------


def _softplus_t_rule(t, order):
    """log(1 + e^t) + e^t/4: convex, with a momentum profile of no closed family."""
    e = jets.exp(TaylorJet.variable(t, order))
    return jets.log(1.0 + e) + 0.25 * e


# name -> (profile, F_t as an mpmath callable, bound)
_REFEREE_PROFILES = {
    "logball": (log_ball(0.5), mp_profile("logball", A=0.5), 1e-13),
    "linear": (linear(1.3), mp_profile("linear", c=1.3), 1e-13),
    "logaffine": (log_affine(-0.6, 1.0), mp_profile("logaffine", A=-0.6, c=1.0), 1e-13),
    "custom": (custom(_softplus_t_rule), lambda t: mp.log(1 + mp.exp(t)) + mp.exp(t) / 4,
               1e-12),
}


@functools.lru_cache(maxsize=None)
def _referee_momentum(name, t):
    return mp_momentum(_REFEREE_PROFILES[name][1], t)


@pytest.mark.parametrize("name", sorted(_REFEREE_PROFILES))
def test_report_matches_a_40_digit_referee_off_the_branches(name):
    # The referee reads x-derivatives of the momentum profile off F_t by
    # mp.diff.  A custom profile's mu = (mom - x)/x^2 cancels toward the zero
    # section, and so do its fields; only for it is a gap measured against
    # (1 + |value|) / min(1, x)^2 (the closed families keep the plain gap in
    # the test below).
    p, _, bound = _REFEREE_PROFILES[name]
    worst = 0.0
    for (d, d0), lam in itertools.product(itertools.product((1, 2), (1, 2, 3)),
                                          (0.5, 1.0, 2.0, -1.0)):
        base = BaseGeometry.from_coefficients(d, lam, a1=0.45, a2=-0.2)
        if name == "custom":
            ts = (-3.0, -1.5, -0.5)         # x from 0.06 to 0.53
        else:
            cap = 2.5 if lam > 0 else 0.9 / abs(lam)
            if p.family == "logaffine":
                cap = min(cap, 0.9 / abs(p.A))
            ts = [t_from_x(p, cap * f) for f in (0.05, 0.5, 0.95)]
        for t in ts:
            report = curvature_report(base, p, d0, t)
            ref = mp_report(*_referee_momentum(name, t), base, d0)
            for field in ("a1", "a2", "scalar", "ric2", "lapk", "riem2"):
                value = float(ref[field])
                gap = abs(getattr(report, field) - value) / (1 + abs(value))
                worst = max(worst, gap * min(1.0, report.x) ** 2)
    assert worst <= bound, worst


@pytest.mark.parametrize("name", ["linear", "logaffine", "logball"])
def test_closed_families_match_a_60_digit_referee_near_the_zero_section(name):
    # the 1/x form of the fields cancelled terms of order 1/x^2 here: at
    # x = 2e-6 its a2 was off by 7.7e-5 and its lapk by 5.3e-4 of 1 + |value|.
    # The smallest x is the closed families' floor 1e-12 itself: its t is
    # evaluated, though the moment map rounds x a few ulps below 1e-12 there.
    p, F, _ = _REFEREE_PROFILES[name]
    worst = 0.0
    for x in (1e-12, 1e-8, 2e-6, 1e-4, 1e-2, 0.05):
        t = t_from_x(p, x)
        xm, phi = mp_momentum(F, t, dps=60)
        for (d, d0), lam in itertools.product(itertools.product((1, 2, 3), (1, 2, 3)),
                                              (1.0, -0.5)):
            base = BaseGeometry.from_coefficients(d, lam, a1=0.45, a2=-0.2)
            report = curvature_report(base, p, d0, t)
            ref = mp_report(xm, phi, base, d0, dps=60)
            for field in ("a1", "a2", "scalar", "ric2", "lapk", "riem2"):
                value = float(ref[field])
                worst = max(worst, abs(getattr(report, field) - value) / (1 + abs(value)))
    assert worst <= 1e-13, worst


def test_a_custom_profile_matches_a_60_digit_referee_by_plain_gaps():
    # the test above, unscaled, for the custom route at t = -7 (x = 1.1e-3): its
    # mu = (mom - x)/x^2 cancels, and a2 is off by 6.5e-10, lapk by 1.8e-9 of
    # 1 + |value|, which the min(1, x)^2 scaling of the 40-digit test hides
    p, F, _ = _REFEREE_PROFILES["custom"]
    xm, phi = mp_momentum(F, -7.0, dps=60)
    worst = 0.0
    for (d, d0), lam in itertools.product(itertools.product((1, 2), (1, 2, 3)),
                                          (0.5, 1.0, 2.0, -1.0)):
        base = BaseGeometry.from_coefficients(d, lam, a1=0.45, a2=-0.2)
        report = curvature_report(base, p, d0, -7.0)
        ref = mp_report(xm, phi, base, d0, dps=60)
        for field in ("a1", "a2", "scalar", "ric2", "lapk", "riem2"):
            value = float(ref[field])
            worst = max(worst, abs(getattr(report, field) - value) / (1 + abs(value)))
    assert worst <= 2.5e-9, worst


@pytest.mark.parametrize("p", [linear(1.3), log_affine(-0.6, 1.0), log_ball(1.0),
                               log_ball(0.5)], ids=["linear", "logaffine", "logball-1", "logball-0.5"])
def test_every_t_from_the_floors_t_on_is_evaluated(p):
    # the moment map takes t_from_x(p, 1e-12) to a few ulps below 1e-12 on the
    # first three, which a floor on the rounded x refused; one ulp lower in t
    # is still refused, by the same words
    base = BaseGeometry.from_coefficients(1, 1.0, a1=0.45, a2=-0.2)
    t = t_from_x(p, curvature.CLOSED_X_MIN)
    for at in (t, np.array([t, -1.0])):
        assert np.isfinite(curvature_report(base, p, 2, at).a2).all()
    below = float(np.nextafter(t, -math.inf))
    with pytest.raises(OutOfDomain, match=f"below the evaluation floor 1e-12 at t={below}$"):
        curvature_report(base, p, 2, below)


@pytest.mark.parametrize("p", [log_affine(-1e13, 1.0), log_affine(0.5, 1.0)],
                         ids=["range-below-the-floor", "negative-x"])
def test_a_family_whose_range_lies_below_the_floor_is_refused(p):
    base = BaseGeometry.from_coefficients(1, 1.0, a1=0.45, a2=-0.2)
    for t in (-1.0, np.array([-1.0, 0.0])):
        with pytest.raises(OutOfDomain, match="below the evaluation floor 1e-12 at t=-1.0$"):
            curvature_report(base, p, 2, t)


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_the_branch_is_constant_down_to_the_zero_section(d0):
    # 16-point grids from x_lo to x = 1 on branch 2.10, on its required base,
    # down to the closed families' floor 1e-12; the 1/x form deviated by up to
    # 1.2e-5 at d0 = 2 and called it not constant
    p, lam = log_ball(0.5), 1.0
    base = BaseGeometry.from_coefficients(
        1, lam, *required_base_coefficients(p, 1, d0, lam, "ball"))
    for x_lo in (1e-4, 1e-5, 2e-6, 1e-8, 1e-12):
        grid = [t_from_x(p, x) for x in np.geomspace(x_lo, 1.0, 16)]
        verdict = classify_check(base, p, d0, "ball", grid)
        assert verdict.max_deviation <= 1e-12, (x_lo, verdict.max_deviation)
        assert verdict.matched_branch == "2.10"


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


@pytest.mark.parametrize("a, b", [(1.0, math.inf), (math.inf, math.inf),
                                  (math.nan, math.nan)])
def test_branch_windows_never_hold_at_a_non_finite_value(a, b):
    # a relative bound at b = inf would hold for every finite a
    assert _close(a, b) is False and _close(b, a) is False


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
def test_default_order_report_is_bit_identical_to_order_8(monkeypatch, name, d, d0, lam):
    # a custom profile's x-jet of phi reads six derivatives of F, and a jet
    # coefficient depends only on coefficients of its own and lower orders
    p, closed = _GRID_PROFILES[name]
    cap = 2.5 if lam > 0 else 0.9 / abs(lam)
    if closed.family == "logaffine":
        cap = min(cap, 0.9 / abs(closed.A))
    grid = [t_from_x(closed, cap * f) for f in (0.05, 0.3, 0.55, 0.8, 0.95)]
    base = BaseGeometry.from_coefficients(d, lam, a1=0.3, a2=-0.2)
    for t in (np.array(grid), grid[2]):
        default = curvature_report(base, p, d0, t)
        with monkeypatch.context() as m:
            m.setattr(curvature, "CUSTOM_T_ORDER", 8)
            eight = curvature_report(base, p, d0, t)
        for field in _REPORT_FIELDS:
            assert (np.asarray(getattr(default, field)).tobytes()
                    == np.asarray(getattr(eight, field)).tobytes()), field


def test_order_5_is_too_low_for_a_report(monkeypatch):
    monkeypatch.setattr(curvature, "CUSTOM_T_ORDER", 5)
    with pytest.raises(OrderExceeded):
        curvature_report(BaseGeometry.flat(1), custom(_logball_t_rule(1.0)), 1, -1.0)


@given(coeff_pairs(st.one_of(coeff, signed_zero, non_finite)))
@settings(max_examples=60, deadline=None)
def test_slope_is_the_value_of_the_x_derivative_bit_for_bit(pair):
    u = TaylorJet(pair[0])
    if u.order == 0:
        for slope in (lambda u: u.derivative(1), lambda u: u.deriv().value):
            with pytest.raises(OrderExceeded):
                slope(u)
        return
    assert _same_bits(np.asarray(u.derivative(1)), np.asarray(u.deriv().value))


@given(st.lists(st.floats(), min_size=1, max_size=8), st.sampled_from([2, 3, 4]))
@example([-1.5], 3)
@example([5e-324, -2.2e-308, -0.0, -1.1], 4)
@example([2.0, 1e100], 4)
@settings(max_examples=200, deadline=None)
def test_pow_is_the_float_power_bit_for_bit(values, n):
    a = np.array(values)
    try:
        expected = np.array([v ** n for v in values])
    except OverflowError:
        with pytest.raises(OverflowError):
            _pow(a, n)
        return
    assert _same_bits(_pow(a, n), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("d0", [1, 2, 3])
def test_a_report_forms_few_jet_products_and_quotients(monkeypatch, d, d0):
    # each jet is carried only to the order its fields read, a closed family's
    # x comes from its moment map and its phi, psi, mu and 1 + lam*x are formed
    # with no jet operation, products by x and sums are formed on coefficient
    # arrays, and the invariant stage takes no jet operation
    counts = {"mul": 0, "div": 0, "exp": 0, "log": 0}
    mul, div = TaylorJet.__mul__, TaylorJet.__truediv__

    def counted_mul(self, other):
        counts["mul"] += isinstance(other, TaylorJet)
        return mul(self, other)

    def counted_div(self, other):
        counts["div"] += 1
        return div(self, other)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TaylorJet, "__mul__", counted_mul)
    monkeypatch.setattr(TaylorJet, "__truediv__", counted_div)
    monkeypatch.setattr(jets, "exp", counted("exp", jets.exp))
    monkeypatch.setattr(jets, "log", counted("log", jets.log))
    base = BaseGeometry.from_coefficients(d, 1.0, a1=0.3, a2=-0.2)
    for p in (log_ball(0.5), linear(1.3), log_affine(-0.6, 1.0)):
        grid = np.array(_tgrid(p, 1.0))
        # phi chi', and psi/(1+lam x) and s/(1+lam x), at every (d, d0), in the
        # report and in the coefficient stage alone
        counts.update(mul=0, div=0)
        curvature_report(base, p, d0, grid)
        assert counts == {"mul": 1, "div": 2, "exp": 0, "log": 0}, (p.family, counts)
        counts.update(mul=0, div=0)
        curvature._evaluate(base, p, d0, grid, ("a1", "a2"))
        assert counts == {"mul": 1, "div": 2, "exp": 0, "log": 0}, (p.family, counts)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, -1.0, -0.3, 1e-300, -7e15])
def test_the_shift_jet_is_the_variable_forms_bit_for_bit(lam):
    x = np.array([1e-12, 3e-7, 0.04, 0.3, 1.0, 2.5, 1e15, 5e307])
    with np.errstate(over="ignore"):
        want = (1.0 + lam * TaylorJet.variable(x, curvature.REPORT_ORDER)).coeffs
        got = curvature._shift(lam, x).coeffs
    assert _same_bits(got, want)


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


_COEFFICIENT_FIELDS = ("t", "x", "mom", "sigma", "chi", "sigma_prime", "chi_prime",
                       "scalar", "a1", "a2")


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, -1.0])
def test_coefficient_stage_equals_the_report_bit_for_bit(lam):
    # the five closed profiles of scripts/classification_atlas.py and a custom t-rule
    profiles = [(log_ball(0.5), None), (log_ball(abs(lam)), None), (linear(1.0), None),
                (log_affine(-0.5, 1.0), None), (log_affine(-abs(lam), 1.0), None),
                (custom(_logball_t_rule(0.5), "t"), log_ball(0.5))]
    for d, d0 in itertools.product((1, 2, 3), repeat=2):
        base = BaseGeometry.from_coefficients(d, lam, a1=0.3, a2=-0.2)
        for p, closed in profiles:
            grid = _tgrid(closed or p, lam)
            for t in (np.array(grid), grid[0], grid[5], grid[-1]):
                report = curvature_report(base, p, d0, t)
                fields = curvature._evaluate(base, p, d0, t, _COEFFICIENT_FIELDS)
                assert tuple(fields) == _COEFFICIENT_FIELDS
                for field in _COEFFICIENT_FIELDS:
                    assert (np.asarray(fields[field]).tobytes()
                            == np.asarray(getattr(report, field)).tobytes()), field


def test_fields_past_the_float_range_are_out_of_domain():
    # x = e^t on the linear family, and (1 + x)^4 leaves the float range from
    # t = 177.4 on; a grid names its first such point, as a single point does
    p, base = linear(1.0), BaseGeometry.from_coefficients(1, 1.0, 2.0, 0.0)
    grid = [100.0, 150.0, 170.0, 180.0, 190.0, 200.0, 210.0, 220.0]
    assert math.isfinite(curvature_report(base, p, 2, 170.0).riem2)
    for run in (lambda t: curvature_report(base, p, 2, t),
                lambda t: classify_check(base, p, 2, "fullspace", t)):
        for t, first in ((grid, "180.0"), (np.linspace(200.0, 210.0, 8), "200.0")):
            with pytest.raises(OutOfDomain, match=f"float range at t={first}$"):
                run(t)
    with pytest.raises(OutOfDomain, match="float range at t=190.0$"):
        curvature_report(base, p, 2, 190.0)


def test_a_jet_product_past_the_float_range_is_out_of_domain():
    # at d = 5, d0 = 1 the product (1+lam x)^5 phi grew as x^6 and left the float
    # range from t = 119 on, though no field did; the fields hold no power of
    # 1 + lam*x above the fourth, which leaves it from t = 177.4 on, at every d
    p, base = linear(1.0), BaseGeometry.flat(5, 1.0)
    assert np.isfinite(curvature_report(base, p, 1, np.linspace(100.0, 170.0, 8)).a2).all()
    assert math.isfinite(curvature_report(BaseGeometry.flat(3, 1.0), p, 3, 170.0).riem2)
    for run in (lambda t: curvature_report(base, p, 1, t),
                lambda t: classify_check(base, p, 1, "fullspace", t)):
        with pytest.raises(OutOfDomain, match="float range at t=180.0$"):
            run(np.linspace(100.0, 190.0, 10))


def test_the_fields_leave_the_float_range_at_one_t_for_every_base_dimension():
    # (1+lam x)^d phi left it first, from t = 102 on at d = 6
    p = linear(1.0)
    assert math.isfinite(curvature_report(BaseGeometry.flat(6, 1.0), p, 1, 110.0).riem2)
    for d in range(1, 7):
        with pytest.raises(OutOfDomain, match="float range at t=178.0$"):
            curvature_report(BaseGeometry.flat(d, 1.0), p, 1, np.linspace(170.0, 180.0, 11))
