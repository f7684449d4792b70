import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqlab import jets
from kqlab.curvature import _ddx
from kqlab.errors import OutOfDomain, PreconditionFailed
from kqlab.jets import TaylorJet
from kqlab.profiles import (FAMILIES, RadialProfile, custom, from_params, linear, log_affine,
                            log_ball, profile_jet, t_from_x, x_from_t)
from test_jets import _same_bits


def test_logball_jet_at_half():
    t0 = math.log(0.5)
    f = profile_jet(log_ball(1.0), t0, 8, "t")
    # normalized coefficients (value, F', F''/2) = (log 2, 1, 1)
    assert f.coeffs[0] == pytest.approx(math.log(2.0), rel=1e-14)
    assert f.coeffs[1] == pytest.approx(1.0, rel=1e-14)
    assert f.coeffs[2] == pytest.approx(1.0, rel=1e-14)


def test_linear_rho_jet():
    f = profile_jet(linear(1.0), 0.3, 6, "rho")
    assert f.derivative(0) == pytest.approx(0.3, rel=1e-15)
    assert f.derivative(1) == pytest.approx(1.0, rel=1e-15)
    for n in range(2, 7):
        assert f.derivative(n) == pytest.approx(0.0, abs=1e-15)


def test_logaffine_jet_at_zero():
    f = profile_jet(log_affine(-1.0, 1.0), 0.0, 8, "t")
    assert f.derivative(0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert f.derivative(1) == pytest.approx(0.5, rel=1e-14)


def test_domain_errors():
    with pytest.raises(OutOfDomain):
        profile_jet(log_ball(1.0), 0.5, 4, "t")      # t must be negative
    with pytest.raises(OutOfDomain):
        profile_jet(log_ball(1.0), 1.5, 4, "rho")    # rho must stay below 1
    with pytest.raises(OutOfDomain):
        profile_jet(linear(1.0), -0.1, 4, "rho")


@pytest.mark.parametrize("p", [log_ball(0.5), linear(2.0), log_affine(-0.7, 1.3)])
@given(t=st.floats(min_value=-5.0, max_value=-0.3))
@settings(max_examples=40, deadline=None)
def test_t_and_rho_forms_agree(p, t):
    jt = profile_jet(p, t, 8, "t")
    inner = jets.exp(TaylorJet.variable(t, 8))
    jr = profile_jet(p, inner.value, 8, "rho")
    composed = jets.compose(jr, inner)
    assert composed.coeffs == pytest.approx(jt.coeffs, rel=1e-10, abs=1e-10)


def test_custom_rule_matches_builtin_both_forms():
    rule = lambda point, order: profile_jet(log_ball(0.5), point, order, "rho")
    p = custom(rule, form="rho")
    for t in (-2.0, -0.7):
        a = profile_jet(p, t, 8, "t")
        b = profile_jet(log_ball(0.5), t, 8, "t")
        assert a.coeffs == pytest.approx(b.coeffs, rel=1e-11, abs=1e-11)
    for r in (0.1, 0.6):
        a = profile_jet(p, r, 8, "rho")
        b = profile_jet(log_ball(0.5), r, 8, "rho")
        assert a.coeffs == pytest.approx(b.coeffs, rel=1e-14)


@pytest.mark.parametrize("p, ts", [
    (log_ball(0.4), (-4.0, -2.0, -0.8, -0.2)),
    (linear(0.7), (-1.2,)),
    (log_affine(-0.8, 1.0), (-1.0, 0.5, 2.0)),
], ids=["logball", "linear", "logaffine"])
def test_momentum_profile_is_quadratic(p, ts):
    # every closed family has momentum profile x + A x^2 (A = 0 for linear);
    # its x-derivatives are taken by the chain d/dx = (1/F'') d/dt
    A = p.A
    for t in ts:
        xj = profile_jet(p, t, 6, "t").deriv()
        phij = xj.deriv()
        mom = [phij]
        for _ in range(4):
            mom.append(_ddx(mom[-1], phij))
        x = xj.value
        assert mom[0].value == pytest.approx(x + A * x * x, rel=1e-12)
        assert mom[1].value == pytest.approx(1 + 2 * A * x, rel=1e-10)
        assert mom[2].value == pytest.approx(2 * A, rel=1e-8, abs=1e-9)
        assert mom[3].value == pytest.approx(0.0, abs=1e-7)
        assert mom[4].value == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("p,x", [(log_ball(0.5), 1.7), (linear(2.0), 0.4),
                                 (log_affine(-0.5, 1.0), 1.2)])
def test_t_from_x_roundtrip(p, x):
    t = t_from_x(p, x)
    assert profile_jet(p, t, 2, "t").derivative(1) == pytest.approx(x, rel=1e-12)


def test_custom_t_from_x_is_refused():
    # and the moment map it inverts
    p = custom(lambda point, order: profile_jet(linear(1.0), point, order, "t"))
    with pytest.raises(PreconditionFailed, match="not a custom profile"):
        t_from_x(p, 0.5)
    with pytest.raises(PreconditionFailed, match="not a custom profile"):
        x_from_t(p, -0.5)


# t near log-ball's bound 0 (e^t within 1e-15 of 1), near +-700, where e^t
# is subnormal and where it is 0
_MOMENT_MAP_TS = (-1e-15, -3e-13, -1e-9, -1e-4, -0.7, -3.0, -28.3, -700.0, -709.0,
                  -740.0, -745.1, -746.0, -1000.0, -math.inf)
_MOMENT_MAP_PROFILES = [(log_ball(0.5), ()), (log_ball(1.7), ()),
                        (linear(1.3), (0.0, 2.5, 300.0, 700.0)),
                        (log_affine(-0.6, 1.0), (0.0, 2.5, 300.0, 700.0)),
                        (log_affine(0.4, 0.9), (0.0, 2.5, 300.0, 700.0))]


@pytest.mark.parametrize("p, positive", _MOMENT_MAP_PROFILES,
                         ids=["logball", "logball-1.7", "linear", "logaffine", "logaffine-A>0"])
def test_the_moment_map_is_the_jet_routes_floats_bit_for_bit(p, positive):
    # the jet route's signed zeros too: x is +0.0 where e^t is 0, on A > 0 as well
    ts = np.array(_MOMENT_MAP_TS + positive)
    want = profile_jet(p, ts, 1, "t").deriv().value
    assert _same_bits(x_from_t(p, ts), want)
    for t, x in zip(ts.tolist(), want.tolist()):
        assert _same_bits(np.array([x_from_t(p, t)]), np.array([x]))


@pytest.mark.parametrize("p, bad", [
    (log_ball(0.5), 0.0), (log_ball(0.5), 1e-300), (log_ball(0.5), math.nan),
    (log_ball(0.5), math.inf), (linear(1.3), math.inf), (linear(1.3), math.nan),
    (log_affine(-0.6, 1.0), math.nan),
], ids=["logball-0", "logball-tiny", "logball-nan", "logball-inf", "linear-inf",
        "linear-nan", "logaffine-nan"])
def test_the_moment_map_refuses_a_t_past_the_bound_as_the_jet_route_does(p, bad):
    grid = np.array([-3.0, -1.0, bad, -2.0])
    with pytest.raises(OutOfDomain) as jet_route:
        profile_jet(p, grid, 1, "t")
    with pytest.raises(OutOfDomain) as on_grid:
        x_from_t(p, grid)
    with pytest.raises(OutOfDomain) as at_point:
        x_from_t(p, bad)
    bound = math.log(FAMILIES[p.family].rho_max)
    assert str(on_grid.value) == str(at_point.value) == str(jet_route.value)
    assert str(at_point.value) == f"{p.family} needs t < {bound:g}, got {bad}"


def test_the_moment_map_refuses_a_log_ball_t_whose_exponential_rounds_to_1():
    # the jet route refuses it in its log; x = -e^t/(A(1 - e^t)) would divide by 0
    p, t = log_ball(0.5), -1e-17
    with pytest.raises(OutOfDomain) as on_grid:
        x_from_t(p, np.array([-1.0, t]))
    with pytest.raises(OutOfDomain) as at_point:
        x_from_t(p, t)
    assert str(on_grid.value) == str(at_point.value) == "logball needs e^t < 1, got 1.0"


@pytest.mark.parametrize("p, t", [(linear(1.0), 710.0), (log_affine(-1.0, 1.0), 800.0),
                                  (log_affine(0.5, 1.0), 709.8)],
                         ids=["linear", "logaffine", "logaffine-A>0"])
def test_a_t_whose_exponential_leaves_the_float_range_is_refused(p, t):
    # e^t past the largest float: the bound of an unbounded family is its log, 709.78
    grid = np.array([1.0, t, 2.0 * t])
    for route in (lambda t: x_from_t(p, t), lambda t: profile_jet(p, t, 2, "t")):
        for at in (grid, t):
            with pytest.raises(OutOfDomain, match=rf"^{p.family} needs t < 709.783, got {t}$"):
                route(at)


def test_a_rho_rule_asked_for_its_t_form_past_the_float_range_is_refused():
    # e^t, the rule's rho, leaves the float range from t = 709.78 on
    p = custom(lambda rho, order: profile_jet(linear(1.0), rho, order, "rho"), "rho")
    assert profile_jet(p, 709.7, 2, "t").value == pytest.approx(math.exp(709.7), rel=1e-15)
    for at in (np.array([1.0, 710.0, 1420.0]), 710.0):
        with pytest.raises(OutOfDomain, match=r"^a custom rho-rule needs t < 709.783, got 710.0$"):
            profile_jet(p, at, 2, "t")


@pytest.mark.parametrize("p, t", [(linear(2.0), 709.5), (log_affine(-1.0, 3.0), 709.0)],
                         ids=["linear", "logaffine"])
def test_a_moment_map_past_the_float_range_is_refused(p, t):
    # e^t is finite, but c e^t is not: x = c e^t, or inf/inf in the log-affine map
    for at in (np.array([1.0, t, 709.7]), t):
        with pytest.raises(OutOfDomain) as refused:
            x_from_t(p, at)
        assert str(refused.value) == f"the {p.family} moment map leaves the float range at t={t}"


@pytest.mark.parametrize("p, x", [
    (linear(1.0), math.nan), (linear(1.0), math.inf), (log_ball(0.5), math.inf),
    (log_ball(0.5), math.nan), (log_affine(-0.6, 1.0), math.nan), (linear(1.0), -math.inf),
], ids=["linear-nan", "linear-inf", "logball-inf", "logball-nan", "logaffine-nan",
        "linear-minus-inf"])
def test_t_from_x_refuses_an_x_that_is_not_positive_and_finite(p, x):
    with pytest.raises(OutOfDomain) as refused:
        t_from_x(p, x)
    assert str(refused.value) == f"fiber coordinate x must be positive and finite, got {x}"


def test_scaled_profile_families():
    assert log_ball(0.5).scaled(2.0).A == pytest.approx(0.25)
    assert linear(1.0).scaled(3.0).c == pytest.approx(3.0)
    q = log_affine(-1.0, 2.0).scaled(2.0)
    assert q.A == pytest.approx(-0.5) and q.c == pytest.approx(2.0)


@pytest.mark.parametrize("family, A, c", [
    ("logball", 0.0, 1.0), ("linear", 0.0, 0.0), ("logaffine", 0.0, 1.0),
    ("logaffine", -1.0, -1.0), ("nosuch", 1.0, 1.0),
    # the branch tables read A, which the linear family fixes at 0
    ("linear", 0.3, 1.0),
    # non-finite parameters pass the comparisons alone (nan != 0, inf > 0)
    ("logaffine", math.nan, 1.0), ("logball", math.inf, 1.0), ("linear", 0.0, math.inf),
    ("logaffine", -1.0, math.inf),
])
def test_family_parameter_checks(family, A, c):
    with pytest.raises(ValueError):
        RadialProfile(family, A=A, c=c)


def test_from_params_needs_the_parameters_a_family_reads():
    assert from_params("linear", None, 2.0) == from_params("linear", 0.0, 2.0) == linear(2.0)
    assert from_params("logball", 0.5, 1.0) == log_ball(0.5)
    assert from_params("logaffine", -0.5, 2.0) == log_affine(-0.5, 2.0)
    with pytest.raises(PreconditionFailed):
        from_params("logball")



def _hand_written_rho_arrays(p, xi):
    """F, F', F'' in rho-form from the closed formulas, written out with numpy."""
    if p.family == "logball":
        return (-np.log(1.0 - xi) / p.A, 1.0 / (p.A * (1.0 - xi)),
                1.0 / (p.A * (1.0 - xi) ** 2))
    if p.family == "linear":
        return p.c * xi, np.full_like(xi, p.c), np.zeros_like(xi)
    return (-np.log(1.0 + p.c * xi) / p.A, -(p.c / p.A) / (1.0 + p.c * xi),
            (p.c ** 2 / p.A) / (1.0 + p.c * xi) ** 2)


@pytest.mark.parametrize("p, top", [(log_ball(0.5), 0.999), (linear(1.3), 60.0),
                                    (log_affine(-0.6, 1.4), 60.0)],
                         ids=["logball", "linear", "logaffine"])
@given(fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                          max_size=20))
@settings(max_examples=30, deadline=None)
def test_rho_arrays_match_the_hand_written_formulas(p, top, fractions):
    xi = np.array(fractions) * top
    j = profile_jet(p, xi, 2, "rho")
    for n, want in enumerate(_hand_written_rho_arrays(p, xi)):
        got = j.derivative(n)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
