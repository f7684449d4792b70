import dataclasses
import itertools
import math
import statistics
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqlab import bergman, jets, oracle, profiles, special
from kqlab.bergman import (BalancedCertificate, QuantizationSetup,
                           MomentTable,
                           balanced_certify, balanced_setup,
                           bergman_series, closed_target, density_H,
                           fiber_moment, fiber_moment_direct,
                           generating_coefficients, generating_identity_check,
                           psi_moment)
from kqlab.curvature import BaseGeometry, BergmanLaw
from kqlab.errors import (BranchInvalid, EmptyGrid, OutOfDomain, PreconditionFailed,
                          QuadratureNonConvergent, SeriesNonConvergent)
from kqlab.jets import TaylorJet
from kqlab.oracle import GramOracleConfig, gram_offdiagonal_probe, hartogs_gram_oracle
from kqlab.profiles import custom, linear, log_affine, log_ball, profile_jet
from kqlab.special import product_shifted

from fd_oracle import mp_profile
from rule_faults import nan_weight


def ball_setup(A, lam, d, d0, alpha, eps=None):
    base = BaseGeometry.from_coefficients(d, lam, a1=0.0, a2=0.0, eps=eps)
    return QuantizationSetup(d0=d0, domain="ball",
                             profile=log_ball(A), base=base, alpha=alpha)


def full_setup(profile, lam, d, d0, alpha, eps=None, base=None):
    if base is None:
        base = BaseGeometry.from_coefficients(d, lam, a1=0.0, a2=0.0, eps=eps)
    return QuantizationSetup(d0=d0, domain="fullspace",
                             profile=profile, base=base, alpha=alpha)


# -- density ----------------------------------------------------------------


def test_density_linear_family():
    s = full_setup(linear(1.0), 1.0, 1, 1, 2.0)
    for u in (0.0, 0.4, 1.7):
        assert density_H(s, u) == pytest.approx(math.exp(-2 * u) * (1 + u),
                                                rel=1e-14)


def test_density_no_damping_at_zero_level():
    s = ball_setup(0.5, 1.0, 1, 2, alpha=0.0)
    # H(0, u) = F'^(d0-1) (F' + uF'') (1 + u F'), no exponential factor
    u = 0.3
    Fp = 1 / (0.5 * (1 - u))
    Fpp = 1 / (0.5 * (1 - u) ** 2)
    assert density_H(s, u) == pytest.approx(Fp * (Fp + u * Fpp) * (1 + u * Fp),
                                            rel=1e-13)


def test_density_logball_closed_shape():
    # H = A^-n (1-u)^(alpha/A - n - 1) (A + (lam - A) u)^d
    A, lam, d, d0, alpha = 0.5, 1.0, 1, 2, 4.0
    n = d + d0
    s = ball_setup(A, lam, d, d0, alpha)
    for u in (0.1, 0.5, 0.9):
        expected = A ** -n * (1 - u) ** (alpha / A - n - 1) * (A + (lam - A) * u) ** d
        assert density_H(s, u) == pytest.approx(expected, rel=1e-12)


def test_density_domain_checks():
    s = ball_setup(0.5, 1.0, 1, 1, 2.0)
    with pytest.raises(OutOfDomain):
        density_H(s, 1.0)
    with pytest.raises(OutOfDomain):
        density_H(s, -0.2)


def test_a_density_past_the_float_range_is_refused():
    # e^(-alpha F) = e^(1000 u) on the linear ball passes 1.8e308 from u = 0.71 on
    s = QuantizationSetup(1, "ball", linear(1.0), BaseGeometry.flat(1), -1000.0)
    assert density_H(s, 0.5) == pytest.approx(math.exp(500.0) * 1.5, rel=1e-12)
    for u in (0.9, np.array([0.1, 0.5, 0.9, 0.8])):
        with pytest.raises(QuadratureNonConvergent,
                           match=r"^fiber density H\(alpha, u\) leaves the float range at u=0.9$"):
            density_H(s, u)


def test_a_concave_profile_on_no_point_has_an_empty_density():
    # log-affine with A > 0 has F' < 0 at every rho > 0: refused at the first rho
    # there is, and with no rho nothing is refused
    concave = log_affine(0.5, 1.0)
    assert [f.shape for f in profiles.density_factors(concave, np.array([]))] == [(0,)] * 4
    assert density_H(full_setup(concave, 1.0, 1, 1, 2.0), np.array([])).shape == (0,)
    with pytest.raises(OutOfDomain, match=r"^density factors not positive at u=0\.3$"):
        profiles.density_factors(concave, np.array([0.3, 0.1]))


def _density_setups():
    rho_rule = lambda rho, order: (-2.0) * jets.log(1.0 - TaylorJet.variable(rho, order))
    t_rule = lambda t, order: (-2.0) * jets.log(1.0 - jets.exp(TaylorJet.variable(t, order)))
    yield "logball", ball_setup(0.5, 1.0, 1, 2, 4.0), 0.99
    yield "logball-d2", ball_setup(1.0, 1.0, 2, 1, 6.0), 0.99
    yield "linear", full_setup(linear(1.3), 1.0, 1, 2, 3.0), 40.0
    yield "logaffine", full_setup(log_affine(-1.0, 1.5), -1.0, 2, 1, 9.0), 40.0
    base = ball_setup(0.5, 1.0, 1, 2, 4.0).base
    for form, rule in (("rho", rho_rule), ("t", t_rule)):
        yield f"custom-{form}", QuantizationSetup(
            d0=2, domain="ball", profile=custom(rule, form),
            base=base, alpha=4.0), 0.99


_DENSITY_SETUPS = {name: (s, top) for name, s, top in _density_setups()}


@given(name=st.sampled_from(sorted(_DENSITY_SETUPS)),
       fractions=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1,
                          max_size=16))
@settings(max_examples=40, deadline=None)
def test_density_on_an_array_equals_pointwise(name, fractions):
    s, top = _DENSITY_SETUPS[name]
    u = np.array(fractions) * top
    swept = density_H(s, u)
    for j, uj in enumerate(u.tolist()):
        assert swept[j] == pytest.approx(density_H(s, uj), rel=1e-13, abs=0.0)


def test_density_on_an_array_names_the_first_point_outside():
    s = ball_setup(0.5, 1.0, 1, 1, 2.0)
    with pytest.raises(OutOfDomain, match="u=1.2 outside"):
        density_H(s, np.array([0.1, 1.2, -0.3]))


def _referee_setups():
    """The 23 ball and 4 total-space tuples of balanced_setup, and three log-affine models."""
    for k, r in itertools.product((1, 2, 3), repeat=2):
        yield from (balanced_setup(k, r, m, "ball") for m in range(r, 5) if k * r > 1)
    yield from (balanced_setup(1, 1, m, "total") for m in range(1, 5))
    for A, c, base, alpha in ((-1.0, 1.0, BaseGeometry.fubini_study_cpd(1), 3.0),
                              (-1.0, 1.5, BaseGeometry.fubini_study_cpd(2), 9.0),
                              (-0.5, 2.0, BaseGeometry.flat(1), 5.0)):
        yield full_setup(log_affine(A, c), None, None, 1, alpha, base=base)


def _mp_density(s, u, dps=40):
    """H(alpha, u) in mpmath from the t-form profile of fd_oracle at t = log u, where
    F' = F_t'/u and F' + u F'' = F_t''/u."""
    p = s.profile
    with mp.workdps(dps):
        F, x, phi = mp.diffs(mp_profile(p.family, A=p.A, c=p.c), mp.log(u), 2)
        return (mp.exp(-s.alpha * F) * (x / u) ** (s.d0 - 1) * (phi / u)
                * (1 + s.twist * x) ** s.d)


def test_density_against_a_40_digit_referee():
    # On the certificates' grid, relative gaps (median / max) measured 2.09e-16 / 3.00e-15
    # for the closed families' density, 3.09e-16 / 3.00e-15 for the jet route, which the
    # same profile takes as a custom rho-rule
    u = np.linspace(0.0, 0.9, 10)[1:]
    gaps = {"closed": [], "jet": []}
    for s in _referee_setups():
        p = s.profile
        as_rule = dataclasses.replace(s, profile=custom(
            lambda rho, order: profile_jet(p, rho, order, "rho"), "rho"))
        want = [_mp_density(s, uj) for uj in u.tolist()]
        for route, setup in (("closed", s), ("jet", as_rule)):
            gaps[route] += [float(abs(h - w) / w)
                            for h, w in zip(density_H(setup, u).tolist(), want)]
    assert len(gaps["closed"]) == 30 * u.size
    for route, gap in gaps.items():
        assert statistics.median(gap) <= 3.9e-16 and max(gap) <= 1.2e-14, route


def _raise_jet(*args):
    raise AssertionError("a closed family's density took a profile jet")


def _oracles_run(k, m, part):
    """The Gram oracle meets its target, and its probe finds the Gram matrix diagonal."""
    cfg = GramOracleConfig(bundle_degree=k, power=m, q_cap=60)
    setup = balanced_setup(k, 1, m, part)
    assert hartogs_gram_oracle(cfg, setup).max_abs_error <= 1e-3
    (entry,) = gram_offdiagonal_probe(cfg, setup, [((0, 1), (1, 0))])
    assert entry.magnitude <= 1e-10


@pytest.mark.parametrize("family", ["logball", "linear", "logaffine"])
def test_closed_densities_take_no_jet_and_keep_their_refusals(monkeypatch, family):
    for module in (bergman, oracle, profiles):     # the oracle imports no profile_jet
        monkeypatch.setattr(module, "profile_jet", _raise_jet, raising=False)
    profile = {"logball": log_ball(0.5), "linear": linear(1.0),
               "logaffine": log_affine(-1.0, 1.0)}[family]
    if family == "logball":
        assert balanced_certify(2, 2, 3, "ball").balanced
        _oracles_run(2, 2, "ball")
        # off the ball, the adaptive route refuses rho >= 1 in the profile's words
        s = full_setup(profile, 1.0, 1, 1, 2.0)
        with pytest.raises(OutOfDomain, match=r"^logball needs rho < 1, got 1\.5$"):
            density_H(s, np.array([0.5, 1.5]))
        with pytest.raises(OutOfDomain, match=r"^logball needs rho < 1, got "):
            psi_moment(s, 0, "quadrature")
    elif family == "linear":
        assert balanced_certify(1, 1, 2, "total").balanced
        _oracles_run(1, 2, "total")
    else:
        s = full_setup(profile, -1.0, 1, 1, 4.0)
        table = MomentTable(s, "quadrature")
        assert table(3) == pytest.approx(MomentTable(s)(3), rel=1e-13)
        concave = full_setup(log_affine(0.5, 1.0), 1.0, 1, 1, 2.0)
        with pytest.raises(OutOfDomain, match=r"^density factors not positive at u=0\.2$"):
            density_H(concave, np.array([0.2, 0.7]))
    ball = QuantizationSetup(1, "ball", profile, BaseGeometry.flat(1), 2.0)
    with pytest.raises(OutOfDomain, match=r"^u=1\.0 outside the fiber range for domain ball$"):
        density_H(ball, np.array([0.5, 1.0]))
    # 1 - 4x, x = u F'(u), is positive at u = 0.1 and negative from u = 0.8 on
    negative = QuantizationSetup(1, "ball", profile, BaseGeometry.flat(1, -4.0), 2.0)
    with pytest.raises(OutOfDomain, match=r"^density factors not positive at u=0\.8$"):
        density_H(negative, np.array([0.1, 0.8, 0.9]))
    # alpha = -2000: e^(2000 F) leaves the float range
    past = QuantizationSetup(1, "ball", profile, BaseGeometry.flat(1), -2000.0)
    with pytest.raises(QuadratureNonConvergent,
                       match=r"^fiber density H\(alpha, u\) leaves the float range at u=0\.9$"):
        density_H(past, np.array([0.001, 0.9]))


# -- moments ----------------------------------------------------------------


def test_psi_spot_values():
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    assert psi_moment(s, 0, "closed") == pytest.approx(6.0 / 35.0, rel=1e-12)
    assert psi_moment(s, 0, "quadrature") == pytest.approx(6.0 / 35.0, rel=1e-12)

    s2 = full_setup(linear(1.0), 1.0, 1, 1, 2.0)
    assert psi_moment(s2, 0, "closed") == pytest.approx(0.75, rel=1e-13)
    assert psi_moment(s2, 0, "quadrature") == pytest.approx(0.75, rel=1e-12)

    s3 = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 2.0)
    assert psi_moment(s3, 1, "closed") == pytest.approx(0.05, rel=1e-13)
    assert psi_moment(s3, 1, "quadrature") == pytest.approx(0.05, rel=1e-12)


def _sweep_setups():
    for d0 in (1, 2, 3):
        for off in (0.6, 2.0, 5.5):  # ball windows need alpha > n*A
            yield ball_setup(0.5, 1.0, 1, d0, (1 + d0) * 0.5 + off)
            yield ball_setup(1.0, 1.0, 2, d0, (2 + d0) * 1.0 + off)
        for alpha in (0.7, 2.0, 5.0):
            yield full_setup(linear(1.0), 1.0, 1, d0, alpha)
        for alpha in (5.0, 9.0, 12.0):
            yield full_setup(log_affine(-1.0, 1.0), -1.0, 2, d0, alpha)


def test_psi_quadrature_matches_closed_forms_sweep():
    worst = 0.0
    for s in _sweep_setups():
        kmax = 12 if s.twist > 0 else min(12, int(s.alpha))
        for k in range(kmax + 1):
            closed = psi_moment(s, k, "closed")
            quad = psi_moment(s, k, "quadrature")
            worst = max(worst, abs(quad - closed) / closed)
    assert worst <= 1e-10


def test_psi_branch_windows():
    s = ball_setup(0.5, 1.0, 1, 2, alpha=1.2)  # alpha <= n*A = 1.5
    with pytest.raises(BranchInvalid):
        psi_moment(s, 0, "closed")
    with pytest.raises(BranchInvalid):
        psi_moment(s, 0, "quadrature")
    s3 = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 2.0)
    with pytest.raises(BranchInvalid):
        psi_moment(s3, 3, "closed")  # k beyond the finite spectrum


def test_ball_closed_forms_refuse_a_negative_twist():
    # 1 + twist u F'(u) turns negative towards the fiber boundary, so the
    # moments do not exist (and the closed ratio would divide by zero at k = 0):
    # no branch of curvature.BRANCHES holds a negative-twist ball
    s = ball_setup(0.5, -1.0, 1, 1, 3.0, eps=lambda a: a)
    for k in (0, 1):
        with pytest.raises(BranchInvalid, match="no constant-coefficient branch"):
            psi_moment(s, k, "closed")
    with pytest.raises(BranchInvalid, match="no constant-coefficient branch"):
        bergman_series(s, [0.0, 0.5])
    with pytest.raises(OutOfDomain):
        psi_moment(s, 0, "quadrature")


def _closed_psi_cases():
    """(setup, k) of the accuracy set: d = 1 balls to k = 500, projective forms to alpha = 60."""
    for A in (0.25, 1 / 3, 0.5, 1.0, 1.75):
        for lam in (0.5, 1.0, 2.0):
            for d0 in (1, 2, 3):
                for excess in (0.5, 3.0, 40.0):
                    s = ball_setup(A, lam, 1, d0, (1 + d0) * A + excess)
                    for k in (0, 1, 2, 3, 7, 16, 31, 64, 100, 199, 256, 333, 500):
                        yield s, k
    for d in (1, 2):
        for d0 in (1, 2):
            for alpha in (0, 3, 10, 25, 60):
                s = full_setup(log_affine(-1.0, 1.0), -1.0, d, d0, float(alpha))
                for k in range(0, alpha + 1, 1 if alpha <= 10 else 3):
                    yield s, k


def _closed_psi_reference(s, k):
    """40-digit psi(alpha, k) of the Gamma closed form, and the size of its log terms."""
    with mp.workdps(40):
        alpha, n = mp.mpf(s.alpha), s.n
        if s.profile.family == "linear":
            c, lam = mp.mpf(s.profile.c), mp.mpf(s.twist)
            terms = [mp.loggamma(k + 1), -k * mp.log(c), -(k + s.d0 + 1) * mp.log(alpha)]
            factor = alpha + lam * (k + s.d0)
        elif s.twist > 0:
            A, lam = mp.mpf(s.profile.A), mp.mpf(s.twist)
            terms = [mp.loggamma(k + 1), mp.loggamma(alpha / A - n), -n * mp.log(A),
                     -mp.loggamma(alpha / A + k)]
            factor = alpha + lam * k + s.d0 * lam - n * A
        else:
            terms = [mp.loggamma(k + 1), mp.loggamma(alpha - k + s.d + 1),
                     -mp.loggamma(alpha + n + 1)]
            factor = mp.mpf(1)
        return mp.exp(mp.fsum(terms)) * factor, float(mp.fsum(abs(t) for t in terms))


def test_closed_psi_accuracy_against_mpmath():
    # psi(alpha, 0), about n + 1 roundings, over k closed ratios of a few
    # roundings each, which mostly cancel: the worst error on this set is half
    # of (k + n + 1) ulps
    errors = []
    for s, k in _closed_psi_cases():
        ref, _ = _closed_psi_reference(s, k)
        err = float(abs(mp.mpf(psi_moment(s, k, "closed")) - ref) / ref)
        assert err <= (k + s.n + 1) * 2.0 ** -52, (s, k, err)
        errors.append(err)
    assert len(errors) == 1939
    assert statistics.median(errors) <= 1e-15 and max(errors) <= 5e-14


def test_closed_moment_beyond_a_stretch_below_the_normal_range():
    # psi(800, k) of the linear profile is below the normal range around k = 800
    # and normal again at k = 2000: only the moment asked for is judged
    s = full_setup(linear(1.0), 1.0, 1, 1, 800.0)
    alpha = Fraction(800)
    exact = math.factorial(2000) * (alpha + 2001) / alpha ** 2002
    err = float(abs(Fraction(psi_moment(s, 2000, "closed")) - exact) / exact)
    assert err <= 2003 * 2.0 ** -52
    with pytest.raises(QuadratureNonConvergent, match="psi.alpha, 800. = 0.0"):
        psi_moment(s, 800, "closed")
    # a closed ratio that underflows to 0 (c = 5e-324, k = 9) is a refusal, not a division by 0
    s = full_setup(log_affine(-1.0, 5e-324), -1.0, 2, 1, 10.0)
    with pytest.raises(QuadratureNonConvergent, match="psi.alpha, 10. = inf"):
        psi_moment(s, 10, "closed")


def test_ball_closed_form_refuses_a_gamma_pole_at_the_window_edge():
    # alpha one ulp above n*A, where alpha/A - n rounds to 0: a pole of
    # Gamma(alpha/A - n), which used to give psi = inf
    A, d0 = 2.0772406633581872, 5
    alpha = math.nextafter((1 + d0) * A, math.inf)
    assert alpha > (1 + d0) * A and alpha / A - (1 + d0) == 0.0
    s = ball_setup(A, 1.0, 1, d0, alpha)
    for k in (0, 3):
        with pytest.raises(BranchInvalid):
            psi_moment(s, k, "closed")
    with pytest.raises(BranchInvalid):
        closed_target(s)


def test_moment_table_positive():
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    table = MomentTable(s, "closed")
    assert all(table(k) > 0 for k in range(9))
    assert table.setup is s and table.counts()["fiber_degrees"] == 9


def test_fiber_moment_reduction_ratio():
    s = ball_setup(0.5, 1.0, 1, 2, 6.0)
    # Gamma prefactors make the ratio independent of the moment integrals
    assert fiber_moment(s, (1, 1)) / fiber_moment(s, (2, 0)) == pytest.approx(
        0.5, rel=1e-13)


@pytest.mark.parametrize("alpha", [4.0, 6.0])
@pytest.mark.parametrize("m", [(0,), (3,), (1, 1), (2, 0), (0, 3), (4, 1), (2, 2)],
                         ids=lambda m: "m" + "".join(map(str, m)))
def test_fiber_moment_direct_distribution_independence(m, alpha):
    s = ball_setup(0.5, 1.0, 1, len(m), alpha)
    direct = fiber_moment_direct(s, m)
    # the Gamma prefactor carries all dependence on how |m| is distributed
    gamma_m = math.prod(math.factorial(mi) for mi in m) / math.factorial(sum(m))
    lumped = fiber_moment_direct(s, (sum(m),) + (0,) * (len(m) - 1))
    assert direct / gamma_m == pytest.approx(lumped, rel=1e-12)
    assert direct == pytest.approx(fiber_moment(s, m), rel=1e-12)


# -- series -----------------------------------------------------------------


def test_series_at_zero_radius_is_pure_arithmetic():
    eps = lambda a: a + 1.5
    s = ball_setup(0.5, 1.0, 1, 2, 4.0, eps=eps)
    val = bergman_series(s, 0.0)
    assert val == pytest.approx(eps(4.0) / psi_moment(s, 0), rel=1e-12)


def test_series_constant_on_corollary_tuple():
    # rank-2 ball bundle over the degree-1 sphere at level 2, quadrature moments
    s = balanced_setup(1, 2, 2, "ball")
    for rho in (0.0, 0.3, 0.6, 0.9):
        assert bergman_series(s, rho, psi_method="quadrature") == pytest.approx(
            20.0 / 9.0, rel=1e-12)


def test_series_total_space_power_law():
    s = balanced_setup(1, 1, 3, "total")
    for rho in (0.0, 0.5, 1.5):
        assert bergman_series(s, rho) == pytest.approx(9.0, rel=1e-12)


def test_series_finite_sum_projective_branch():
    base = BaseGeometry.fubini_study_cpd(2)
    s = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 3.0, base=base)
    target = product_shifted(3.0, -1.0, 3)
    for rho in (0.0, 0.7, 2.5):
        assert bergman_series(s, rho) == pytest.approx(target, rel=1e-12)


def test_series_nonconstant_off_law():
    # perturbing the base Bergman law breaks constancy detectably
    eps = lambda a: a + 1.5 + 0.1 * (a > 4.0)
    s = ball_setup(0.5, 1.0, 1, 2, 4.0, eps=eps)
    vals = [bergman_series(s, rho) for rho in np.linspace(0, 0.9, 10)]
    assert max(vals) - min(vals) > 1e-3


# -- closed targets ---------------------------------------------------------


def test_negative_k_max_is_a_precondition():
    s = full_setup(linear(1.0), 1.0, 1, 1, 3.0, eps=lambda a: a + 1.0)
    with pytest.raises(PreconditionFailed, match="k_max"):
        bergman_series(s, 0.5, k_max=-3)
    with pytest.raises(PreconditionFailed, match="k_max"):
        generating_identity_check(s, [0.0, 0.5], k_max=-3)


def test_closed_targets():
    s = balanced_setup(1, 2, 2, "ball")
    assert closed_target(s) == pytest.approx(20.0 / 9.0, rel=1e-14)

    base = BaseGeometry.from_coefficients(2, 1.0, a1=-3.0, a2=2.0)
    s2 = QuantizationSetup(d0=1, domain="ball",
                           profile=log_ball(1.0), base=base, alpha=5.0)
    assert closed_target(s2) == pytest.approx(24.0, rel=1e-14)

    s3 = balanced_setup(1, 1, 3, "total")
    assert closed_target(s3) == pytest.approx(9.0, rel=1e-14)


def test_closed_target_windows():
    closed_target(balanced_setup(2, 1, 1, "ball"))  # m = 1 > (1+r)A = 3/4 is fine
    # each refusal of _closed_window, from the moments, the target and the identity
    for bad, match in (
            (ball_setup(0.5, -1.0, 1, 1, 3.0), "no constant-coefficient branch"),
            (ball_setup(0.5, 1.0, 2, 1, 9.0), "no constant-coefficient branch"),  # A != twist
            (full_setup(linear(1.0), 1.0, 2, 1, 3.0), "no constant-coefficient branch"),
            (full_setup(log_affine(-0.5, 1.0), 1.0, 1, 1, 3.0), "projective corner"),  # 2.13
            (full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 2.5), "projective corner"),
            (QuantizationSetup(d0=3, domain="ball", profile=log_ball(1.0),
                               base=BaseGeometry.flat(1), alpha=2.0), "alpha > n"),  # n*A = 4
            (full_setup(linear(1.0), 1.0, 1, 1, -1.0), "alpha > n")):
        for closed in (lambda: MomentTable(bad)(0), lambda: closed_target(bad),
                       lambda: generating_identity_check(bad, [0.0, 0.5])):
            with pytest.raises(BranchInvalid, match=match):
                closed()


# -- balanced certification --------------------------------------------------


def test_closed_target_needs_the_required_base():
    # the degree-1 sphere has a1 = 1, and log_ball(0.5) at d0 = 1 asks for
    # d0*twist - n*A = 0: the series runs 32.08 down to 28.74, not the law's 27.5
    s = QuantizationSetup(1, "ball", log_ball(0.5), BaseGeometry.fubini_study_cp1(1), 6.0)
    with pytest.raises(BranchInvalid, match="required_base"):
        closed_target(s)
    values = bergman_series(s, [0.0, 0.6])   # the moments read no base
    assert values == pytest.approx([32.0833333333333, 28.7415390476191], rel=1e-12)
    on_base = dataclasses.replace(s, base=BaseGeometry.from_coefficients(1, 1.0, 0.0, 0.0))
    assert closed_target(on_base) == pytest.approx(27.5, rel=1e-14)


def test_balanced_examples():
    cert = balanced_certify(1, 2, 2)
    assert isinstance(cert, BalancedCertificate)
    assert cert.balanced
    assert cert.A == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cert.mu == pytest.approx(3.0, rel=1e-15)
    assert cert.target == pytest.approx(20.0 / 9.0, rel=1e-14)

    cert = balanced_certify(2, 1, 2)
    assert cert.balanced
    assert cert.A == pytest.approx(0.25, rel=1e-15)
    assert cert.target == pytest.approx(21.0 / 8.0, rel=1e-14)

    cert = balanced_certify(1, 1, 2, part="total")
    assert cert.balanced and cert.target == pytest.approx(4.0)


def test_balanced_preconditions():
    with pytest.raises(PreconditionFailed):
        balanced_certify(1, 1, 2, part="ball")  # kr > 1 required
    with pytest.raises(PreconditionFailed):
        balanced_certify(2, 1, 1, part="total")  # total space needs k = r = 1


def test_balanced_base_identity():
    # consistency of the base Bergman law: r - (1+r)A = 1/k
    for k, r in ((1, 2), (2, 1), (3, 2)):
        cert = balanced_certify(k, r, max(r, 1) + 1)
        assert cert.base_identity_gap <= 1e-15


# -- generating identities ----------------------------------------------------


def test_generating_identity_ball():
    A, d0 = 1.0 / 3.0, 2
    n = 1 + d0
    eps = lambda a: a + d0 * 1.0 - n * A
    s = ball_setup(A, 1.0, 1, d0, 2.0, eps=eps)
    rep = generating_identity_check(s, np.linspace(0.0, 0.9, 10))
    assert rep.max_deviation <= 1e-13
    # closed right side really is the binomial resummation
    rho, lhs, rhs = rep.rows[5]
    assert rhs == pytest.approx((1 - rho) ** (-2.0 / A), rel=1e-13)


def test_an_empty_radius_grid_is_an_empty_grid():
    s = balanced_setup(2, 1, 2, "ball")
    for run in (lambda: bergman_series(s, []), lambda: generating_identity_check(s, []),
                lambda: balanced_certify(2, 1, 2, rho_grid=[])):
        with pytest.raises(EmptyGrid, match="^the moment series needs at least one radius$"):
            run()


def test_generating_identity_case_two_at_origin():
    eps = lambda a: a + 1.0
    s = full_setup(linear(1.0), 1.0, 1, 1, 2.0, eps=eps)
    rep = generating_identity_check(s, [0.0])
    assert rep.rows[0][1] == pytest.approx(1.0, rel=1e-14)
    assert rep.rows[0][2] == pytest.approx(1.0, rel=1e-15)


def test_generating_identity_case_three_binomials():
    c, alpha = 1.0, 6.0
    base = BaseGeometry.fubini_study_cpd(2)
    s = full_setup(log_affine(-1.0, c), -1.0, 2, 1, alpha, base=base)
    coeffs = generating_coefficients(s, len(s.fiber_degrees(100)))
    assert len(coeffs) == int(alpha) + 1
    for k, ck in enumerate(coeffs):
        assert ck == pytest.approx(math.comb(int(alpha), k) * c ** k, rel=1e-10)


def test_generating_identity_quadrature_route():
    eps = lambda a: a + 1.0
    s = full_setup(linear(1.0), 1.0, 1, 1, 2.0, eps=eps)
    rep = generating_identity_check(s, np.linspace(0.0, 0.9, 7),
                                    psi_method="quadrature")
    assert rep.max_deviation <= 1e-13


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_generating_identity_negative_twist_is_a_finite_binomial(method):
    # branch 2.14 over the projective plane: base law (alpha+1)(alpha+2), and
    # a negative twist leaves alpha + 1 fiber degrees, summed exactly
    alpha, c = 9.0, 1.0
    base = BaseGeometry.from_coefficients(2, -1.0, a1=3.0, a2=2.0,
                                          eps=lambda a: product_shifted(a, -1.0, 2))
    s = full_setup(log_affine(-1.0, c), -1.0, 2, 1, alpha, base=base)
    rho_grid = np.linspace(0.0, 0.9, 8)
    rep = generating_identity_check(s, rho_grid, psi_method=method)
    assert len(rep.rows) == len(rho_grid)
    for rho, lhs, rhs in rep.rows:
        assert lhs == pytest.approx((1.0 + c * rho) ** alpha, rel=1e-8)
        assert rhs == pytest.approx((1.0 + c * rho) ** alpha, rel=1e-8)


def test_generating_identity_builds_each_moment_once(monkeypatch):
    rules = []
    roots_genlaguerre = bergman.roots_genlaguerre
    monkeypatch.setattr(bergman, "roots_genlaguerre",
                        lambda *args: rules.append(args) or roots_genlaguerre(*args))
    s = full_setup(linear(1.0), 1.0, 1, 1, 2.0, eps=lambda a: a + 1.0)
    rep = generating_identity_check(s, np.linspace(0.0, 0.9, 7), psi_method="quadrature")
    assert rep.max_deviation <= 1e-13
    # the series at rho 0.9 needs fewer than 64 degrees: one block
    assert [args[1] for args in rules] == [0]


# -- spectrum ----------------------------------------------------------------


def test_spectrum_membership():
    # negative twist: the admissible levels alpha - k are the naturals
    base = BaseGeometry.fubini_study_cpd(2)
    nat = lambda alpha: full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, alpha, base=base)
    assert list(nat(4.0).fiber_degrees(100)) == [0, 1, 2, 3, 4]
    for alpha in (4.5, -1.0):
        with pytest.raises(BranchInvalid):
            nat(alpha).fiber_degrees(100)


def test_fiber_degrees_finite_for_negative_twist():
    base = BaseGeometry.fubini_study_cpd(2)
    s = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 3.0, base=base)
    assert list(s.fiber_degrees(100)) == [0, 1, 2, 3]


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_a_cap_short_of_the_projective_spectrum_is_refused(method):
    # alpha = 9 admits the ten degrees 0..9; a cap at 3 summed four of them
    # (858.4 at rho 0.5, not 1320) and said nothing
    s = QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0),
                          BaseGeometry.fubini_study_cpd(2), 9.0)
    for k_max in (0, 3, 8):
        with pytest.raises(SeriesNonConvergent, match=f"past k_max = {k_max}"):
            bergman_series(s, [0.5], psi_method=method, k_max=k_max)
        with pytest.raises(SeriesNonConvergent, match=f"past k_max = {k_max}"):
            generating_identity_check(s, [0.5], psi_method=method, k_max=k_max)
    assert bergman_series(s, [0.5], psi_method=method, k_max=9) == pytest.approx(
        [1320.0], rel=1e-13)
    # a fixed count of terms is not a cap
    assert generating_coefficients(s, 4, psi_method=method) == pytest.approx(
        [math.comb(9, j) for j in range(4)], rel=1e-12)


def test_a_setup_reads_d_and_twist_from_its_base():
    base = BaseGeometry.fubini_study_cpd(2)
    s = QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0), base, 9.0)
    assert (s.d, s.twist, s.n) == (2, -1.0, 3)
    # plain attributes, not properties: the series reads them once per degree
    assert vars(s)["d"] is base.d and vars(s)["twist"] is base.twist
    with pytest.raises(TypeError):
        QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0), base, 9.0, d=2)


@given(alpha=st.integers(min_value=1, max_value=9))
@settings(max_examples=9, deadline=None)
def test_projective_series_equals_product(alpha):
    base = BaseGeometry.fubini_study_cpd(2)
    s = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, float(alpha), base=base)
    assert bergman_series(s, 1.3) == pytest.approx(
        product_shifted(float(alpha), -1.0, 3), rel=1e-11)


# -- block Gauss rules ---------------------------------------------------------


def _block_setups():
    # k = 0..130 crosses the block boundaries at 63/64/65 and 127/128/129
    yield ball_setup(0.5, 1.0, 1, 2, 4.0), 131, 3
    yield full_setup(linear(1.0), 1.0, 1, 1, 2.0), 131, 3
    # log-affine at level 45: admissible fiber degrees 0..45, one block
    yield full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 45.0), 46, 1


@pytest.mark.parametrize("s, degrees, rules", list(_block_setups()),
                         ids=["logball", "linear", "logaffine"])
def test_block_moments_match_single_moments(s, degrees, rules):
    cache = MomentTable(s, "quadrature", 64)
    for k in range(degrees):
        single = psi_moment(s, k, "quadrature")
        assert cache(k) == pytest.approx(single, rel=1e-12, abs=0.0)
    assert cache.counts() == {"gauss_rules": rules, "nodes_per_rule": 64,
                              "fiber_degrees": degrees}


@pytest.mark.parametrize("nodes", [4, 8, 16, 64])
def test_block_moments_exact_at_any_node_count(nodes):
    # an N-node rule is exact to degree 2N-1: blocks span min(64, N) degrees
    s = balanced_setup(2, 2, 3, "ball")
    cache = MomentTable(s, "quadrature", nodes)
    for k in range(130):
        single = psi_moment(s, k, "quadrature", nodes)
        assert cache(k) == pytest.approx(single, rel=1e-12, abs=0.0), k
    assert cache.counts()["gauss_rules"] == -(-130 // min(64, nodes))


def test_block_moments_against_mpmath():
    # block moments of balanced setups against 40-digit closed values: ball
    # parts to k = 600, the total space to k = 150 (its moments overflow at 171)
    errors = []
    for (k, r, m), part, ks in [((2, 2, 3), "ball", range(0, 601, 5)),
                                ((1, 2, 4), "ball", range(3, 601, 11)),
                                ((3, 1, 1), "ball", range(7, 601, 13)),
                                ((1, 1, 2), "total", range(0, 151, 3)),
                                ((1, 1, 4), "total", range(1, 151, 7))]:
        s = balanced_setup(k, r, m, part)
        cache = MomentTable(s, "quadrature", 64)
        for kk in ks:
            ref, _ = _closed_psi_reference(s, kk)
            errors.append(float(abs(mp.mpf(cache(kk)) - ref) / ref))
    assert len(errors) == 295
    # measured: median 1.82e-15, max 3.71e-14
    assert statistics.median(errors) <= 5e-15 and max(errors) <= 1e-13


def test_block_scale_past_the_float_range_refuses_only_its_moment():
    # scale alpha*c = 1e-3: scale^-(k+1) leaves the float range from k = 102,
    # inside the block 64..127; psi itself is finite up to k = 69
    s = full_setup(linear(1e-3), 1.0, 1, 1, 1.0)
    table = MomentTable(s, "quadrature")
    for k in range(65):
        assert table(k) == pytest.approx(psi_moment(s, k, "closed"), rel=1e-10)
    with pytest.raises(QuadratureNonConvergent):
        [table(k) for k in range(71)]


def test_negative_twist_block_stops_at_last_admissible_degree():
    s = full_setup(log_affine(-1.0, 1.0), -1.0, 2, 1, 9.0)
    with pytest.raises(BranchInvalid, match="k=15"):
        MomentTable(s, "quadrature")(15)   # degree 15 has no moment
    cache = MomentTable(s, "quadrature", 64)
    for k in range(10):
        assert cache(k) == pytest.approx(psi_moment(s, k, "closed"), rel=1e-10)
    assert cache.counts() == {"gauss_rules": 1, "nodes_per_rule": 64,
                              "fiber_degrees": 10}


def _projective_plane(alpha=6.0):
    return QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0),
                             BaseGeometry.fubini_study_cpd(2), alpha)


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_coefficients_past_the_projective_spectrum_are_refused(method):
    # alpha = 6 has the fiber degrees 0..6; the closed ratio c(alpha - k + d)/(k + 1)
    # reaches 0 at k = alpha + d, so closed coefficients 7.. came out 0.0, -0.0, ...
    s = _projective_plane()
    with pytest.raises(BranchInvalid, match="^fiber degree k=7 past the model's last degree 6$"):
        generating_coefficients(s, 12, psi_method=method)
    assert generating_coefficients(s, 7, psi_method=method) == pytest.approx(
        [math.comb(6, k) for k in range(7)], rel=1e-12)


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_a_degree_that_is_not_a_natural_number_is_a_precondition(method):
    # closed: KeyError, TypeError, ZeroDivisionError and a value of -0.444 with no
    # error; quadrature: a non-finite Gauss rule or TypeError
    # a held degree asked as a float is refused too (it was handed out once held)
    table = MomentTable(_projective_plane(), method)
    table(3)
    for ask in (lambda: table(-1), lambda: table(2.5), lambda: table(3.0), lambda: table.ratio(0),
                lambda: table.ratio(-3), lambda: table.ratio(1.5),
                lambda: psi_moment(table.setup, 2.5, method)):
        with pytest.raises(PreconditionFailed, match="fiber degree k="):
            ask()


def test_a_degree_past_the_last_is_refused_alike_on_both_routes():
    s = _projective_plane()
    for k in (7, 8, 12):
        refusals = set()
        for method in ("closed", "quadrature"):
            table = MomentTable(s, method)
            for ask in (table, table.ratio, lambda k: psi_moment(s, k, method)):
                with pytest.raises(BranchInvalid) as refused:
                    ask(k)
                refusals.add(str(refused.value))
        assert refusals == {f"fiber degree k={k} past the model's last degree 6"}


def test_the_last_degree_at_the_projective_corner_is_alpha_on_both_routes():
    # alpha within 1e-9 above 6 ends at degree 6 on both routes; the quadrature
    # route handed out psi(alpha, 7) = 0.0138888888888635 where the closed refused
    s = _projective_plane(6.0 + 1e-12)
    for method in ("closed", "quadrature"):
        assert psi_moment(s, 6, method) == pytest.approx(1.0 / 252.0, rel=1e-10)
        with pytest.raises(BranchInvalid, match="k=7"):
            psi_moment(s, 7, method)


@pytest.mark.parametrize("s", [
    full_setup(linear(1.0), 1.0, 1, 1, -1.0),
    full_setup(linear(1.0), 1.0, 1, 1, 0.0),
    full_setup(log_affine(1.0, 1.0), 1.0, 1, 1, 3.0),
], ids=["linear-alpha-negative", "linear-alpha-zero", "logaffine-A-positive"])
def test_quadrature_without_a_convergent_moment_refuses_every_degree(s):
    table = MomentTable(s, "quadrature")
    for k in (0, 3):
        for ask in (table, lambda k: psi_moment(s, k, "quadrature")):
            with pytest.raises(BranchInvalid, match=f"k={k} past the model's last degree -1"):
                ask(k)
    assert table.counts()["gauss_rules"] == 0


def test_a_table_with_no_nodes_is_refused_at_its_first_rule():
    with pytest.raises(PreconditionFailed, match="at least one node"):
        MomentTable(balanced_setup(2, 1, 3, "ball"), "quadrature", 0)(0)


def test_log_affine_block_stops_at_last_convergent_moment():
    # positive twist: moments exist for k <= alpha/|A| = 20 only
    s = full_setup(log_affine(-1.0, 1.0), 1.0, 1, 1, 20.0)
    cache = MomentTable(s, "quadrature", 64)
    assert cache(16) == pytest.approx(psi_moment(s, 16, "quadrature"), rel=1e-12)
    assert cache.counts()["gauss_rules"] == 1
    with pytest.raises(BranchInvalid):
        cache(21)


def test_custom_profile_keeps_adaptive_moments(monkeypatch):
    A = 0.5

    def rule(t, order):
        return (-1.0 / A) * jets.log(1.0 - jets.exp(TaylorJet.variable(t, order)))

    s = ball_setup(A, 1.0, 1, 2, 4.0)
    s_custom = QuantizationSetup(d0=2, domain="ball",
                                 profile=custom(rule, "t"), base=s.base, alpha=4.0)

    def no_gauss_rule(*args):
        raise AssertionError("custom profiles must not take the Gauss-rule path")

    monkeypatch.setattr(bergman, "_psi_quadrature_block", no_gauss_rule)
    cache = MomentTable(s_custom, "quadrature", 64)
    for k in range(3):
        assert cache(k) == pytest.approx(psi_moment(s, k, "closed"), rel=1e-9)
    assert cache.counts() == {"gauss_rules": 0, "nodes_per_rule": 0,
                              "fiber_degrees": 3}


@pytest.mark.parametrize("s", [balanced_setup(2, 1, 2, "ball"),
                               balanced_setup(1, 1, 3, "total")], ids=["ball", "total"])
def test_series_same_with_block_and_single_moments(s):
    for rho in (0.3, 0.6):
        table = MomentTable(s, "quadrature")
        bergman_series(s, rho, psi=table)
        for k in range(table.counts()["fiber_degrees"]):
            single = psi_moment(s, k, "quadrature")
            assert table(k) == pytest.approx(single, rel=1e-12, abs=0.0), k


def test_a_table_serves_an_equal_setup_built_apart():
    # equal setups from one preset: their bases' Bergman laws compare by value
    s = balanced_setup(2, 1, 2, "ball")
    assert bergman_series(s, 0.5, psi=MomentTable(balanced_setup(2, 1, 2, "ball"))) == (
        bergman_series(s, 0.5))


def test_balanced_certificate_counts():
    cert = balanced_certify(2, 2, 3)
    assert (cert.gauss_rules, cert.nodes_per_rule, cert.fiber_degrees) == (8, 64, 491)
    closed = balanced_certify(2, 2, 3, psi_method="closed")
    assert (closed.gauss_rules, closed.nodes_per_rule, closed.fiber_degrees) == (0, 0, 491)


_CRITERION_5 = [((1, 2, 2), "ball"), ((1, 2, 3), "ball"), ((2, 1, 1), "ball"),
                ((2, 1, 2), "ball"), ((2, 1, 3), "ball"),
                ((1, 1, 1), "total"), ((1, 1, 2), "total"), ((1, 1, 3), "total")]


@pytest.mark.parametrize("krm, part", _CRITERION_5,
                         ids=[f"{part}-{k}{r}{m}" for (k, r, m), part in _CRITERION_5])
def test_balanced_certificate_within_1e14_of_the_law(krm, part):
    # the series stops on a bound of its whole geometric tail, d_k r/(1 - r);
    # a rule that leaves about d_k/(1 - rho) out reads 8.2e-14 at rho 0.9
    cert = balanced_certify(*krm, part=part)
    assert cert.balanced
    assert cert.max_error <= 1e-14 and cert.max_spread <= 1e-14


@pytest.mark.parametrize("krm, part", _CRITERION_5,
                         ids=[f"{part}-{k}{r}{m}" for (k, r, m), part in _CRITERION_5])
@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_series_on_a_grid_equals_its_radii_one_at_a_time(krm, part, method):
    s = balanced_setup(*krm, part)
    grid = np.linspace(0.0, 0.9, 10)
    values = bergman_series(s, grid, psi_method=method)
    assert isinstance(values, list) and len(values) == len(grid)
    for rho, value in zip(grid.tolist(), values):
        alone = bergman_series(s, rho, psi_method=method)
        assert type(alone) is float
        # the grid sums at x = rho/0.9, rounded once: an error that grows
        # with the mean fiber degree, up to 2.4e-15 here
        assert value == pytest.approx(alone, rel=4e-15, abs=0.0)


def test_second_certificate_builds_no_gauss_rule():
    # the rules are memoised per (nodes, a, b): a repeat asks for the same 8
    balanced_certify(2, 2, 3)
    before = special.roots_jacobi.cache_info()
    cert = balanced_certify(2, 2, 3)
    after = special.roots_jacobi.cache_info()
    assert cert.gauss_rules == 8
    assert (after.misses, after.hits) == (before.misses, before.hits + 8)
    # the block k0 = 0: a = alpha/A - n - 1 = 2, b = k0 + d0 - 1 = 1
    xs, ws = bergman.roots_jacobi(64, 2.0, 1.0)
    assert bergman.roots_jacobi(64, 2, 1)[0] is xs
    for a in (xs, ws):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_overflowing_rule_raises_instead_of_nan(monkeypatch):
    # a rule whose weights are not finite is refused, not summed into a NaN moment
    monkeypatch.setattr(bergman, "roots_jacobi", nan_weight(bergman.roots_jacobi))
    s = balanced_setup(2, 2, 3, "ball")
    with pytest.raises(QuadratureNonConvergent, match="not finite"):
        psi_moment(s, 300, "quadrature")
    with pytest.raises(QuadratureNonConvergent, match="not finite"):
        MomentTable(s, "quadrature", 64)(300)


def test_2000_node_rule_at_degree_300_is_finite_and_exact():
    # scipy's 2000-node Gauss-Jacobi rule overflowed here; the running rescale
    # of the Christoffel sum keeps it finite
    s = balanced_setup(2, 2, 3, "ball")
    ref, _ = _closed_psi_reference(s, 300)
    for psi in (psi_moment(s, 300, "quadrature", nodes=2000),
                MomentTable(s, "quadrature", 2000)(300)):
        assert float(abs(mp.mpf(psi) - ref) / ref) <= 1e-13


def test_non_finite_moment_raises(monkeypatch):
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    monkeypatch.setattr(bergman, "_log_density_H", lambda s, u: math.nan)
    with pytest.raises(QuadratureNonConvergent):
        psi_moment(s, 0, "quadrature")


def test_quadrature_moment_table_uses_blocks(monkeypatch):
    rules = []
    roots_jacobi = bergman.roots_jacobi
    monkeypatch.setattr(bergman, "roots_jacobi",
                        lambda *args: rules.append(args) or roots_jacobi(*args))
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    table = MomentTable(s, "quadrature")
    entries = [table(k) for k in range(21)]
    assert [args[2] for args in rules] == [1]   # u^(k0+d0-1), k0 = 0
    for k, entry in enumerate(entries):
        assert entry == pytest.approx(psi_moment(s, k, "closed"), rel=1e-10)


# -- closed-form ratios ---------------------------------------------------------


def _closed_models():
    yield ball_setup(0.5, 1.0, 1, 2, 4.0)
    yield ball_setup(1.0, 1.0, 2, 2, 9.0)
    yield full_setup(linear(1.3), 1.0, 1, 1, 2.0)
    # projective branch at level 21: closed moments for k = 0..21
    yield full_setup(log_affine(-1.0, 1.5), -1.0, 2, 1, 21.0)


@pytest.mark.parametrize("s", list(_closed_models()),
                         ids=["ball-d1", "ball-d2", "linear", "projective"])
def test_closed_ratio_is_quotient_of_closed_moments(s):
    table = MomentTable(s)
    for k in range(21):
        assert table.ratio(k + 1) == pytest.approx(table(k) / table(k + 1), rel=1e-13)


def test_closed_ratios_check_the_branch_window_once_per_cache(monkeypatch):
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    model = bergman._MODELS[(s.domain, s.profile.family)]
    window, calls = bergman._closed_window, []

    def counted(setup):
        calls.append(setup)
        return window(setup)

    monkeypatch.setattr(bergman, "_closed_window", counted)
    cache = MomentTable(s)
    ratios = [cache.ratio(k) for k in range(1, 41)]
    assert len(calls) == 1
    assert ratios == [model.ratio(s, k - 1) for k in range(1, 41)]
    # a second series gets its own cache and its own check
    MomentTable(s).ratio(1)
    assert len(calls) == 2


def test_closed_ratio_outside_the_window_is_refused_on_the_first_ratio():
    cache = MomentTable(ball_setup(0.5, 1.0, 1, 2, 1.0))   # alpha <= n*A = 1.5
    for _ in range(2):
        with pytest.raises(BranchInvalid, match="alpha > n"):
            cache.ratio(1)


def test_closed_table_walks_one_ratio_per_new_degree(monkeypatch):
    s = ball_setup(0.5, 1.0, 1, 2, 4.0)
    key = (s.domain, s.profile.family)
    model = bergman._MODELS[key]
    calls = []
    monkeypatch.setitem(bergman._MODELS, key, model._replace(
        ratio=lambda setup, j: calls.append(j) or model.ratio(setup, j)))
    table = MomentTable(s)
    asked = (12, 40, 7, 40, 41)
    values = [table(k) for k in asked]
    assert calls == list(range(41))
    # each moment is bit for bit that of a table asked for it alone
    assert values == [MomentTable(s)(k) for k in asked]


def test_series_refuses_a_table_of_another_setup():
    # another level, and the same model under another base Bergman law
    s = balanced_setup(2, 1, 2, "ball")
    other_law = dataclasses.replace(s, base=s.base.with_eps(BergmanLaw(-1.0)))
    for other in (balanced_setup(2, 1, 3, "ball"), other_law):
        with pytest.raises(PreconditionFailed, match="another setup"):
            bergman_series(s, 0.5, psi=MomentTable(other))
    assert bergman_series(s, 0.5, psi=MomentTable(s)) == bergman_series(s, 0.5)
