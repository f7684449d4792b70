"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every tolerance is fixed here; nothing is deferred to later calibration.
"""

import itertools
import math
import random

import numpy as np
import pytest

from kqlab.bergman import (QuantizationSetup, balanced_certify,
                           generating_coefficients, generating_identity_check,
                           psi_moment)
from kqlab.curvature import (BaseGeometry, branch_coefficients, classify_check,
                             curvature_report, polyquad_closed,
                             required_base_coefficients)
from kqlab.oracle import GramOracleConfig, cp1_bergman_oracle, hartogs_gram_oracle
from kqlab.profiles import linear, log_affine, log_ball, profile_jet, t_from_x
from kqlab.bergman import balanced_setup

from fd_oracle import fd_derivative, mp_profile


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _profiles_for(A):
    yield log_ball(A)
    yield log_affine(-A, 1.0)


def _x_grid(p, lam, count=32):
    cap = 3.0
    if lam < 0:
        cap = min(cap, 0.9 / abs(lam))
    if p.family == "logaffine":
        cap = min(cap, 0.9 / abs(p.A))
    return [cap * (j + 1) / (count + 1) for j in range(count)]


def test_criterion_1_engine_vs_closed_forms(capsys):
    """Quadratic-momentum families: engine coefficients vs closed forms."""
    worst = 0.0
    checked = 0
    for d, d0 in itertools.product((1, 2), (1, 2, 3)):
        for lam in (0.5, 1.0, 2.0, -1.0):
            base = BaseGeometry.from_coefficients(d, lam, a1=0.45, a2=-0.2)
            profs = [linear(1.0)]
            for A in (1.0 / 3.0, 0.5, 1.0):
                profs.extend(_profiles_for(A))
            for p in profs:
                A_eff = p.A if p.family != "linear" else 0.0
                for x in _x_grid(p, lam):
                    r = curvature_report(base, p, d0, t_from_x(p, x))
                    cf = polyquad_closed(base, d0, A_eff, r.x)
                    gap = abs(2 * r.a1 - cf.two_a1_general) / (1 + abs(cf.two_a1_general))
                    worst = max(worst, gap)
                    checked += 1
                    if abs(A_eff - lam) < 1e-14:
                        gap2 = abs(r.a2 - cf.a2) / (1 + abs(cf.a2))
                        worst = max(worst, gap2)
    ok = worst <= 1e-13
    _verdict(capsys, "criterion 1 (engine vs closed coefficients)", ok,
             f"{checked} points, worst relative gap {worst:.2e}")


def test_criterion_2_classification_branch(capsys):
    """Ball-branch tuples are constant at the predicted values; perturbed bases are not."""
    worst_dev = 0.0
    worst_val = 0.0
    min_neg = math.inf
    for A in (1.0 / 3.0, 0.5, 1.0):
        for lam in (1.0, 2.0):
            for d0 in (1, 2, 3):
                n = 1 + d0
                p = log_ball(A)
                a1b, a2b = required_base_coefficients(p, 1, d0, lam, "ball")
                grid = [t_from_x(p, x) for x in _x_grid(p, lam, count=16)]
                base = BaseGeometry.from_coefficients(1, lam, a1=a1b, a2=a2b)
                v = classify_check(base, p, d0, "ball", grid)
                a1_exp, a2_exp = branch_coefficients(n, A)
                worst_dev = max(worst_dev, v.max_deviation)
                worst_val = max(worst_val,
                                abs(v.a1_value - a1_exp) / (1 + abs(a1_exp)),
                                abs(v.a2_value - a2_exp) / (1 + abs(a2_exp)))
                assert v.constant and v.matched_branch == "2.10"
                perturbed = BaseGeometry.from_coefficients(1, lam, a1=a1b + 0.1,
                                                           a2=a2b)
                vneg = classify_check(perturbed, p, d0, "ball", grid)
                assert not vneg.constant
                min_neg = min(min_neg, vneg.max_deviation)
    ok = worst_dev <= 1e-8 and worst_val <= 1e-9 and min_neg > 1e-3
    _verdict(capsys, "criterion 2 (classification constancy + negative control)",
             ok, f"constancy {worst_dev:.2e}, values {worst_val:.2e}, "
                 f"perturbed deviation {min_neg:.2e}")


def test_criterion_3_rescaling_covariance(capsys):
    """All four invariants transform covariantly under unit-twist rescaling."""
    rng = random.Random(1721)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for p in (log_ball(0.8), linear(1.3), log_affine(-0.6, 1.0)):
            base = BaseGeometry.from_coefficients(2, lam, a1=-1.1, a2=0.6)
            scaled_base = base.unit_twist_rescaled()
            scaled_p = p.scaled(lam)
            for _ in range(12):
                x = 10 ** rng.uniform(-2, math.log10(2.5))
                if p.family == "logaffine":
                    x = min(x, 0.9 / abs(p.A))
                t = t_from_x(p, x)
                r = curvature_report(base, p, 2, t)
                ru = curvature_report(scaled_base, scaled_p, 2, t)
                for got, ref, power in ((r.scalar, ru.scalar, 1),
                                        (r.ric2, ru.ric2, 2),
                                        (r.lapk, ru.lapk, 2),
                                        (r.riem2, ru.riem2, 2)):
                    worst = max(worst, abs(got - lam ** power * ref)
                                / (1 + abs(got)))
    ok = worst <= 1e-10
    _verdict(capsys, "criterion 3 (rescaling covariance)", ok,
             f"worst relative gap {worst:.2e}")


def _moment_sweep():
    def ball(A, lam, d, d0, alpha):
        base = BaseGeometry.from_coefficients(d, lam, a1=0.0, a2=0.0)
        return QuantizationSetup(d0=d0, domain="ball",
                                 profile=log_ball(A), base=base, alpha=alpha)

    def full(profile, lam, d, d0, alpha):
        base = BaseGeometry.from_coefficients(d, lam, a1=0.0, a2=0.0)
        return QuantizationSetup(d0=d0, domain="fullspace",
                                 profile=profile, base=base, alpha=alpha)

    for d0 in (1, 2, 3):
        for off in (0.4, 1.7, 6.0):
            yield ball(0.5, 1.0, 1, d0, 0.5 * (1 + d0) + off), 12
            yield ball(1.0, 1.0, 2, d0, (2 + d0) + off), 12
        for alpha in (0.8, 2.5, 6.0):
            yield full(linear(1.0), 1.0, 1, d0, alpha), 12
        for alpha in (5.0, 9.0, 12.0):
            yield full(log_affine(-1.0, 1.0), -1.0, 2, d0, alpha), min(12, int(alpha))


def test_criterion_4_moments_quadrature_vs_closed(capsys):
    """Fiber moments agree between quadrature and Gamma closed forms."""
    worst = 0.0
    checked = 0
    for s, kmax in _moment_sweep():
        for k in range(kmax + 1):
            closed = psi_moment(s, k, "closed")
            quad = psi_moment(s, k, "quadrature")
            worst = max(worst, abs(quad - closed) / closed)
            checked += 1
    spots = []
    base1 = BaseGeometry.from_coefficients(1, 1.0, a1=0.0, a2=0.0)
    s = QuantizationSetup(d0=2, domain="ball",
                          profile=log_ball(0.5), base=base1, alpha=4.0)
    spots.append((psi_moment(s, 0, "closed"), 6.0 / 35.0))
    spots.append((psi_moment(s, 0, "quadrature"), 6.0 / 35.0))
    s = QuantizationSetup(d0=1, domain="fullspace",
                          profile=linear(1.0), base=base1, alpha=2.0)
    spots.append((psi_moment(s, 0, "closed"), 0.75))
    base2 = BaseGeometry.from_coefficients(2, -1.0, a1=0.0, a2=0.0)
    s = QuantizationSetup(d0=1, domain="fullspace",
                          profile=log_affine(-1.0, 1.0), base=base2, alpha=2.0)
    spots.append((psi_moment(s, 1, "closed"), 0.05))
    spot_gap = max(abs(a - b) / b for a, b in spots)
    ok = worst <= 1e-10 and spot_gap <= 1e-10
    _verdict(capsys, "criterion 4 (moment quadrature vs closed forms)", ok,
             f"{checked} moments, worst {worst:.2e}, spots {spot_gap:.2e}")


def test_criterion_5_balanced_products(capsys):
    """Balanced bundle metrics reproduce the exact product and power laws."""
    worst = 0.0
    values = {}
    for k, r, m in ((1, 2, 2), (1, 2, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3)):
        cert = balanced_certify(k, r, m)
        assert cert.balanced
        worst = max(worst, cert.max_spread, cert.max_error)
        values[(k, r, m)] = cert.target
    assert values[(1, 2, 2)] == pytest.approx(20.0 / 9.0, rel=1e-14)
    assert values[(2, 1, 2)] == pytest.approx(21.0 / 8.0, rel=1e-14)
    for m in (1, 2, 3):
        cert = balanced_certify(1, 1, m, part="total")
        assert cert.balanced
        assert cert.target == pytest.approx(float(m) ** 2, rel=1e-14)
        worst = max(worst, cert.max_spread, cert.max_error)
    ok = worst <= 1e-13
    _verdict(capsys, "criterion 5 (balanced product laws)", ok,
             f"worst grid/value gap {worst:.2e}")


def test_criterion_6_generating_identities(capsys):
    """Moment series resum to their closed generating functions."""
    grid = np.linspace(0.0, 0.9, 10)
    A, d0 = 1.0 / 3.0, 2
    n = 1 + d0
    base = BaseGeometry.from_coefficients(
        1, 1.0, 0.0, 0.0, eps=lambda a: a + d0 - n * A)
    s_ball = QuantizationSetup(d0=d0, domain="ball",
                               profile=log_ball(A), base=base, alpha=2.0)
    dev_ball = generating_identity_check(s_ball, grid).max_deviation

    base2 = BaseGeometry.from_coefficients(1, 1.0, 0.0, 0.0,
                                           eps=lambda a: a + 1.0)
    s_full = QuantizationSetup(d0=1, domain="fullspace",
                               profile=linear(1.0), base=base2, alpha=2.0)
    dev_full = generating_identity_check(s_full, grid).max_deviation

    alpha = 6
    base3 = BaseGeometry.fubini_study_cpd(2)
    s_proj = QuantizationSetup(d0=1, domain="fullspace",
                               profile=log_affine(-1.0, 1.0), base=base3,
                               alpha=float(alpha))
    coeffs = generating_coefficients(s_proj, alpha + 1)
    dev_binom = max(abs(c - math.comb(alpha, j)) / math.comb(alpha, j)
                    for j, c in enumerate(coeffs))
    ok = dev_ball <= 1e-13 and dev_full <= 1e-13 and dev_binom <= 1e-10
    _verdict(capsys, "criterion 6 (generating identities)", ok,
             f"ball {dev_ball:.2e}, full {dev_full:.2e}, binomial {dev_binom:.2e}")


def test_criterion_7_sphere_oracle(capsys):
    """Chart-level Gram oracle reproduces the constant m + 1/k."""
    grid = [0.0, 0.3, 0.8, 1.5, 2.5, 4.0]
    worst = 0.0
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4, 5):
            rep = cp1_bergman_oracle(k, m, grid)
            worst = max(worst, rep.max_abs_error)
    spot = cp1_bergman_oracle(2, 3, grid)
    ok = worst <= 1e-6 and abs(spot.target - 3.5) < 1e-15
    _verdict(capsys, "criterion 7 (sphere-chart oracle)", ok,
             f"worst |eps - (m + 1/k)| = {worst:.2e}")


def test_criterion_8_fibered_gram_oracle(capsys):
    """Raw Gram-matrix reconstruction matches the closed targets."""
    worst = 0.0
    worst_tail = 0.0
    samples = ((0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 0.7))
    for m in (1, 2, 3):
        cfg = GramOracleConfig(bundle_degree=2, power=m, q_cap=80,
                               sample_points=samples)
        rep = hartogs_gram_oracle(cfg, balanced_setup(2, 1, m, "ball"))
        worst = max(worst, rep.max_abs_error)
        worst_tail = max(worst_tail, rep.tail_fraction)
    for m in (1, 2):
        cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=40,
                               sample_points=samples)
        rep = hartogs_gram_oracle(cfg, balanced_setup(1, 1, m, "total"))
        worst = max(worst, rep.max_abs_error)
        worst_tail = max(worst_tail, rep.tail_fraction)
    ok = worst <= 1e-3 and worst_tail <= 1e-3
    _verdict(capsys, "criterion 8 (fibered Gram oracle)", ok,
             f"worst |eps - target| = {worst:.2e}, tail {worst_tail:.2e}")


def test_criterion_9_jet_derivatives_vs_finite_differences(capsys):
    """Profile jets match Richardson-extrapolated central differences."""
    cases = [
        ("logball", dict(A=0.5), log_ball(0.5), (-3.0, -1.2, -0.4)),
        ("logball", dict(A=1.0), log_ball(1.0), (-2.5, -0.8)),
        ("linear", dict(c=1.0), linear(1.0), (-1.5, 0.0, 0.7)),
        ("logaffine", dict(A=-1.0, c=1.0), log_affine(-1.0, 1.0), (-1.0, 0.5, 1.5)),
        ("logaffine", dict(A=-0.5, c=2.0), log_affine(-0.5, 2.0), (-0.5, 1.0)),
    ]
    worst = 0.0
    for name, params, p, points in cases:
        f = mp_profile(name, **params)
        for t in points:
            jet = profile_jet(p, t, 8, "t")
            for nd in range(1, 7):
                ref = fd_derivative(f, t, nd)
                got = jet.derivative(nd)
                worst = max(worst, abs(got - ref) / max(1e-12, abs(ref)))
    ok = worst <= 1e-6
    _verdict(capsys, "criterion 9 (jets vs finite differences)", ok,
             f"worst relative gap {worst:.2e}")
