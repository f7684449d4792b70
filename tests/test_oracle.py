import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kqlab import oracle, special
from kqlab.bergman import QuantizationSetup, balanced_setup, closed_target, psi_moment
from kqlab.curvature import BaseGeometry
from kqlab.errors import (KQLabError, OutOfDomain, PreconditionFailed,
                          QuadratureNonConvergent, TruncationInsufficient)
from kqlab.oracle import (Cp1OracleReport, GramOracleConfig,
                          cp1_bergman_oracle, gram_offdiagonal_probe,
                          hartogs_gram_oracle)
from kqlab.profiles import log_affine, log_ball, profile_jet

GRID = [0.0, 0.25, 0.7, 1.0, 1.8, 3.0]


def test_cp1_two_sections():
    rep = cp1_bergman_oracle(1, 1, GRID)
    assert isinstance(rep, Cp1OracleReport)
    assert rep.target == pytest.approx(2.0)
    assert rep.max_abs_error <= 1e-12


def test_cp1_spot_values():
    rep = cp1_bergman_oracle(2, 3, GRID)
    assert rep.target == pytest.approx(3.5)
    assert rep.max_abs_error <= 1e-10

    rep = cp1_bergman_oracle(3, 2, GRID)
    assert rep.target == pytest.approx(2.0 + 1.0 / 3.0)
    assert rep.max_abs_error <= 1e-10


def test_cp1_at_huge_modulus_forms_no_power_of_it():
    # (1+s)^(-mk) s^j leaves the float range as separate factors at s = 1e200
    rep = cp1_bergman_oracle(2, 3, [1e200, 1e308])
    assert rep.max_abs_error <= 1e-14
    assert all(abs(v - 3.5) <= 1e-14 for v in rep.values)


def test_cp1_norms_match_beta_closed_form():
    k, m = 3, 2
    rep = cp1_bergman_oracle(k, m, [0.5])
    for j, norm in enumerate(rep.norms):
        # k B(j+1, mk+1-j) = k j! (mk-j)! / (mk+1)!, an exact integer ratio
        closed = Fraction(k * math.factorial(j) * math.factorial(m * k - j),
                          math.factorial(m * k + 1))
        assert norm == pytest.approx(float(closed), rel=1e-14)


def test_cp1_sweep_uniform_accuracy():
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4, 5):
            rep = cp1_bergman_oracle(k, m, GRID)
            assert rep.max_abs_error <= 1e-6


def test_hartogs_ball_matches_product_law():
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=64)
    rep = hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))
    assert rep.target == pytest.approx(21.0 / 8.0, rel=1e-14)
    assert rep.max_abs_error <= 1e-3
    assert rep.tail_fraction <= 1e-3


def test_hartogs_total_space_matches_power_law():
    cfg = GramOracleConfig(bundle_degree=1, power=2, q_cap=40)
    rep = hartogs_gram_oracle(cfg, balanced_setup(1, 1, 2, "total"))
    assert rep.target == pytest.approx(4.0)
    assert rep.max_abs_error <= 1e-6


def test_hartogs_zero_radius_consistent_with_moment_route():
    # at rho = 0 the kernel collapses to eps_base(m) / psi(m, 0)
    setup = balanced_setup(2, 1, 2, "ball")
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=48,
                           sample_points=((0.0, 0.0), (1.3, 0.0)))
    rep = hartogs_gram_oracle(cfg, setup)
    expected = setup.base.eps(2.0) / psi_moment(setup, 0)
    for v in rep.values:
        assert v == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(closed_target(setup), rel=1e-13)


@pytest.mark.parametrize("part", ["ball", "total"])
@pytest.mark.parametrize("point", [(math.nan, 0.3), (0.5, math.nan), (math.inf, 0.3),
                                   (0.5, math.inf)])
def test_hartogs_refuses_a_non_finite_sample_before_any_work(monkeypatch, part, point):
    # a nan or inf coordinate reached the kernel sum, warned, and came out as
    # non-convergence; a nan rho was refused in the profile's words
    monkeypatch.setattr(oracle, "_norm_matrix", lambda cfg, setup: pytest.fail("norms formed"))
    k = 2 if part == "ball" else 1
    cfg = GramOracleConfig(bundle_degree=k, power=2, sample_points=((0.5, 0.3), point))
    with pytest.raises(OutOfDomain,
                       match=rf"^sample point \({point[0]}, {point[1]}\) outside the model$"):
        hartogs_gram_oracle(cfg, balanced_setup(k, 1, 2, part))


def test_hartogs_truncation_guard():
    cfg = GramOracleConfig(bundle_degree=2, power=3, q_cap=8,
                           sample_points=((0.5, 0.85),))
    with pytest.raises(TruncationInsufficient):
        hartogs_gram_oracle(cfg, balanced_setup(2, 1, 3, "ball"))


def test_hartogs_rejects_mismatched_level():
    cfg = GramOracleConfig(bundle_degree=2, power=3, q_cap=16)
    with pytest.raises(PreconditionFailed):
        hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))


@pytest.mark.parametrize("degree, setup_k", [(3, 2), (2, 3)], ids=["3-on-2", "2-on-3"])
def test_hartogs_rejects_mismatched_bundle_degree(degree, setup_k):
    # the chart weight k*log(1+|z|^2) of another degree gave values up to 0.18
    # off the setup's target, with no error
    cfg = GramOracleConfig(bundle_degree=degree, power=2, q_cap=60)
    with pytest.raises(PreconditionFailed, match="bundle degree"):
        hartogs_gram_oracle(cfg, balanced_setup(setup_k, 1, 2, "ball"))


def test_hartogs_refuses_a_full_space_profile_it_does_not_integrate():
    # the fiber rule's Laguerre envelope e^(-m c rho) is the linear profile's; a
    # log-affine density decays polynomially, and its values came out 4.69-5.45
    # with a tail of 4.9e-99 and no target
    s = QuantizationSetup(d0=1, domain="fullspace",
                          profile=log_affine(-0.5, 1.0),
                          base=BaseGeometry.fubini_study_cp1(2), alpha=2.0)
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=40)
    for check in (lambda: hartogs_gram_oracle(cfg, s),
                  lambda: gram_offdiagonal_probe(cfg, s, [((0, 0), (1, 1))])):
        with pytest.raises(PreconditionFailed, match="linear profile"):
            check()


def test_hartogs_refuses_an_inadmissible_ball_profile_in_the_density_words():
    # log-affine with A > 0 has F' = -c/A (1 + c rho)^-1 < 0 on the whole fiber: the
    # oracle's weight reads the density's factors, and their refusal names the first node
    s = QuantizationSetup(1, "ball", log_affine(0.5, 1.0), BaseGeometry.fubini_study_cp1(2), 2.0)
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=40)
    for check, nodes in ((lambda: hartogs_gram_oracle(cfg, s), cfg.s_nodes),
                         (lambda: gram_offdiagonal_probe(cfg, s, [((0, 0), (1, 1))]),
                          oracle._PROBE_RADII)):
        first = special.legendre(nodes)[0][0]
        with pytest.raises(OutOfDomain, match=rf"^density factors not positive at u={first}$"):
            check()


def test_gram_offdiagonal_entries_vanish():
    rng = random.Random(20240811)
    pairs = []
    while len(pairs) < 10:
        p1, q1 = rng.randrange(5), rng.randrange(4)
        p2, q2 = rng.randrange(5), rng.randrange(4)
        if (p1, q1) != (p2, q2):
            pairs.append(((p1, q1), (p2, q2)))
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=8)
    entries = gram_offdiagonal_probe(cfg, balanced_setup(2, 1, 2, "ball"), pairs)
    for e in entries:
        assert e.magnitude <= 1e-10


@pytest.mark.parametrize("pair", [((0, 0), (0, 0)), ((3, 2), (3, 2))])
def test_gram_diagonal_entries_have_unit_magnitude(pair):
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=8)
    (entry,) = gram_offdiagonal_probe(cfg, balanced_setup(2, 1, 2, "ball"), [pair])
    assert entry.magnitude == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pair", [
    ((1, 0), (25, 0)), ((0, 1), (0, 25)), ((24, 0), (0, 0)), ((2, 30), (2, 3)),
], ids=["z-gap-24", "w-gap-24", "z-gap-24-exact", "w-gap-27"])
def test_gram_probe_refuses_gaps_its_angular_grid_aliases(pair):
    # e^(i n theta) sums to 1, not 0, over 24 uniform angles when 24 divides n
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=8)
    with pytest.raises(PreconditionFailed, match="24"):
        gram_offdiagonal_probe(cfg, balanced_setup(2, 1, 2, "ball"), [((0, 0), (1, 1)), pair])


def test_hartogs_off_the_required_base_has_no_target():
    # log-ball A = 1/2 over the degree-2 sphere: the base's a1 = 1/2 is not the
    # required d0*twist - n*A = 0, so there is no closed value to meet
    s = QuantizationSetup(1, "ball", log_ball(0.5), BaseGeometry.fubini_study_cp1(2), 2.0)
    cfg = GramOracleConfig(2, 2, q_cap=40, sample_points=((0.0, 0.0), (0.5, 0.3)))
    rep = hartogs_gram_oracle(cfg, s)
    assert rep.target is None and rep.max_abs_error is None
    assert all(math.isfinite(v) and v > 0 for v in rep.values)


def test_hartogs_target_errors_other_than_branch_propagate(monkeypatch):
    import kqlab.bergman

    def broken_target(setup):
        raise RuntimeError("bug in closed_target")

    monkeypatch.setattr(kqlab.bergman, "closed_target", broken_target)
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=20)
    with pytest.raises(RuntimeError, match="bug in closed_target"):
        hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))


# -- Gram norms: integrable rows only, no subnormal exponentials ---------------


def _reference_norms(cfg, setup):
    """Gram norms with every row integrated, plain exp and absolute fiber powers,
    the weight of _radial_weight taken as exact."""
    k, m = cfg.bundle_degree, cfg.power
    s, phi, xi, F, weight = oracle._radial_weight(cfg, setup)
    P, Q = cfg.effective_p_cap, cfg.q_cap
    ls = np.log(s)
    parr = np.arange(P + 1, dtype=float)
    N = np.full((P + 1, Q + 1), np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for q in range(Q + 1):
            mcol = weight @ (xi ** q)
            logcol = np.where(mcol > 0, np.log(np.where(mcol > 0, mcol, 1.0)), -np.inf)
            body = np.exp(parr[:, None] * ls[None, :] + (logcol - (q + m) * phi)[None, :])
            cut = min(k * (m + q), P)
            N[: cut + 1, q] = body.sum(axis=1)[: cut + 1]
    return N


def _integrable(cfg):
    P, Q = cfg.effective_p_cap, cfg.q_cap
    p, q = np.ogrid[: P + 1, : Q + 1]
    return p <= cfg.bundle_degree * (cfg.power + q)


def _mpmath_norms(cfg, setup, qs):
    """The same quadrature sum in 40 digits, for the fiber degrees qs: the float
    weights, fiber nodes and sigma taken as exact, with s = sigma/(1-sigma), and
    the weight's missing factor e^(-m*phi) = (1-sigma)^(k*m)."""
    k = cfg.bundle_degree
    _, _, xi, _, weight = oracle._radial_weight(cfg, setup)
    sig = special.legendre(cfg.s_nodes)[0]
    out = {}
    with mpmath.workdps(40):
        weight = [[mpmath.mpf(x) for x in row] for row in weight.tolist()]
        u = [1 - mpmath.mpf(x) for x in sig.tolist()]
        s = [(1 - v) / v for v in u]
        xi = [mpmath.mpf(x) for x in xi.tolist()]
        for q in qs:
            fiber = [mpmath.fsum(w * x ** q for w, x in zip(row, xi)) for row in weight]
            terms = [f * v ** (k * (q + cfg.power)) for f, v in zip(fiber, u)]
            col = []
            for _ in range(k * (cfg.power + q) + 1):
                col.append(float(mpmath.fsum(terms)))
                terms = [t * x for t, x in zip(terms, s)]
            out[q] = col
    return out


@pytest.mark.parametrize("k, m, Q", [(k, m, Q) for k in (2, 3) for m in (1, 2)
                                     for Q in (60, 120)])
def test_ball_norms_match_a_40_digit_quadrature_sum(k, m, Q):
    cfg = GramOracleConfig(bundle_degree=k, power=m, q_cap=Q, s_nodes=64)
    setup = balanced_setup(k, 1, m, "ball")
    N = oracle._norm_matrix(cfg, setup)
    assert np.all(N[~_integrable(cfg)] == np.inf)
    assert np.isfinite(N[_integrable(cfg)]).all()
    for q, col in _mpmath_norms(cfg, setup, (0, Q // 2, Q)).items():
        assert np.max(np.abs(N[: len(col), q] - col) / col) <= 2e-14


@pytest.mark.parametrize("m, Q", [(1, 60), (2, 100), (3, 80), (4, 100)])
def test_total_space_norms_match_unpruned_loop(m, Q):
    cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=Q)
    setup = balanced_setup(1, 1, m, "total")
    N, ref = oracle._norm_matrix(cfg, setup), _reference_norms(cfg, setup)
    live = _integrable(cfg)
    assert np.all(N[~live] == np.inf)
    assert np.all(N[live] > 0) and np.isfinite(N[live]).all()
    assert np.max(np.abs(N[live] - ref[live]) / ref[live]) <= 1e-13


@pytest.mark.parametrize("m, Q", [(1, 60), (2, 100), (4, 100)])
def test_total_space_norms_match_a_40_digit_quadrature_sum(m, Q):
    cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=Q, s_nodes=64)
    setup = balanced_setup(1, 1, m, "total")
    N = oracle._norm_matrix(cfg, setup)
    assert np.all(N[~_integrable(cfg)] == np.inf)
    assert np.isfinite(N[_integrable(cfg)]).all()
    for q, col in _mpmath_norms(cfg, setup, (0, Q // 2, Q)).items():
        assert np.max(np.abs(N[: len(col), q] - col) / col) <= 2e-14


_SUBNORMAL_PRONE = [("total", 1, m, 120) for m in (1, 2, 3, 4)] + [("ball", 3, 2, 120)]


def _subnormals(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(float).tiny)))


@pytest.mark.parametrize("part, k, m, Q", _SUBNORMAL_PRONE)
def test_no_subnormal_operand_reaches_a_node_sum(monkeypatch, part, k, m, Q):
    # a subnormal operand slows a product several times over, and adds less
    # than a rounding to a norm that is not itself refused as subnormal
    node_sum, counts = oracle._node_sum, []
    monkeypatch.setattr(oracle, "_node_sum", lambda a, b: counts.append(
        (_subnormals(a), _subnormals(b))) or node_sum(a, b))
    hartogs_gram_oracle(GramOracleConfig(bundle_degree=k, power=m, q_cap=Q),
                        balanced_setup(k, 1, m, part))
    assert counts and set(counts) == {(0, 0)}


@pytest.mark.parametrize("part, k, m, Q", _SUBNORMAL_PRONE)
def test_fiber_sums_are_the_plain_product_bit_for_bit(part, k, m, Q):
    # zeroing the subnormal cells of the weight and of the fiber powers changes
    # no fiber sum; the total-space weight has such cells at 200 nodes
    cfg = GramOracleConfig(bundle_degree=k, power=m, q_cap=Q)
    setup = balanced_setup(k, 1, m, part)
    mc, exponent = oracle._fiber_sums(cfg, setup)
    _, _, xi, _, weight = oracle._radial_weight(cfg, setup)
    assert part == "ball" or _subnormals(weight) > 0
    e = max(0, math.frexp(float(xi.max()))[1])
    qarr = np.arange(Q + 1)
    plain = weight @ np.ldexp(xi, -e)[:, None] ** qarr
    assert np.array_equal(np.ldexp(plain, e * qarr - exponent), mc)


def test_a_one_node_rule_leaves_the_half_below_one_half_empty():
    # the one Legendre node is sigma = 1/2: the empty half sums to zeros, and
    # the oracle refuses so coarse a rule by a typed error, as it does two nodes
    for nodes in (1, 2):
        with pytest.raises(KQLabError):
            hartogs_gram_oracle(GramOracleConfig(bundle_degree=2, power=2, q_cap=60,
                                                 s_nodes=nodes), balanced_setup(2, 1, 2, "ball"))


def _mpmath_weight(cfg, setup, cells):
    """The weight of _radial_weight in 40 digits on the cells (i, j): the float
    Gauss nodes and rule weights taken as exact, then the Hessian determinant,
    e^(-m*F - phi), the Jacobian of s = sigma/(1-sigma) and the rule weights."""
    k, m = cfg.bundle_degree, cfg.power
    sig, wsig = special.legendre(cfg.s_nodes)
    ball = setup.domain == "ball"
    nodes, weights = (special.legendre if ball else special.laguerre)(cfg.s_nodes)
    out = []
    with mpmath.workdps(40):
        for i, j in cells:
            u = 1 - mpmath.mpf(float(sig[i]))
            s = (1 - u) / u
            phi, phi_p, phi_pp = k * mpmath.log(1 + s), k / (1 + s), -k / (1 + s) ** 2
            if ball:   # log-ball, F = -log(1 - xi)/A
                xi, fiber = mpmath.mpf(float(nodes[j])), mpmath.mpf(float(weights[j]))
                A = setup.profile.A
                F, Fp, Fpp = -mpmath.log(1 - xi) / A, 1 / (A * (1 - xi)), 1 / (A * (1 - xi) ** 2)
            else:      # linear, F = c*xi, on the Laguerre rule of the variable m*c*xi
                x, c = mpmath.mpf(float(nodes[j])), setup.profile.c
                xi, fiber = x / (m * c), mpmath.mpf(float(weights[j])) * mpmath.exp(x) / (m * c)
                F, Fp, Fpp = c * xi, mpmath.mpf(c), mpmath.mpf(0)
            radial, one_shift = Fp + xi * Fpp, 1 + xi * Fp
            Z = phi_p * one_shift + s * (phi_pp * one_shift + phi_p ** 2 * xi * radial)
            W, X = mpmath.exp(phi) * radial, s * mpmath.exp(phi) * phi_p ** 2 * xi * radial ** 2
            out.append((Z * W - X) * mpmath.exp(-m * F - phi) * float(wsig[i]) / u ** 2 * fiber)
    return out


@pytest.mark.parametrize("part, k, m, bound", [("ball", 3, 4, 2e-15), ("ball", 2, 2, 2e-15),
                                               ("total", 1, 4, 1e-15)],
                         ids=["ball-3-4", "ball-2-2", "total-1-4"])
def test_weight_matches_a_40_digit_referee(part, k, m, bound):
    # every 13th node of each axis and the last; the weight carries no e^(-m*phi)
    cfg = GramOracleConfig(bundle_degree=k, power=m)
    setup = balanced_setup(k, 1, m, part)
    weight = oracle._radial_weight(cfg, setup)[4]
    axis = [*range(0, cfg.s_nodes, 13), cfg.s_nodes - 1]
    cells = [(i, j) for i in axis for j in axis]
    errors = []
    for (i, j), exact in zip(cells, _mpmath_weight(cfg, setup, cells)):
        if exact == 0:     # a Laguerre rule weight that is 0 as a float
            assert weight[i, j] == 0.0
        else:
            errors.append(float(abs(weight[i, j] - exact) / exact))
    assert np.median(errors) <= bound


@pytest.mark.parametrize("part, k, m, Q", [("ball", 3, 2, 120), ("total", 1, 4, 100)])
def test_sample_values_are_the_plain_kernel_sum(monkeypatch, part, k, m, Q):
    # the kernel assembled in reused buffers sums the same floats, bit for bit,
    # as exp(logterm)/N over the finite norms with the oracle's own N
    norm_matrix, norms = oracle._norm_matrix, []
    monkeypatch.setattr(oracle, "_norm_matrix",
                        lambda cfg, setup: norms.append(norm_matrix(cfg, setup)) or norms[-1])
    samples = ((0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 0.7), (0.0, 0.4), (1.7, 0.0),
               (3.0, 0.65))
    cfg = GramOracleConfig(bundle_degree=k, power=m, q_cap=Q, sample_points=samples)
    setup = balanced_setup(k, 1, m, part)
    rep = hartogs_gram_oracle(cfg, setup)
    (N,) = norms
    parr, qarr = np.arange(cfg.effective_p_cap + 1.0), np.arange(Q + 1.0)
    for (s0, rho0), value in zip(samples, rep.values):
        phi0 = k * math.log1p(s0)
        F0 = profile_jet(setup.profile, rho0, 2, "rho").value
        lp = parr * math.log(s0) if s0 > 0 else np.where(parr == 0, 0.0, -np.inf)
        lq = qarr * (math.log(rho0) - phi0) if rho0 > 0 else np.where(qarr == 0, 0.0, -np.inf)
        logterm = lp[:, None] + lq[None, :] - m * (phi0 + F0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(np.isfinite(N), np.exp(logterm) / N, 0.0)
        assert value == float(terms.sum(axis=0).sum())


def test_underflowing_norms_stay_zero_and_are_refused(monkeypatch):
    # a kernel weight below the smallest double: every norm underflows to 0,
    # which must reach the oracle's finiteness check rather than a floor value
    radial_weight = oracle._radial_weight

    def underflowing(cfg, setup):
        s, phi, xi, F, weight = radial_weight(cfg, setup)
        return s, phi, xi, F, weight * 0.0

    monkeypatch.setattr(oracle, "_radial_weight", underflowing)
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=20)
    setup = balanced_setup(2, 1, 2, "ball")
    N = oracle._norm_matrix(cfg, setup)
    assert np.all(N[_integrable(cfg)] == 0.0)
    with pytest.raises(QuadratureNonConvergent):
        hartogs_gram_oracle(cfg, setup)


def test_underflowing_norms_are_refused_before_any_warning(monkeypatch):
    # the sample value is checked before the tail ratio, which would divide
    # inf by inf and warn on the way to the refusal
    radial_weight = oracle._radial_weight

    def underflowing(cfg, setup):
        s, phi, xi, F, weight = radial_weight(cfg, setup)
        return s, phi, xi, F, weight * 0.0

    monkeypatch.setattr(oracle, "_radial_weight", underflowing)
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureNonConvergent, match="not finite"):
            hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))


def test_basis_size_counts_the_integrable_monomials():
    cfg = GramOracleConfig(bundle_degree=2, power=2, q_cap=60)
    rep = hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))
    P = cfg.effective_p_cap
    assert rep.basis_size == sum(min(2 * (2 + q), P) + 1 for q in range(61)) == 3965


@pytest.mark.parametrize("part", ["ball", "total"])
def test_norm_rows_end_at_the_last_integrable_exponent(part):
    # P = k(m + Q): the top row is integrable at q = Q, so no row is all inf
    k = 2 if part == "ball" else 1
    cfg = GramOracleConfig(bundle_degree=k, power=2, q_cap=20)
    N = oracle._norm_matrix(cfg, balanced_setup(k, 1, 2, part))
    assert N.shape == (k * (2 + 20) + 1, 21)
    assert np.isfinite(N[-1, -1]) and N[-1, -1] > 0


@pytest.mark.parametrize("k, m", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_ball_oracle_reaches_the_product_law_at_q160(k, m):
    # the benchmark's ladder stops at m = 2; m = 3, 4 need Q = 160 for 1e-9
    rep = hartogs_gram_oracle(GramOracleConfig(bundle_degree=k, power=m, q_cap=160),
                              balanced_setup(k, 1, m, "ball"))
    A = (k - 1) / (2 * k)
    law = math.prod(m - j * A for j in (1, 2))
    assert rep.target == pytest.approx(law, rel=1e-14)
    assert max(abs(v - law) for v in rep.values) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_total_space_oracle_reaches_q120(m):
    cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=120)
    rep = hartogs_gram_oracle(cfg, balanced_setup(1, 1, m, "total"))
    assert rep.target == pytest.approx(m * m, rel=1e-14)
    assert rep.max_abs_error <= 1e-12 * rep.target


@pytest.mark.parametrize("rule, nodes", [(special.legendre, 200), (special.legendre, 32),
                                         (special.laguerre, 200), (special.legendre, 16)],
                         ids=["legendre-200", "legendre-32", "laguerre-200", "legendre-16"])
def test_gauss_rules_are_built_once_and_read_only(rule, nodes):
    xs, ws = rule(nodes)
    assert rule(nodes)[0] is xs and rule(nodes)[1] is ws
    for a in (xs, ws):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_hartogs_report_is_the_same_under_one_and_two_blas_threads():
    # 400 nodes: the node axes of the products are longer than one BLAS chunk
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "kqlab.cli", "oracle-hartogs", "--k", "2", "--m", "2",
            "--Q", "60", "--quad-nodes", "400"]
    reports = [subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(root / "src"),
                                             OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, check=True).stdout
               for threads in ("1", "2")]
    assert reports[0] == reports[1]
