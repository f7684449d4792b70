import math
import random
import warnings

import numpy as np
import pytest

from kqlab import oracle
from kqlab.bergman import balanced_setup, closed_target, psi_moment
from kqlab.errors import (PreconditionFailed, QuadratureNonConvergent,
                          TruncationInsufficient)
from kqlab.oracle import (Cp1OracleReport, GramOracleConfig,
                          cp1_bergman_oracle, gram_offdiagonal_probe,
                          hartogs_gram_oracle)
from kqlab.special import gamma_ratio


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


def test_cp1_norms_match_beta_closed_form():
    k, m = 3, 2
    rep = cp1_bergman_oracle(k, m, [0.5])
    for j, norm in enumerate(rep.norms):
        closed = k * math.gamma(j + 1) * gamma_ratio(m * k + 1 - j, m * k + 2)
        assert norm == pytest.approx(closed, rel=1e-12)


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


def test_hartogs_truncation_guard():
    cfg = GramOracleConfig(bundle_degree=2, power=3, q_cap=8,
                           sample_points=((0.5, 0.85),))
    with pytest.raises(TruncationInsufficient):
        hartogs_gram_oracle(cfg, balanced_setup(2, 1, 3, "ball"))


def test_hartogs_rejects_mismatched_level():
    cfg = GramOracleConfig(bundle_degree=2, power=3, q_cap=16)
    with pytest.raises(PreconditionFailed):
        hartogs_gram_oracle(cfg, balanced_setup(2, 1, 2, "ball"))


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
    """Gram norms with every row integrated, plain exp and absolute fiber powers."""
    k, m = cfg.bundle_degree, cfg.power
    s, phi, xi, F, logk = oracle._radial_weight(cfg, setup)
    P, Q = cfg.effective_p_cap, cfg.q_cap
    ls = np.log(s)
    parr = np.arange(P + 1, dtype=float)
    kexp = np.exp(logk)
    N = np.full((P + 1, Q + 1), np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for q in range(Q + 1):
            mcol = kexp @ (xi ** q)
            logcol = np.where(mcol > 0, np.log(np.where(mcol > 0, mcol, 1.0)), -np.inf)
            body = np.exp(parr[:, None] * ls[None, :] + (logcol - q * phi)[None, :])
            cut = min(k * (m + q), P)
            N[: cut + 1, q] = body.sum(axis=1)[: cut + 1]
    return N


def _integrable(cfg):
    P, Q = cfg.effective_p_cap, cfg.q_cap
    p, q = np.ogrid[: P + 1, : Q + 1]
    return p <= cfg.bundle_degree * (cfg.power + q)


@pytest.mark.parametrize("k, m, Q", [(k, m, Q) for k in (2, 3) for m in (1, 2)
                                     for Q in (60, 120)])
def test_ball_norms_bit_identical_to_unpruned_loop(k, m, Q):
    cfg = GramOracleConfig(bundle_degree=k, power=m, q_cap=Q)
    setup = balanced_setup(k, 1, m, "ball")
    N = oracle._norm_matrix(cfg, setup)
    assert np.array_equal(N, _reference_norms(cfg, setup))
    assert np.all(N[~_integrable(cfg)] == np.inf)
    assert np.isfinite(N[_integrable(cfg)]).all()


@pytest.mark.parametrize("m, Q", [(1, 60), (2, 100), (3, 80), (4, 100)])
def test_total_space_norms_match_unpruned_loop(m, Q):
    cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=Q)
    setup = balanced_setup(1, 1, m, "total")
    N, ref = oracle._norm_matrix(cfg, setup), _reference_norms(cfg, setup)
    live = _integrable(cfg)
    assert np.all(N[~live] == np.inf)
    assert np.all(N[live] > 0) and np.isfinite(N[live]).all()
    assert np.max(np.abs(N[live] - ref[live]) / ref[live]) <= 1e-13


def test_underflowing_norms_stay_zero_and_are_refused(monkeypatch):
    # a kernel weight below the smallest double: every norm underflows to 0,
    # which must reach the oracle's finiteness check rather than a floor value
    radial_weight = oracle._radial_weight

    def underflowing(cfg, setup):
        s, phi, xi, F, logk = radial_weight(cfg, setup)
        return s, phi, xi, F, logk - 1500.0

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
        s, phi, xi, F, logk = radial_weight(cfg, setup)
        return s, phi, xi, F, logk - 1500.0

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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_total_space_oracle_reaches_q120(m):
    cfg = GramOracleConfig(bundle_degree=1, power=m, q_cap=120)
    rep = hartogs_gram_oracle(cfg, balanced_setup(1, 1, m, "total"))
    assert rep.target == pytest.approx(m * m, rel=1e-14)
    assert rep.max_abs_error <= 1e-12 * rep.target


@pytest.mark.parametrize("rule, nodes", [(oracle._legendre, 200), (oracle._legendre, 32),
                                         (oracle._laguerre, 200)],
                         ids=["legendre-200", "legendre-32", "laguerre-200"])
def test_gauss_rules_are_built_once_and_read_only(rule, nodes):
    xs, ws = rule(nodes)
    assert rule(nodes)[0] is xs and rule(nodes)[1] is ws
    for a in (xs, ws):
        with pytest.raises(ValueError):
            a[0] = 0.0
