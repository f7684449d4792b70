import math
import random

import pytest

from kqlab.bergman import balanced_setup, closed_target, psi_moment
from kqlab.errors import PreconditionFailed, TruncationInsufficient
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
