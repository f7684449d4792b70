"""The checkers never read the closed moments they certify.

With every closed fiber moment made to raise, the quadrature certificates,
the quadrature series, the direct fiber moments and the Gram oracles must
still run to completion and agree with their closed targets.  The targets
themselves (``closed_target``) and the base's own Bergman law stay live:
they are the claims under test, not moments.  The tripwire is the fixture
``no_closed_moments`` of conftest.py; the expansion fit of test_expansion.py
runs under it too.
"""

import random

import numpy as np
import pytest

from kqlab import bergman
from kqlab.bergman import (QuantizationSetup, balanced_certify, balanced_setup,
                           bergman_series, closed_target, fiber_moment,
                           fiber_moment_direct)
from kqlab.curvature import BaseGeometry
from kqlab.oracle import (GramOracleConfig, cp1_bergman_oracle,
                          gram_offdiagonal_probe, hartogs_gram_oracle)
from kqlab.profiles import log_affine


def test_checkers_run_with_every_closed_moment_raising(no_closed_moments):
    with pytest.raises(no_closed_moments):    # the tripwire is live
        bergman.psi_moment(balanced_setup(2, 1, 3, "ball"), 1, "closed")

    # quadrature certificates of the ball and total-space product laws
    for k, r, m, part in ((2, 1, 3, "ball"), (2, 2, 3, "ball"), (1, 1, 2, "total")):
        cert = balanced_certify(k, r, m, part, psi_method="quadrature")
        assert cert.balanced and cert.max_error <= 1e-13, (part, cert.max_error)

    # the projective series by quadrature against (alpha + 1)(alpha + 2)
    s = QuantizationSetup(d0=1, domain="fullspace",
                          profile=log_affine(-1.0, 1.0),
                          base=BaseGeometry.fubini_study_cpd(1), alpha=5.0)
    values = bergman_series(s, np.linspace(0.0, 100.0, 6), psi_method="quadrature")
    assert max(abs(v - closed_target(s)) for v in values) <= 1e-13 * closed_target(s)

    # direct fiber moments against the quadrature route
    s = balanced_setup(2, 2, 3, "ball")
    for m in ((2, 1), (0, 3)):
        assert fiber_moment_direct(s, m) == pytest.approx(
            fiber_moment(s, m, "quadrature"), rel=1e-13)

    # both Gram oracles and the off-diagonal probe
    assert cp1_bergman_oracle(2, 3, [0.0, 0.7, 3.0]).max_abs_error <= 1e-13
    rep = hartogs_gram_oracle(GramOracleConfig(bundle_degree=2, power=3, q_cap=120),
                              balanced_setup(2, 1, 3, "ball"))
    assert rep.max_abs_error <= 1e-7
    rep = hartogs_gram_oracle(GramOracleConfig(bundle_degree=1, power=2, q_cap=40),
                              balanced_setup(1, 1, 2, "total"))
    assert rep.max_abs_error <= 1e-12
    rng = random.Random(7)
    pairs = [((rng.randrange(5), rng.randrange(4)), (rng.randrange(5), rng.randrange(4)))
             for _ in range(8)]
    entries = gram_offdiagonal_probe(GramOracleConfig(bundle_degree=2, power=2, q_cap=8),
                                     balanced_setup(2, 1, 2, "ball"), pairs)
    assert all(e.magnitude <= 1e-10 for e in entries if e.first != e.second)
