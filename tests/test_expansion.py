"""Criterion 10: off the branches, the Bergman function's large-alpha expansion
reproduces the curvature engine's a1 and a2.

eps_alpha = alpha^n (1 + a1/alpha + a2/alpha^2 + O(alpha^-3)) (Tian-Yau-Zelditch,
with Lu's a1 and a2).  At each radius rho the quadrature series is summed at
fixed levels alpha, and eps/alpha^n - 1 is fitted by least squares to
sum_{j=1..5} c_j alpha^-j; c1 and c2 must be the engine's a1 and a2 at
t = log rho.  A fixed fit on fixed levels is used rather than Richardson
extrapolation on a geometric ladder: the projective model has only natural
levels, and one design matrix serves every model.  The series reads no closed
moment (the tripwire of conftest.py runs with every test here); it shares only
the profile jets with the engine, which criterion 9 checks on its own.
"""

import math
import time

import numpy as np

from kqlab.bergman import QuantizationSetup, bergman_series
from kqlab.curvature import BaseGeometry, curvature_report, polyquad_closed
from kqlab.profiles import linear, log_affine, log_ball

_LEVELS = (20.0, 30.0, 40.0, 60.0, 80.0, 120.0, 160.0)
_NEAR = (0.05, 0.1, 0.2)
# CP^1 x CP^1 with the product unit Fubini-Study metric: scalar 4, |Ric|^2 8,
# |R|^2 8, Bergman law (alpha + 1)^2; twist -1 needs natural levels
_CP1_CP1 = BaseGeometry(2, -1.0, 4.0, 8.0, 0.0, 8.0, eps=lambda a: (a + 1) ** 2)

# (name, base, domain, profile, d0, radii, levels), none of them on a branch
_MODELS = (
    ("CP1 k=1, ball, log_ball(0.5), d0=1", BaseGeometry.fubini_study_cp1(1), "ball",
     log_ball(0.5), 1, _NEAR, _LEVELS),
    ("CP1 k=1, ball, log_ball(0.5), d0=2", BaseGeometry.fubini_study_cp1(1), "ball",
     log_ball(0.5), 2, _NEAR, _LEVELS),
    ("CP1 k=3, ball, log_ball(0.3), d0=1", BaseGeometry.fubini_study_cp1(3), "ball",
     log_ball(0.3), 1, _NEAR, _LEVELS),
    ("CP1 k=2, fullspace, linear(1), d0=1", BaseGeometry.fubini_study_cp1(2), "fullspace",
     linear(1.0), 1, _NEAR, _LEVELS),
    ("CP2 twist +1, ball, log_ball(0.5), d0=1", BaseGeometry.fubini_study_cpd(2, 1.0), "ball",
     log_ball(0.5), 1, _NEAR, _LEVELS),
    ("CP1xCP1 twist -1, fullspace, log_affine(-1, 1), d0=1", _CP1_CP1, "fullspace",
     log_affine(-1.0, 1.0), 1, (0.05, 0.5, 2.0), _LEVELS[2:]),
)


def _fit(base, domain, profile, d0, radii, levels):
    """The fitted (c1, c2) at each radius, from the quadrature series at each level."""
    eps = np.array([bergman_series(QuantizationSetup(d0, domain, profile, base, alpha),
                                   list(radii), psi_method="quadrature")
                    for alpha in levels])
    alpha = np.array(levels)
    design = alpha[:, None] ** -np.arange(1.0, 6.0)
    c, *_ = np.linalg.lstsq(design, eps / alpha[:, None] ** (base.d + d0) - 1.0, rcond=None)
    return c[0], c[1]


def test_criterion_10_expansion_reproduces_the_engine(capsys, no_closed_moments):
    """The fitted c1, c2 are the engine's a1, a2 at every model and radius."""
    start = time.process_time()
    gaps = {}
    for name, base, domain, profile, d0, radii, levels in _MODELS:
        c1, c2 = _fit(base, domain, profile, d0, radii, levels)
        r = curvature_report(base, profile, d0, np.log(radii))
        gaps[name] = (float(np.max(np.abs(c1 - r.a1) / (1.0 + np.abs(r.a1)))),
                      float(np.max(np.abs(c2 - r.a2) / (1.0 + np.abs(r.a2)))))
    cpu = time.process_time() - start
    worst1, worst2 = (max(gap[i] for gap in gaps.values()) for i in (0, 1))
    ok = worst1 <= 1e-7 and worst2 <= 1e-5 and cpu <= 0.5
    with capsys.disabled():
        print(f"[acceptance] criterion 10 (expansion fit vs engine): {'PASS' if ok else 'FAIL'} "
              f"({len(_MODELS)} models, worst a1 {worst1:.2e}, a2 {worst2:.2e}, "
              f"{cpu:.2f} s CPU)")
    assert ok, (gaps, cpu)


def test_the_fit_fixes_the_sign_of_the_a2_coupling_term(no_closed_moments):
    # log_ball(1) over CP^1 (k = 1), d0 = 1, is off its required base (a1 = 1, not
    # -1), so the coupling term -(n-1)(n+2) lam lead/(2 sv) of polyquad_closed does
    # not vanish; the series decides its sign
    base, profile, rho = BaseGeometry.fubini_study_cp1(1), log_ball(1.0), 0.05
    _, (c2,) = _fit(base, "ball", profile, 1, (rho,), _LEVELS)
    r = curvature_report(base, profile, 1, math.log(rho))
    closed = polyquad_closed(base, 1, 1.0, r.x)
    d, n, lam = 1, 2, base.twist
    lead, sv = 0.5 * d * (d + 1) * lam + base.a1, 1.0 + lam * r.x
    flipped = closed.a2 + (n - 1) * (n + 2) * lam * lead / sv
    assert abs(c2 - (-1.8)) <= 1e-6
    assert abs(c2 - r.a2) <= 1e-5 * (1.0 + abs(r.a2))
    assert abs(c2 - closed.a2) <= 1e-5 * (1.0 + abs(closed.a2))
    assert abs(c2 - flipped) > 1.0
