"""Curvature invariants and expansion coefficients of radially fibered metrics.

Given a homogeneous base metric on a d-dimensional domain (constant scalar
curvature, |Ric|^2, Laplacian of scalar, |R|^2) and a radial profile F on a
d0-dimensional fiber with twist ``lam``, the potential
``phi + F(lam*phi + log|w|^2)`` defines a fibered metric.  Its four curvature
invariants, and the first two coefficients a1, a2 of the Bergman-function
expansion, are rational expressions in

    x = F'(t),  mom(x) = F''(t),  sigma = (g)'/g,  chi = d0(d0-1)/x - (g)''/g,

with g = (1 + lam*x)^d * x^(d0-1) * mom and ' denoting d/dx = (1/mom) d/dt.
All x-derivatives are taken by jet chain rule, so custom profiles are covered
by the same code path as the closed families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateJet, EmptyGrid, OutOfDomain, PreconditionFailed
from .jets import require
from .profiles import RadialProfile, _ddx, profile_jet
from .special import product_shifted

X_MIN = 1e-6  # fiber evaluation floor; the zero section is out of scope


@dataclass(frozen=True)
class BaseGeometry:
    """Curvature data of the base metric, constant for homogeneous presets.

    ``eps`` maps a level alpha to the base Bergman function value (constant
    on the base for the geometries handled here); it may be None for pure
    curvature work.
    """

    d: int
    twist: float
    scalar: float
    ric2: float
    lapk: float
    riem2: float
    eps: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.d < 1:
            raise PreconditionFailed(f"base dimension d must be >= 1, got {self.d}")
        if self.twist == 0:
            raise PreconditionFailed("twist must be nonzero")

    @property
    def a1(self) -> float:
        return 0.5 * self.scalar

    @property
    def a2(self) -> float:
        return (self.lapk / 3.0 + self.riem2 / 24.0
                - self.ric2 / 6.0 + self.scalar ** 2 / 8.0)

    def with_eps(self, eps: Callable[[float], float]) -> "BaseGeometry":
        return replace(self, eps=eps)

    def with_twist(self, twist: float) -> "BaseGeometry":
        return replace(self, twist=twist)

    def unit_twist_rescaled(self) -> "BaseGeometry":
        """The same geometry measured against ``twist * metric`` (twist > 0).

        Scalar curvature scales by 1/twist, the quadratic invariants by
        1/twist^2; used to cross-check the rescaling covariance of the engine.
        """
        lam = self.twist
        if lam <= 0:
            raise PreconditionFailed("rescaling to unit twist needs twist > 0")
        return BaseGeometry(self.d, 1.0, self.scalar / lam, self.ric2 / lam ** 2,
                            self.lapk / lam ** 2, self.riem2 / lam ** 2)

    # -- presets -----------------------------------------------------------

    @staticmethod
    def fubini_study_cp1(k: int, twist: float = 1.0) -> "BaseGeometry":
        """Riemann sphere with the degree-k Fubini-Study potential k*log(1+|z|^2).

        Scalar curvature 2/k; the base Bergman function is alpha + 1/k.
        """
        if k < 1:
            raise PreconditionFailed("bundle degree k must be >= 1")
        s = 2.0 / k
        return BaseGeometry(1, twist, s, s * s, 0.0, s * s,
                            eps=lambda alpha: alpha + 1.0 / k)

    @staticmethod
    def fubini_study_cpd(d: int, twist: float = -1.0) -> "BaseGeometry":
        """Projective d-space with the unit Fubini-Study potential.

        Einstein with Ricci constant d+1; the base Bergman function at an
        integer level alpha is prod_{j=1..d}(alpha + j).
        """
        if d < 1:
            raise PreconditionFailed("d must be >= 1")
        s = float(d * (d + 1))
        return BaseGeometry(d, twist, s, s * (d + 1.0), 0.0, 2.0 * s,
                            eps=lambda alpha: product_shifted(alpha, -1.0, d))

    @staticmethod
    def flat(d: int, twist: float = 1.0) -> "BaseGeometry":
        return BaseGeometry(d, twist, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_coefficients(d: int, twist: float, a1: float, a2: float,
                          eps: Optional[Callable[[float], float]] = None) -> "BaseGeometry":
        """Einstein-like synthesis of invariants matching prescribed (a1, a2).

        Sets scalar = 2*a1, |Ric|^2 = scalar^2/d, Laplacian term 0, and solves
        the expansion-coefficient identity for |R|^2.  Reproduces the
        Fubini-Study presets exactly and satisfies the space-form relation
        |R|^2 - 4|Ric|^2 used by the constant-coefficient classification.
        """
        if d < 1:
            raise PreconditionFailed(f"base dimension d must be >= 1, got {d}")
        s = 2.0 * a1
        ric2 = s * s / d
        riem2 = 24.0 * a2 + 4.0 * ric2 - 3.0 * s * s
        return BaseGeometry(d, twist, s, ric2, 0.0, riem2, eps=eps)


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data of the fibered metric at a point, or an array per field over a grid."""

    t: float
    x: float
    mom: float
    sigma: float
    chi: float
    sigma_prime: float
    chi_prime: float
    scalar: float
    ric2: float
    lapk: float
    riem2: float
    a1: float
    a2: float
    d0: int

    @property
    def a2_from_invariants(self) -> float:
        """Reassemble a2 from the four invariants (independent code path)."""
        return (self.lapk / 3.0 + self.riem2 / 24.0
                - self.ric2 / 6.0 + self.scalar ** 2 / 8.0)


def _pow(a: np.ndarray, n: int) -> np.ndarray:
    """a ** n per point as a float (numpy's power may round differently)."""
    return np.array([v ** n for v in a.tolist()])


def curvature_report(base: BaseGeometry, p: RadialProfile, d0: int, t,
                     order: int = 6) -> CurvatureReport:
    """Evaluate all fibered-metric invariants and (a1, a2) at log-coordinate t,
    a float or a 1-d array (one pass of array-valued jets for the whole grid).

    The fields read six derivatives of F, so order 6 is the least that works
    and a higher order gives the same fields, bit for bit.
    """
    if d0 < 1:
        raise PreconditionFailed("fiber dimension d0 must be >= 1")
    d, lam = base.d, base.twist
    ts = np.atleast_1d(np.asarray(t, dtype=float))

    f = profile_jet(p, ts, order, "t")
    xj = f.deriv()                      # F'
    x = xj.value
    require(x >= X_MIN, OutOfDomain,
            lambda i: f"x = {x[i]} below the evaluation floor {X_MIN} at t={ts[i]}")
    phij = xj.deriv()                   # F''
    mom = phij.value
    require(mom > 0, DegenerateJet,
            lambda i: f"momentum profile {mom[i]} not positive at t={ts[i]}")
    xj = xj.truncated(phij.order)
    shift = 1.0 + lam * xj
    require(shift.value > 0, OutOfDomain,
            lambda i: f"1 + twist*x = {shift.value[i]} not positive at t={ts[i]}")

    w = shift ** d * xj ** (d0 - 1)     # common denominator weight
    g = w * phij
    sigma_j = _ddx(g, phij) / w.truncated(g.order - 1)
    gxx = _ddx(_ddx(g, phij), phij)
    chi_j = -gxx / w.truncated(gxx.order)
    if d0 > 1:
        chi_j = chi_j + (d0 * (d0 - 1)) / xj.truncated(chi_j.order)

    sigma = sigma_j.value
    sigma_p = _ddx(sigma_j, phij).value
    chi = chi_j.value
    chi_pj = _ddx(chi_j, phij)
    chi_p = chi_pj.value

    # (mom * chi')' and the weighted divergence ((w mom chi')')/w
    phichi = phij.truncated(chi_pj.order) * chi_pj
    phichi_x = _ddx(phichi, phij).value
    wnum = w.truncated(chi_pj.order) * phichi
    div_wphichi = _ddx(wnum, phij).value / w.value

    # Laplacian coupling term ((lam (1+lam x)^(d-2) x^(d0-1) mom)')/w
    h = shift ** (d - 2) * xj ** (d0 - 1) * phij
    lap_couple = lam * _ddx(h, phij).value / w.value

    sv = shift.value
    phi_over_shift_p = _ddx(phij / shift, phij).value
    phi_xx = _ddx(_ddx(phij, phij), phij).value

    # each power formed once, by the float power of _pow
    sv2, sv3, sv4 = _pow(sv, 2), _pow(sv, 3), _pow(sv, 4)
    sigma2, sigma_p2, chi2, mom2 = (_pow(v, 2) for v in (sigma, sigma_p, chi, mom))
    phi_over_shift_p2, phi_xx2 = _pow(phi_over_shift_p, 2), _pow(phi_xx, 2)

    k_base, ric2_base = base.scalar, base.ric2

    scalar = k_base / sv + chi
    ric2 = ((ric2_base - 2.0 * lam * sigma * k_base + d * lam ** 2 * sigma2)
            / sv2 + sigma_p2)
    lapk = base.lapk / sv2 - lap_couple * k_base + div_wphichi
    riem2 = (base.riem2 / sv2
             - 4.0 * lam ** 2 * mom * k_base / sv3
             + 2.0 * d * (d + 1) * lam ** 4 * mom2 / sv4
             + 4.0 * d * lam ** 2 * phi_over_shift_p2
             + phi_xx2)

    a1 = base.a1 / sv + 0.5 * chi
    a2 = (base.a2 / sv2
          + (0.5 * chi / sv + lam ** 2 * mom / sv3) * base.a1
          + (8.0 * phichi_x
             + 8.0 * (d * lam / sv) * mom * chi_p
             + 3.0 * chi2 - 4.0 * sigma_p2 + phi_xx2
             + 4.0 * d * lam ** 2 * phi_over_shift_p2
             - 4.0 * d * lam ** 2 * sigma2 / sv2
             + 2.0 * d * (d + 1) * lam ** 4 * mom2 / sv4) / 24.0)

    if d0 > 1:
        phi_over_x_p2 = _pow(_ddx(phij / xj.truncated(phij.order), phij).value, 2)
        x2 = _pow(x, 2)
        ric2 += (d0 - 1) * _pow((sigma - d0) / x, 2)
        riem2 += (d0 - 1) * (4.0 * d * lam ** 2 * _pow(mom / (x * sv), 2)
                             + 4.0 * phi_over_x_p2
                             + 2.0 * d0 * _pow((mom - x) / x2, 2))
        a2 += (8.0 * ((d0 - 1) / x) * mom * chi_p) / 24.0
        a2 += ((d0 - 1) / 6.0) * (d * lam ** 2 * mom2 / (x2 * sv2)
                                  + phi_over_x_p2
                                  + 0.5 * d0 * _pow(mom - x, 2) / _pow(x, 4)
                                  - _pow(sigma - d0, 2) / x2)

    fields = (ts, x, mom, sigma, chi, sigma_p, chi_p, scalar, ric2, lapk, riem2, a1, a2)
    if np.ndim(t) == 0:
        fields = [float(value[0]) for value in fields]
    return CurvatureReport(*fields, d0=d0)


@dataclass(frozen=True)
class ClosedCoefficients:
    """Closed forms for the quadratic momentum profile x + A x^2."""

    a1: float               # valid when A equals the twist
    a2: float               # valid when A equals the twist
    two_a1_general: float   # valid for any A


def polyquad_closed(base: BaseGeometry, d0: int, A: float, x: float) -> ClosedCoefficients:
    """Closed-form coefficients for momentum profile x + A x^2 at fiber coordinate x.

    ``two_a1_general`` evaluates the general-A expression for 2*a1 verbatim,
    including the (1+lam x)^-2 term that vanishes for d = 1.  ``a1`` and
    ``a2`` are the A = twist specializations.
    """
    d, lam = base.d, base.twist
    n = d + d0
    sv = 1.0 + lam * x
    if sv <= 0:
        raise OutOfDomain(f"1 + twist*x = {sv} not positive")
    a1b, a2b = base.a1, base.a2

    two_a1 = (-A * (n + 1) * n
              + (2.0 * a1b + d * (2 * A * d + 2 * A * d0 - d * lam - 2 * d0 * lam + lam)) / sv
              - d * (d - 1) * (A - lam) / sv ** 2)

    # The coupling term carries a minus sign; it vanishes identically under
    # the constancy conditions, which is why either sign reproduces the
    # on-branch constants.  The sign here is the one that agrees with the
    # full engine (checked symbolically against the invariant assembly).
    lead = 0.5 * d * (d + 1) * lam + a1b
    a1 = -0.5 * n * (n + 1) * lam + lead / sv
    a2 = ((n - 1) * n * (n + 1) * (3 * n + 2) * lam ** 2 / 24.0
          - 0.5 * (n - 1) * (n + 2) * lam * lead / sv
          + (a2b + 0.5 * (d - 1) * (d + 2) * lam * a1b
             + (d - 1) * d * (d + 1) * (3 * d + 10) * lam ** 2 / 24.0) / sv ** 2)
    return ClosedCoefficients(a1=a1, a2=a2, two_a1_general=two_a1)


def branch_coefficients(n: int, A: float) -> tuple[float, float]:
    """The constant (a1, a2) pair of an on-branch fibered metric of dimension n."""
    a1 = -0.5 * n * (n + 1) * A
    a2 = (n - 1) * n * (n + 1) * (3 * n + 2) * A ** 2 / 24.0
    return a1, a2


@dataclass(frozen=True)
class ClassificationVerdict:
    constant: bool
    a1_value: float
    a2_value: float
    matched_branch: Optional[str]
    max_deviation: float
    ricci_constant: Optional[float] = None  # mean scalar curvature, reported
    ricci_check: Optional[bool] = None      # scalar == n(n+1) for the projective branch


def _spread(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    dev = (max(values) - min(values)) / (1.0 + abs(mean))
    return mean, dev


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


# The constant-coefficient branches (2.10)-(2.14): (name, domain, family,
# window in (d, twist, A)).  On every branch the effective A of the fibered
# coefficients is the profile's A for d = 1 (0 for the linear family) and
# the twist for d > 1, as in required_base.
BRANCHES = (
    ("2.10", "ball", "logball", lambda d, lam, A: d == 1 and lam > 0 and A > 0),
    ("2.11", "ball", "logball", lambda d, lam, A: d > 1 and lam > 0 and _close(A, lam)),
    ("2.12", "fullspace", "linear", lambda d, lam, A: d == 1 and lam > 0),
    ("2.13", "fullspace", "logaffine", lambda d, lam, A: d == 1 and A < 0 and lam >= A),
    ("2.14", "fullspace", "logaffine", lambda d, lam, A: d > 1 and lam < 0 and _close(A, lam)),
)


def _branch(p: RadialProfile, d: int, lam: float, domain: str) -> Optional[tuple[str, float]]:
    """(name, effective A) of the branch holding the model, if any."""
    for name, dom, family, window in BRANCHES:
        if dom == domain and family == p.family and window(d, lam, p.A):
            return name, p.A if d == 1 else lam
    return None


def required_base(p: RadialProfile, d: int, d0: int, lam: float) -> tuple[float, float]:
    """The paper's required base (a1, a2): (d0*twist - n*A, 0) for d = 1 and
    branch_coefficients(d, twist) for d > 1, on and off the branch windows."""
    if d == 1:
        return d0 * lam - (d + d0) * p.A, 0.0
    return branch_coefficients(d, lam)


def required_base_coefficients(p: RadialProfile, d: int, d0: int, lam: float,
                               domain: str) -> tuple[float, float]:
    """(a1, a2) the base must carry for the fibered coefficients to be constant."""
    if _branch(p, d, lam, domain) is None:
        raise OutOfDomain(
            f"no constant-coefficient branch for family={p.family}, d={d}, twist={lam}")
    return required_base(p, d, d0, lam)


def classify_check(base: BaseGeometry, p: RadialProfile, d0: int, domain: str,
                   grid: Sequence[float], tol: float = 1e-8) -> ClassificationVerdict:
    """Constancy check of (a1, a2) over a t-grid, matched against the branch tables."""
    return _classify(base, p, d0, domain, grid, tol)[1]


def _classify(base: BaseGeometry, p: RadialProfile, d0: int, domain: str,
              grid: Sequence[float], tol: float) -> tuple[CurvatureReport, ClassificationVerdict]:
    """classify_check, with the grid's one curvature report it was judged on."""
    if len(grid) == 0:
        raise EmptyGrid("classification needs a non-empty grid")
    if len(grid) < 8:
        raise EmptyGrid(f"classification grid needs >= 8 points, got {len(grid)}")
    report = curvature_report(base, p, d0, np.asarray(grid, dtype=float))
    a1_mean, a1_dev = _spread(report.a1.tolist())
    a2_mean, a2_dev = _spread(report.a2.tolist())
    dev = max(a1_dev, a2_dev)
    constant = dev <= tol

    matched = None
    ricci_constant = None
    ricci_check = None
    row = _branch(p, base.d, base.twist, domain)
    if constant and row is not None:
        name, a_eff = row
        a1_req, a2_req = required_base(p, base.d, d0, base.twist)
        a1_exp, a2_exp = branch_coefficients(base.d + d0, a_eff)
        close = (abs(base.a1 - a1_req) <= 1e-9 * (1 + abs(a1_req))
                 and abs(base.a2 - a2_req) <= 1e-9 * (1 + abs(a2_req))
                 and abs(a1_mean - a1_exp) <= 1e-7 * (1 + abs(a1_exp))
                 and abs(a2_mean - a2_exp) <= 1e-7 * (1 + abs(a2_exp)))
        if close:
            matched = name
        if name == "2.14" and abs(base.twist + 1.0) <= 1e-12 and abs(a_eff + 1.0) <= 1e-12:
            n = base.d + d0
            ricci_constant, _ = _spread(report.scalar.tolist())
            ricci_check = abs(ricci_constant - n * (n + 1)) <= 1e-7 * (1 + n * (n + 1))
    return report, ClassificationVerdict(constant=constant, a1_value=a1_mean,
                                         a2_value=a2_mean, matched_branch=matched,
                                         max_deviation=dev, ricci_constant=ricci_constant,
                                         ricci_check=ricci_check)
