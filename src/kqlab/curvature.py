"""Curvature invariants and expansion coefficients of radially fibered metrics.

Given a homogeneous base metric on a d-dimensional domain (constant scalar
curvature, |Ric|^2, Laplacian of scalar, |R|^2) and a radial profile F on a
d0-dimensional fiber with twist ``lam``, the potential
``phi + F(lam*phi + log|w|^2)`` defines a fibered metric.  Its four curvature
invariants, and the first two coefficients a1, a2 of the Bergman-function
expansion, are rational expressions in x = F'(t), the momentum profile
mom(x) = F''(t) and its x-derivatives (' is d/dx = (1/mom) d/dt), through

    sigma = (w mom)'/w,  chi = d0(d0-1)/x - (w mom)''/w,  w = (1 + lam*x)^d x^(d0-1).

Written in psi = mom/x = 1 + x mu (the momentum-profile form of Hwang & Singer,
Trans. AMS 354, 2002) and s = psi' + d lam psi/(1 + lam*x), each field is one
expression for every (d, d0), with no 1/x and no power of 1 + lam*x as a jet.  The
x-jets of mom, psi and mu come from ``profiles.momentum_jets``, which holds both
routes (exact for a closed family, by the chain rule for a jet rule) and both
evaluation floors.  A coefficient stage gives x, mom, sigma, chi, sigma', chi', scalar,
a1 and a2, all that classification reads; an invariant stage then gives |Ric|^2, the
Laplacian of scalar and |R|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EmptyGrid, KQLabError, OutOfDomain, PreconditionFailed, whole
from .jets import TaylorJet, require
from .profiles import RadialProfile, momentum_jets
from .special import product_shifted

REPORT_ORDER = 4  # order of curvature_report's x-jets, the least its fields allow


@dataclass(frozen=True)
class BergmanLaw:
    """alpha -> prod_{j=1..count} (alpha - j*shift), or alpha^count if power; equal by value."""

    shift: float = 0.0
    count: int = 1
    power: bool = False

    def __call__(self, a):   # a level, or an array of levels; a power past floats is inf
        if self.power:
            with np.errstate(over="ignore", divide="ignore"):   # in floats, as the product
                return np.power(a, self.count, dtype=float)
        return product_shifted(a, self.shift, self.count)


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
        object.__setattr__(self, "d", whole(self.d, 1, "base dimension d"))
        if self.twist == 0 or not np.isfinite(
                (self.twist, self.scalar, self.ric2, self.lapk, self.riem2)).all():
            raise PreconditionFailed("twist must be nonzero, and the twist and invariants finite")

    @property
    def a1(self) -> float:
        return 0.5 * self.scalar

    @property
    def a2(self) -> float:
        return (self.lapk / 3.0 + self.riem2 / 24.0
                - self.ric2 / 6.0 + self.scalar ** 2 / 8.0)

    def with_eps(self, eps: Callable[[float], float]) -> "BaseGeometry":
        return replace(self, eps=eps)

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
        k = whole(k, 1, "bundle degree k")
        s = 2.0 / k
        return BaseGeometry(1, twist, s, s * s, 0.0, s * s,
                            eps=BergmanLaw(-1.0 / k))

    @staticmethod
    def fubini_study_cpd(d: int, twist: float = -1.0) -> "BaseGeometry":
        """Projective d-space with the unit Fubini-Study potential.

        Einstein with Ricci constant d+1; the base Bergman function at an
        integer level alpha is prod_{j=1..d}(alpha + j).
        """
        d = whole(d, 1, "base dimension d")
        s = float(d * (d + 1))
        return BaseGeometry(d, twist, s, s * (d + 1.0), 0.0, 2.0 * s,
                            eps=BergmanLaw(-1.0, d))

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
        d = whole(d, 1, "base dimension d")
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


def _shift(lam: float, x: np.ndarray) -> TaylorJet:
    """The x-jet of 1 + lam*x to REPORT_ORDER, formed exactly: the coefficients of
    ``1.0 + lam * TaylorJet.variable(x, REPORT_ORDER)``, with no jet operation."""
    coeffs = np.zeros((REPORT_ORDER + 1, x.size))
    coeffs[0], coeffs[1] = 1.0 + lam * x, lam
    return TaylorJet(coeffs)


def _times_x(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The coefficients x u_k + u_(k-1) of x*u, for the coefficient array u of an x-jet."""
    return x * u + np.concatenate((np.zeros((1, x.size)), u[:-1]))


def _stages(base: BaseGeometry, p: RadialProfile, d0: int, ts: np.ndarray):
    """The report's fields on the grid ts by name, on jets in x (d/dx is ``deriv``): one
    dict from the coefficient stage, then one from the invariant stage, which forms no jet.
    With S = 1 + lam*x and s = (S^d psi)'/S^d = psi' + d lam psi/S: sigma = d0 psi + x s,
    r = (sigma - d0)/x = d0 mu + s and chi = -2 d0 s - x ds - d0 (d0 - 1) mu, where
    ds = (S^d s)'/S^d = s' + d lam s/S.  Products by x and sums are formed on coefficient
    arrays, so the jet operations are psi/S, s/S and phi chi' at every (d, d0)."""
    d0 = whole(d0, 1, "fiber dimension d0")
    d, lam = base.d, base.twist

    x, phij, psij, muj = momentum_jets(p, ts, REPORT_ORDER)
    mom = phij.value
    shift = _shift(lam, x)
    require(shift.value > 0, OutOfDomain,
            lambda i: f"1 + twist*x = {shift.value[i]} not positive at t={ts[i]}")

    # each jet is formed only to the order its fields read
    q_j = psij.truncated(3) / shift.truncated(3)                        # psi/S
    s_j = TaylorJet(psij.deriv().coeffs + (d * lam) * q_j.coeffs)      # s, to order 3
    s = s_j.coeffs
    ds = s_j.deriv().coeffs + (d * lam) * (s_j.truncated(2) / shift.truncated(2)).coeffs
    chi_j = TaylorJet(-2.0 * d0 * s[:3] - _times_x(x, ds) - d0 * (d0 - 1) * muj.coeffs)
    sigma, sigma_p = d0 * psij.coeffs[:2] + _times_x(x, s[:2])

    psi, psi_p, mu, q = psij.value, psij.derivative(1), muj.value, q_j.value
    r = d0 * mu + s[0]
    chi_pj = chi_j.deriv()
    chi, chi_p = chi_j.value, chi_pj.value

    # the weighted divergence ((w mom chi')')/w, w = S^d x^(d0-1)
    phichi = phij.truncated(chi_pj.order) * chi_pj
    sv = shift.value
    div_wphichi = (phichi.derivative(1) + (d * lam / sv) * phichi.value
                   + (d0 - 1) * psi * chi_p)
    phi_over_shift_p = q + x * q_j.derivative(1)       # (phi/S)' = (x psi/S)'

    # each power formed once, and the (d0 - 1) terms' by products
    sv2, sv3, sv4 = sv ** 2, sv ** 3, sv ** 4
    sigma2, sigma_p2, chi2, mom2 = (v ** 2 for v in (sigma, sigma_p, chi, mom))
    phi_over_shift_p2, phi_xx2 = phi_over_shift_p ** 2, phij.derivative(2) ** 2
    r2 = r * r
    fiber = d * lam ** 2 * q * q + psi_p * psi_p + 0.5 * d0 * mu * mu   # riem2's (d0 - 1) term/4

    k_base = base.scalar
    scalar = k_base / sv + chi
    a1 = base.a1 / sv + 0.5 * chi
    a2 = (base.a2 / sv2
          + (0.5 * chi / sv + lam ** 2 * mom / sv3) * base.a1
          + (8.0 * div_wphichi
             + 3.0 * chi2 - 4.0 * sigma_p2 + phi_xx2
             + 4.0 * d * lam ** 2 * phi_over_shift_p2
             - 4.0 * d * lam ** 2 * sigma2 / sv2
             + 2.0 * d * (d + 1) * lam ** 4 * mom2 / sv4
             + 4.0 * (d0 - 1) * (fiber - r2)) / 24.0)
    yield dict(x=x, mom=mom, sigma=sigma, chi=chi, sigma_prime=sigma_p,
               chi_prime=chi_p, scalar=scalar, a1=a1, a2=a2)

    # Laplacian coupling term ((lam S^(d-2) x^(d0-1) mom)')/w
    lap_couple = lam * ((d - 2) * lam * mom / sv3
                        + ((d0 - 1) * psi + phij.derivative(1)) / sv2)

    ric2 = ((base.ric2 - 2.0 * lam * sigma * k_base + d * lam ** 2 * sigma2)
            / sv2 + sigma_p2 + (d0 - 1) * r2)
    lapk = base.lapk / sv2 - lap_couple * k_base + div_wphichi
    riem2 = (base.riem2 / sv2
             - 4.0 * lam ** 2 * mom * k_base / sv3
             + 2.0 * d * (d + 1) * lam ** 4 * mom2 / sv4
             + 4.0 * d * lam ** 2 * phi_over_shift_p2
             + phi_xx2
             + 4.0 * (d0 - 1) * fiber)
    yield dict(ric2=ric2, lapk=lapk, riem2=riem2)


def _evaluate(base: BaseGeometry, p: RadialProfile, d0: int, t, names) -> dict:
    """t and the fields of _stages at t, a float or a 1-d array, from the stages it takes
    to yield every field in ``names``; an overflow, of an array operation or of a profile's
    jet rule, is refused as OutOfDomain at the first t whose fields leave the float range.
    A grid that fails is refused at its first t that fails alone, whichever check fails."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    fields = {"t": ts}
    try:
        with np.errstate(over="raise"):
            for stage in _stages(base, p, d0, ts):
                fields.update(stage)
                if fields.keys() >= set(names):
                    break
    except (OverflowError, FloatingPointError, KQLabError) as error:
        if ts.size > 1:     # point by point, so the first t that fails raises
            for point in ts:
                _evaluate(base, p, d0, point, names)
        if isinstance(error, KQLabError):
            raise
        raise OutOfDomain(f"curvature fields leave the float range at t={ts[0]}") from None
    return {name: float(value[0]) for name, value in fields.items()} if np.ndim(t) == 0 else fields


def curvature_report(base: BaseGeometry, p: RadialProfile, d0: int, t) -> CurvatureReport:
    """Evaluate all fibered-metric invariants and (a1, a2) at log-coordinate t,
    a float or a 1-d array (one pass of array-valued jets for the whole grid)."""
    return CurvatureReport(**_evaluate(base, p, d0, t, CurvatureReport.__annotations__), d0=d0)


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

    # the coupling term's sign is checked off the branches in tests/test_expansion.py
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
    """a and b agree to 1e-12 relative to b; never for a non-finite argument."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-12 * max(1.0, abs(b))


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


def on_required_base(base: BaseGeometry, p: RadialProfile, d0: int) -> bool:
    """Whether the base carries required_base's (a1, a2), each to 1e-9 of 1 + |value|."""
    return all(abs(have - want) <= 1e-9 * (1 + abs(want)) for have, want in
               zip((base.a1, base.a2), required_base(p, base.d, d0, base.twist)))


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
              grid: Sequence[float], tol: float) -> tuple[dict, ClassificationVerdict]:
    """classify_check, with the coefficient-stage fields of the grid it was judged on."""
    if len(grid) == 0:
        raise EmptyGrid("classification needs a non-empty grid")
    if len(grid) < 8:
        raise EmptyGrid(f"classification grid needs >= 8 points, got {len(grid)}")
    fields = _evaluate(base, p, d0, grid, ("a1", "a2", "scalar"))
    a1_mean, a1_dev = _spread(fields["a1"].tolist())
    a2_mean, a2_dev = _spread(fields["a2"].tolist())
    dev = max(a1_dev, a2_dev)
    constant = dev <= tol

    matched = ricci_constant = ricci_check = None
    row = _branch(p, base.d, base.twist, domain)
    if constant and row is not None:
        name, a_eff = row
        a1_exp, a2_exp = branch_coefficients(base.d + d0, a_eff)
        close = (on_required_base(base, p, d0)
                 and abs(a1_mean - a1_exp) <= 1e-7 * (1 + abs(a1_exp))
                 and abs(a2_mean - a2_exp) <= 1e-7 * (1 + abs(a2_exp)))
        if close:
            matched = name
        if name == "2.14" and abs(base.twist + 1.0) <= 1e-12 and abs(a_eff + 1.0) <= 1e-12:
            n = base.d + d0
            ricci_constant, _ = _spread(fields["scalar"].tolist())
            ricci_check = abs(ricci_constant - n * (n + 1)) <= 1e-7 * (1 + n * (n + 1))
    return fields, ClassificationVerdict(constant=constant, a1_value=a1_mean,
                                         a2_value=a2_mean, matched_branch=matched,
                                         max_deviation=dev, ricci_constant=ricci_constant,
                                         ricci_check=ricci_check)
