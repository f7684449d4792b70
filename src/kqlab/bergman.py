"""Bergman functions of radially fibered metrics.

The weighted section space over the fibered model splits into fiber-degree
blocks; each block contributes one positive moment

    psi(alpha, k) = Gamma(k+1)/Gamma(k+d0) * int u^(k+d0-1) H(alpha, u) du

over the fiber range, with the density

    H(alpha, u) = e^(-alpha F(u)) F'(u)^(d0-1) (F'(u) + u F''(u)) (1 + lam u F'(u))^d

(F in the multiplicative rho-parameterization).  The Bergman function is then
the weighted series

    eps(alpha; rho) = e^(-alpha F(rho)) * sum_k eps_base(alpha + lam k) / psi(alpha, k) * rho^k.

This module computes psi both by quadrature and by the Gamma closed forms of
the three profile families, evaluates the series with tail control, and
certifies the exact product laws of the balanced bundle metrics over the
Riemann sphere.

Quadrature moments of the three families come from Gauss rules matched to
the density (Golub & Welsch, Math. Comp. 23 (1969)), with the density itself
evaluated through the profile jets, never through the closed forms.  A
single moment gets its own rule; a series or a moment table shares one rule,
and one sweep of the density over its nodes, among each aligned block of 16
consecutive fiber degrees.  The rule's node count is the ``nodes`` argument
(``--quad-nodes`` on the command line).  Custom profiles use adaptive
quadrature one moment at a time.  A moment that is not finite and positive
raises QuadratureNonConvergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_jacobi, roots_legendre

from .curvature import BaseGeometry
from .errors import (BranchInvalid, OutOfDomain, PreconditionFailed,
                     QuadratureNonConvergent, SeriesNonConvergent)
from .profiles import RadialProfile, linear, log_ball, profile_jet
from .special import product_shifted

_MEMBERSHIP_TOL = 1e-9

# Fiber degrees per Gauss rule when a series or table fills its moments.
_GAUSS_BLOCK = 16

# (domain, family) pairs whose moments have a matched Gauss rule.
_GAUSS_FAMILIES = (("ball", "logball"), ("fullspace", "linear"),
                   ("fullspace", "logaffine"))


@dataclass(frozen=True)
class Spectrum:
    """Set of admissible levels, closed under adding multiples of the twist.

    ``arithmetic`` is the progression start + step*N; ``naturals`` is N
    (the level set of the negative-twist projective branch).
    """

    kind: str = "arithmetic"
    start: float = 0.0
    step: float = 1.0

    def contains(self, level: float) -> bool:
        if self.kind == "naturals":
            return level >= -_MEMBERSHIP_TOL and abs(level - round(level)) <= _MEMBERSHIP_TOL
        q = (level - self.start) / self.step
        return q >= -_MEMBERSHIP_TOL and abs(q - round(q)) <= _MEMBERSHIP_TOL


@dataclass(frozen=True)
class QuantizationSetup:
    """Everything needed to quantize one fibered model at one level."""

    d: int
    d0: int
    twist: float
    domain: str                  # "ball" | "fullspace"
    profile: RadialProfile
    base: BaseGeometry
    alpha: float
    spectrum: Optional[Spectrum] = None

    def __post_init__(self):
        if self.d < 1 or self.d0 < 1:
            raise ValueError("dimensions d, d0 must be >= 1")
        if self.twist == 0:
            raise ValueError("twist must be nonzero")
        if self.domain not in ("ball", "fullspace"):
            raise ValueError("domain must be 'ball' or 'fullspace'")
        if self.base.d != self.d:
            raise ValueError(f"base dimension {self.base.d} != setup d {self.d}")
        if abs(self.base.twist - self.twist) > 1e-12 * max(1.0, abs(self.twist)):
            raise ValueError("base twist and setup twist disagree")

    @property
    def n(self) -> int:
        return self.d + self.d0

    def level_spectrum(self) -> Spectrum:
        if self.spectrum is not None:
            return self.spectrum
        if self.twist > 0:
            return Spectrum("arithmetic", self.alpha, self.twist)
        return Spectrum("naturals")

    def fiber_degrees(self, k_cap: int) -> range:
        """Fiber degrees k with alpha + twist*k in the level spectrum."""
        if self.twist > 0:
            return range(k_cap + 1)
        spec = self.level_spectrum()
        if not spec.contains(self.alpha):
            raise BranchInvalid(f"level alpha={self.alpha} not in the spectrum")
        k = 0
        while k < k_cap and spec.contains(self.alpha + self.twist * (k + 1)):
            k += 1
        return range(k + 1)


# ---------------------------------------------------------------------------
# fiber density and moments


def _rho_derivs(p: RadialProfile, u: float) -> tuple[float, float, float]:
    j = profile_jet(p, u, 2, "rho")
    return j.derivative(0), j.derivative(1), j.derivative(2)


def density_H(s: QuantizationSetup, u: float) -> float:
    """Fiber density H(alpha, u) of the moment integrals."""
    return math.exp(_log_density_H(s, u))


def _log_density_H(s: QuantizationSetup, u: float) -> float:
    if u < 0 or (s.domain == "ball" and u >= 1):
        raise OutOfDomain(f"u={u} outside the fiber range for domain {s.domain}")
    F, Fp, Fpp = _rho_derivs(s.profile, u)
    radial = Fp + u * Fpp
    shift = 1.0 + s.twist * u * Fp
    if Fp <= 0 or radial <= 0 or shift <= 0:
        raise OutOfDomain(f"density factors not positive at u={u}")
    return (-s.alpha * F + (s.d0 - 1) * math.log(Fp)
            + math.log(radial) + s.d * math.log(shift))


def _psi_closed(s: QuantizationSetup, k: int) -> float:
    """Gamma closed forms of psi(alpha, k) for the three profile families."""
    alpha, lam, d, d0, n = s.alpha, s.twist, s.d, s.d0, s.n
    fam = s.profile.family
    if s.domain == "ball" and fam == "logball":
        A = s.profile.A
        if d == 1:
            if alpha <= n * A:
                raise BranchInvalid(f"ball closed form needs alpha > n*A = {n * A}")
            return math.exp(gammaln(k + 1) + gammaln(alpha / A - n)
                            - n * math.log(A) - gammaln(alpha / A + k)) \
                * (alpha + lam * k + d0 * lam - n * A)
        if abs(A - lam) > 1e-12 * max(1.0, abs(lam)):
            raise BranchInvalid("ball closed form for d > 1 needs A equal to the twist")
        if alpha <= n * lam:
            raise BranchInvalid(f"ball closed form needs alpha > n*twist = {n * lam}")
        return math.exp(gammaln(k + 1) + gammaln(alpha / lam - n)
                        - d0 * math.log(lam) - gammaln(alpha / lam + k - d))
    if s.domain == "fullspace" and fam == "linear":
        c = s.profile.c
        if d != 1:
            raise BranchInvalid("full-space linear closed form needs d = 1")
        if alpha <= 0 or lam <= 0:
            raise BranchInvalid("full-space linear closed form needs alpha, twist > 0")
        return math.exp(gammaln(k + 1) - k * math.log(c)
                        - (k + d0 + 1) * math.log(alpha)) \
            * (alpha + lam * k + lam * d0)
    if s.domain == "fullspace" and fam == "logaffine":
        A, c = s.profile.A, s.profile.c
        if abs(A + 1.0) > 1e-12 or abs(lam + 1.0) > 1e-12:
            raise BranchInvalid("full-space closed form needs A = twist = -1")
        if abs(alpha - round(alpha)) > _MEMBERSHIP_TOL or alpha < 0:
            raise BranchInvalid("projective branch needs a natural level alpha")
        if not 0 <= k <= alpha + _MEMBERSHIP_TOL:
            raise BranchInvalid(f"fiber degree k={k} outside 0..alpha")
        return math.exp(gammaln(k + 1) + gammaln(alpha - k + d + 1)
                        - k * math.log(c) - gammaln(alpha + n + 1))
    raise BranchInvalid(
        f"no closed psi for family={fam!r} on domain={s.domain!r}")


def _psi_ratio_closed(s: QuantizationSetup, k: int) -> float:
    """psi(alpha, k) / psi(alpha, k+1), in branch closed form (stable)."""
    alpha, lam, d, d0, n = s.alpha, s.twist, s.d, s.d0, s.n
    fam = s.profile.family
    if s.domain == "ball" and fam == "logball":
        A = s.profile.A
        if d == 1:
            xk = alpha + lam * k + d0 * lam - n * A
            xk1 = alpha + lam * (k + 1) + d0 * lam - n * A
            return (alpha / A + k) * xk / ((k + 1) * xk1)
        return (alpha / lam + k - d) / (k + 1)
    if s.domain == "fullspace" and fam == "linear":
        c = s.profile.c
        xk = alpha + lam * (k + d0)
        xk1 = alpha + lam * (k + 1 + d0)
        return c * alpha * xk / ((k + 1) * xk1)
    if s.domain == "fullspace" and fam == "logaffine":
        c = s.profile.c
        return c * (alpha - k + d) / (k + 1)
    raise BranchInvalid(f"no closed psi ratio for family={fam!r}")


def _has_gauss_rule(s: QuantizationSetup) -> bool:
    return (s.domain, s.profile.family) in _GAUSS_FAMILIES


def _gauss_rule(rule, nodes: int, *exponents: float):
    """Nodes and weights of one Gauss rule, or QuadratureNonConvergent if they overflow."""
    with np.errstate(all="ignore"):   # checked below, typed
        xs, ws = rule(nodes, *exponents)
    if not (np.isfinite(xs).all() and np.isfinite(ws).all()):
        raise QuadratureNonConvergent(
            f"{nodes}-node Gauss rule with weight exponents {exponents} is not finite")
    return xs, ws


def _psi_quadrature_block(s: QuantizationSetup, k0: int, k1: int,
                          nodes: int) -> list[float]:
    """psi(alpha, k) for k0 <= k <= k1 from one Gauss rule matched to the density.

    The rule's weight carries the endpoint behavior of H and the factor
    u^(k0+d0-1) of the block's first moment, so what remains is the smooth
    (for the closed families: polynomial) part g of H.  Log-ball profiles get
    Gauss-Jacobi with weight (1-u)^a u^(k0+d0-1); the full-space linear family
    integrates against its exponential envelope with generalized
    Gauss-Laguerre, x^(k0+d0-1) e^-x; the log-affine family is mapped to
    (0, 1) with v = c u / (1 + c u) and gets Gauss-Jacobi with the weight
    (1-v)^a(k1) v^(k0+d0-1) of the block's last moment.  Moment k differs from
    that weight by the polynomial u^(k-k0) (x^(k-k0) and v^(k-k0) (1-v)^(k1-k)
    for the other two), so the block is one (moments x nodes) matrix of those
    factors times g, applied to the weights.  The block [k, k] is the single
    moment.  Every moment must come out finite and positive.
    """
    alpha, d0, n = s.alpha, s.d0, s.n
    fam = s.profile.family
    b0 = k0 + d0 - 1
    ks = range(k0, k1 + 1)
    j = np.arange(len(ks))[:, None]

    if s.domain == "ball" and fam == "logball":
        A = s.profile.A
        aexp = alpha / A - n - 1
        if aexp <= -1:
            raise BranchInvalid(f"ball moment diverges: alpha <= n*A = {n * A}")
        xs, ws = _gauss_rule(roots_jacobi, nodes, aexp, b0)
        u = 0.5 * (xs + 1.0)
        g = [math.exp(_log_density_H(s, ui) - aexp * math.log1p(-ui)) for ui in u]
        leftover = u ** j
        scales = [2.0 ** (-(aexp + b0 + 1))] * len(ks)
    elif s.domain == "fullspace" and fam == "linear":
        c = s.profile.c
        if alpha <= 0:
            raise BranchInvalid("full-space moment needs alpha > 0")
        xs, ws = _gauss_rule(roots_genlaguerre, nodes, b0)
        scale = alpha * c
        u = xs / scale
        g = [math.exp(_log_density_H(s, ui) + alpha * c * ui) for ui in u]
        leftover = xs ** j
        scales = [scale ** (-(k + d0)) for k in ks]
    elif s.domain == "fullspace" and fam == "logaffine":
        A, c = s.profile.A, s.profile.c
        if A >= 0:
            raise BranchInvalid("full-space log-affine profile needs A < 0")
        aexp = -alpha / A - k1
        if aexp <= -1:
            raise BranchInvalid(
                f"moment diverges: fiber degree k={k1} above alpha*|1/A|")
        xs, ws = _gauss_rule(roots_jacobi, nodes, aexp, b0)
        v = 0.5 * (xs + 1.0)
        u = v / (c * (1.0 - v))
        g = [math.exp(_log_density_H(s, ui) - (aexp + k1 + d0 + 1) * math.log1p(-vi))
             for ui, vi in zip(u, v)]
        leftover = v ** j * (1.0 - v) ** (k1 - k0 - j)
        scales = [c ** (-(k + d0)) * 2.0 ** (-(aexp + b0 + 1)) for k in ks]
    else:
        raise BranchInvalid(f"no Gauss rule for family={fam!r} on domain={s.domain!r}")

    with np.errstate(over="ignore", invalid="ignore"):   # checked below, typed
        integrals = (leftover * np.asarray(g)) @ ws
    out = []
    for k, scale, integral in zip(ks, scales, integrals):
        psi = math.exp(gammaln(k + 1) - gammaln(k + d0)) * (scale * float(integral))
        if not (math.isfinite(psi) and psi > 0):
            raise QuadratureNonConvergent(
                f"fiber moment psi(alpha, {k}) = {psi} from a {nodes}-node Gauss "
                "rule is not finite and positive")
        out.append(psi)
    return out


def _psi_adaptive(s: QuantizationSetup, k: int) -> float:
    """psi(alpha, k) by adaptive quadrature on the native fiber range."""
    from scipy.integrate import quad

    upper = 1.0 if s.domain == "ball" else np.inf
    val, err = quad(lambda u: u ** (k + s.d0 - 1) * density_H(s, u), 0.0, upper,
                    epsabs=0.0, epsrel=1e-12, limit=400)
    if not (math.isfinite(val) and val > 0) or err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureNonConvergent(
            f"adaptive fiber moment failed: value={val}, abserr={err}")
    return math.exp(gammaln(k + 1) - gammaln(k + s.d0)) * val


def psi_moment(s: QuantizationSetup, k: int, method: str = "closed",
               nodes: int = 64) -> float:
    """Fiber moment psi(alpha, k), by Gamma closed form or by quadrature."""
    if k < 0:
        raise ValueError("fiber degree k must be >= 0")
    if method == "closed":
        return _psi_closed(s, k)
    if method == "quadrature":
        if _has_gauss_rule(s):
            return _psi_quadrature_block(s, k, k, nodes)[0]
        return _psi_adaptive(s, k)
    raise ValueError("method must be 'closed' or 'quadrature'")


@dataclass(frozen=True)
class MomentTable:
    entries: tuple[float, ...]
    method: str
    K: int

    def __post_init__(self):
        if any(not (e > 0) for e in self.entries):
            raise QuadratureNonConvergent("moment table has non-positive entries")


def moment_table(s: QuantizationSetup, K: int, method: str = "closed",
                 nodes: int = 64) -> MomentTable:
    cache = _PsiCache(s, method, nodes)
    return MomentTable(tuple(cache(k) for k in range(K + 1)), method=method, K=K)


class _PsiCache:
    """Memoized psi(alpha, k) for one setup/method, with counts of the work done.

    Quadrature moments of the three profile families are filled an aligned
    block of _GAUSS_BLOCK fiber degrees at a time, one Gauss rule per block;
    closed forms and custom profiles go one moment at a time.  The counts are
    kept as sets, so threads that share a cache count each block once.
    """

    def __init__(self, s: QuantizationSetup, method: str, nodes: int):
        self._s, self._method, self._nodes = s, method, nodes
        self._vals: dict[int, float] = {}
        self._by_block = method == "quadrature" and _has_gauss_rule(s)
        self._blocks: set[tuple[int, int]] = set()
        self._used: set[int] = set()

    def _block(self, k: int) -> tuple[int, int]:
        """The aligned block holding k, clipped to the moments that exist."""
        s = self._s
        k0 = k - k % _GAUSS_BLOCK
        k1 = k0 + _GAUSS_BLOCK - 1
        if s.twist < 0:
            k1 = s.fiber_degrees(k1)[-1]
        if s.profile.family == "logaffine" and s.profile.A < 0:
            k1 = min(k1, math.ceil(-s.alpha / s.profile.A))  # last k with a(k) > -1
        return k0, max(k, k1)

    def __call__(self, k: int) -> float:
        if k not in self._vals:
            if self._by_block:
                k0, k1 = self._block(k)
                self._vals.update(zip(range(k0, k1 + 1),
                                      _psi_quadrature_block(self._s, k0, k1, self._nodes)))
                self._blocks.add((k0, k1))
            else:
                self._vals[k] = psi_moment(self._s, k, self._method, self._nodes)
        self._used.add(k)
        return self._vals[k]

    def counts(self) -> dict[str, int]:
        """Gauss rules built, nodes per rule and fiber degrees used so far."""
        return {"gauss_rules": len(self._blocks),
                "nodes_per_rule": self._nodes if self._blocks else 0,
                "fiber_degrees": len(self._used)}


# ---------------------------------------------------------------------------
# sphere and fiber moments


def sphere_monomial_integral(m: Sequence[int]) -> float:
    """Integral of |w^m|^2 over the unit sphere S^(2*d0-1) (invariant measure)."""
    if any(mi < 0 for mi in m):
        raise ValueError("multi-index entries must be non-negative")
    d0 = len(m)
    tot = sum(m)
    return 2.0 * math.pi ** d0 * math.exp(
        sum(gammaln(1 + mi) for mi in m) - gammaln(tot + d0))


def fiber_moment(s: QuantizationSetup, m: Sequence[int], method: str = "closed",
                 nodes: int = 64) -> float:
    """Monomial fiber moment I_m: Gamma prefactor times psi(alpha, |m|)."""
    if len(m) != s.d0:
        raise ValueError(f"multi-index length {len(m)} != d0 {s.d0}")
    tot = sum(m)
    pref = math.exp(sum(gammaln(1 + mi) for mi in m) - gammaln(tot + 1))
    return pref * psi_moment(s, tot, method, nodes)


def fiber_moment_direct(s: QuantizationSetup, m: Sequence[int],
                        nodes: int = 200) -> float:
    """I_m by direct quadrature of |w^m|^2 H over the fiber ball.

    The angular integrations are exact by rotational symmetry; the radial
    ones run on the simplex v1 + ... + v_d0 < 1 of squared moduli, keeping
    the full dependence on the distribution of the multi-index.
    """
    if s.domain != "ball":
        raise BranchInvalid("direct fiber moments are implemented on the ball fiber")
    if len(m) != s.d0 or s.d0 not in (1, 2):
        raise BranchInvalid("direct fiber moments cover d0 in {1, 2}")
    xs, ws = roots_legendre(nodes)
    xi = 0.5 * (xs + 1.0)
    wxi = 0.5 * ws
    H = np.array([math.exp(_log_density_H(s, x)) for x in xi])
    if s.d0 == 1:
        return float(np.dot(wxi, xi ** m[0] * H))
    # v1 = xi*eta, v2 = xi*(1 - eta), Jacobian xi; full tensor-grid sum
    eta, weta = xi, wxi
    integrand = np.outer(xi ** (m[0] + m[1] + 1) * H, eta ** m[0] * (1.0 - eta) ** m[1])
    return float(wxi @ integrand @ weta)


# ---------------------------------------------------------------------------
# kernel series, closed targets, certification


def bergman_series(s: QuantizationSetup, rho: float, psi_method: str = "closed",
                   nodes: int = 64, rel_tol: float = 1e-14, k_max: int = 10000,
                   psi: Optional[Callable[[int], float]] = None) -> float:
    """Bergman function of the fibered metric at fiber radius rho.

    Truncated moment series with tail control for positive twist; for
    negative twist the sum over admissible fiber degrees is finite and is
    evaluated exactly.
    """
    if rho < 0 or (s.domain == "ball" and rho >= 1):
        raise OutOfDomain(f"rho={rho} outside the fiber range")
    if s.base.eps is None:
        raise ValueError("setup base carries no Bergman function eps")
    if psi is None:
        psi = _PsiCache(s, psi_method, nodes)
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    F = profile_jet(s.profile, rho, 2, "rho").value

    if lam < 0:
        total = 0.0
        for k in s.fiber_degrees(k_max):
            total += eps(alpha + lam * k) / psi(k) * rho ** k
        return math.exp(-alpha * F) * total

    total = 0.0
    quiet = 0
    for k in range(k_max + 1):
        term = eps(alpha + lam * k) / psi(k) * rho ** k
        total += term
        if k >= 1:
            quiet = quiet + 1 if abs(term) <= rel_tol * abs(total) else 0
            if quiet >= 3:
                return math.exp(-alpha * F) * total
    raise SeriesNonConvergent(
        f"series tail not below {rel_tol} after {k_max} fiber degrees")


def closed_target(s: QuantizationSetup) -> float:
    """Exact constant value of the Bergman function on the designated branches."""
    alpha, lam, n = s.alpha, s.twist, s.n
    fam = s.profile.family
    if s.domain == "ball" and fam == "logball":
        A = s.profile.A
        if s.d > 1 and abs(A - lam) > 1e-12 * max(1.0, abs(lam)):
            raise BranchInvalid("ball target for d > 1 needs A equal to the twist")
        if alpha <= n * A:
            raise BranchInvalid(f"ball target needs alpha > n*A = {n * A}")
        return product_shifted(alpha, A, n)
    if s.domain == "fullspace" and fam == "linear":
        if s.d != 1:
            raise BranchInvalid("full-space linear target needs d = 1")
        if alpha <= 0:
            raise BranchInvalid("full-space target needs alpha > 0")
        return alpha ** n
    if s.domain == "fullspace" and fam == "logaffine":
        if abs(s.profile.A + 1.0) > 1e-12 or abs(lam + 1.0) > 1e-12:
            raise BranchInvalid("full-space target needs A = twist = -1")
        return product_shifted(alpha, -1.0, n)
    raise BranchInvalid(f"no closed target for family={fam!r} on {s.domain!r}")


@dataclass(frozen=True)
class GeneratingIdentityReport:
    rows: tuple[tuple[float, float, float], ...]  # (rho, assembled, closed)
    max_deviation: float


def generating_coefficients(s: QuantizationSetup, k_count: int,
                            psi_method: str = "closed", nodes: int = 64) -> list[float]:
    """Series coefficients eps(alpha+lam k)/eps(alpha) * psi(alpha,0)/psi(alpha,k)."""
    if s.base.eps is None:
        raise ValueError("setup base carries no Bergman function eps")
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    e0 = eps(alpha)
    if psi_method == "closed":
        out = [1.0]
        for k in range(k_count - 1):
            ratio = _psi_ratio_closed(s, k)
            out.append(out[-1] * (eps(alpha + lam * (k + 1)) / eps(alpha + lam * k)) * ratio)
        return out
    cache = _PsiCache(s, psi_method, nodes)
    p0 = cache(0)
    return [eps(alpha + lam * k) / e0 * p0 / cache(k) for k in range(k_count)]


def _identity_rhs(s: QuantizationSetup, rho: float) -> float:
    fam, alpha, lam = s.profile.family, s.alpha, s.twist
    if s.domain == "ball" and fam == "logball":
        A = s.profile.A if s.d == 1 else lam
        return (1.0 - rho) ** (-alpha / A)
    if s.domain == "fullspace" and fam == "linear":
        return math.exp(s.profile.c * alpha * rho)
    if s.domain == "fullspace" and fam == "logaffine":
        return (1.0 + s.profile.c * rho) ** alpha
    raise BranchInvalid(f"no generating identity for family={fam!r}")


def generating_identity_check(s: QuantizationSetup, rho_grid: Sequence[float],
                              psi_method: str = "closed", nodes: int = 64,
                              k_max: int = 10000) -> GeneratingIdentityReport:
    """Sup-norm gap between the assembled moment series and its closed resummation."""
    rho_max = max(rho_grid)
    if s.twist < 0:
        k_count = len(s.fiber_degrees(k_max))
    else:
        # grow the coefficient list until the largest-rho tail is negligible
        k_count = 8
        while k_count < k_max:
            coeffs = generating_coefficients(s, k_count, psi_method, nodes)
            tail = abs(coeffs[-1]) * rho_max ** (k_count - 1)
            partial = sum(c * rho_max ** j for j, c in enumerate(coeffs))
            if rho_max == 0 or tail <= 1e-16 * max(1.0, abs(partial)):
                break
            k_count *= 2
        else:
            raise SeriesNonConvergent("generating series does not settle")
    coeffs = generating_coefficients(s, k_count, psi_method, nodes)
    rows = []
    worst = 0.0
    for rho in rho_grid:
        lhs = 0.0
        for c in reversed(coeffs):
            lhs = lhs * rho + c
        rhs = _identity_rhs(s, rho)
        worst = max(worst, abs(lhs - rhs))
        rows.append((float(rho), lhs, rhs))
    return GeneratingIdentityReport(rows=tuple(rows), max_deviation=worst)


@dataclass(frozen=True)
class BalancedCertificate:
    part: str
    k: int
    r: int
    m: int
    c: float
    A: float
    mu: float
    target: float
    values: tuple[float, ...]
    grid: tuple[float, ...]
    max_spread: float          # constancy over the grid, relative
    max_error: float           # worst |value - target| / (1 + |target|)
    base_identity_gap: float   # |(r - (1+r)A) - 1/k|
    balanced: bool
    gauss_rules: int           # Gauss rules built for the moments
    nodes_per_rule: int
    fiber_degrees: int         # fiber degrees the series used


def balanced_setup(k: int, r: int, m: int, part: str, c: float = 1.0) -> QuantizationSetup:
    """The quantization setup of the rank-r dual-bundle model over the sphere."""
    if k < 1 or r < 1 or m < 1:
        raise PreconditionFailed("k, r, m must be positive integers")
    base = BaseGeometry.fubini_study_cp1(k, twist=1.0)
    if part == "ball":
        if k * r <= 1:
            raise PreconditionFailed("kr>1 required for the ball-subbundle part")
        A = (k * r - 1) / (k * (r + 1))
        return QuantizationSetup(d=1, d0=r, twist=1.0, domain="ball",
                                 profile=log_ball(A), base=base, alpha=float(m))
    if part == "total":
        if k != 1 or r != 1:
            raise PreconditionFailed("the total-space part needs k = r = 1")
        if c <= 0:
            raise PreconditionFailed("c must be positive")
        return QuantizationSetup(d=1, d0=r, twist=1.0, domain="fullspace",
                                 profile=linear(c), base=base, alpha=float(m))
    raise PreconditionFailed(f"unknown part {part!r}; use 'ball' or 'total'")


def balanced_certify(k: int, r: int, m: int, part: str = "ball",
                     rho_grid: Optional[Sequence[float]] = None, c: float = 1.0,
                     psi_method: str = "quadrature", nodes: int = 64,
                     tol: float = 1e-8) -> BalancedCertificate:
    """Certify the constant Bergman function of the balanced bundle metrics.

    Runs the moment series over a fiber-radius grid and compares against the
    exact product law; the moment route defaults to quadrature so the check
    does not reuse the Gamma closed forms it certifies.
    """
    s = balanced_setup(k, r, m, part, c)
    if part == "ball":
        A = s.profile.A
        target = product_shifted(float(m), A, 1 + r)
        mu = 1.0 / A
        identity_gap = abs((r - (1 + r) * A) - 1.0 / k)
    else:
        A = 0.0
        target = float(m) ** (1 + r)
        mu = math.inf
        identity_gap = 0.0
    if rho_grid is None:
        rho_grid = np.linspace(0.0, 0.9, 10)
    cache = _PsiCache(s, psi_method, nodes)
    values = tuple(bergman_series(s, float(rho), psi=cache) for rho in rho_grid)
    mean = sum(values) / len(values)
    spread = (max(values) - min(values)) / (1.0 + abs(mean))
    err = max(abs(v - target) for v in values) / (1.0 + abs(target))
    return BalancedCertificate(part=part, k=k, r=r, m=m, c=c, A=A, mu=mu,
                               target=target, values=values,
                               grid=tuple(float(r_) for r_ in rho_grid),
                               max_spread=spread, max_error=err,
                               base_identity_gap=identity_gap,
                               balanced=spread <= tol and err <= tol
                               and identity_gap <= 1e-12,
                               **cache.counts())
