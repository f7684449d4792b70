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
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_jacobi, roots_legendre

from .curvature import BaseGeometry, _close, _spread
from .errors import (BranchInvalid, OutOfDomain, PreconditionFailed,
                     QuadratureNonConvergent, SeriesNonConvergent)
from .jets import elementwise, require
from .profiles import RadialProfile, linear, log_ball, profile_jet
from .special import product_shifted

_MEMBERSHIP_TOL = 1e-9

# Fiber degrees per Gauss rule when a series or table fills its moments.
_GAUSS_BLOCK = 16


def _is_natural(level: float) -> bool:
    return level >= -_MEMBERSHIP_TOL and abs(level - round(level)) <= _MEMBERSHIP_TOL


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

    def __post_init__(self):
        if self.d < 1 or self.d0 < 1:
            raise PreconditionFailed("dimensions d, d0 must be >= 1")
        if self.twist == 0:
            raise PreconditionFailed("twist must be nonzero")
        if self.domain not in ("ball", "fullspace"):
            raise PreconditionFailed("domain must be 'ball' or 'fullspace'")
        if self.base.d != self.d:
            raise PreconditionFailed(f"base dimension {self.base.d} != setup d {self.d}")
        if not _close(self.base.twist, self.twist):
            raise PreconditionFailed("base twist and setup twist disagree")

    @property
    def n(self) -> int:
        return self.d + self.d0

    def fiber_degrees(self, k_cap: int) -> range:
        """Fiber degrees k whose level alpha + twist*k is admissible.

        Every level is admissible for positive twist; for negative twist (the
        projective branch) the admissible levels are the natural numbers.
        """
        if self.twist > 0:
            return range(k_cap + 1)
        if not _is_natural(self.alpha):
            raise BranchInvalid(f"level alpha={self.alpha} not in the spectrum")
        k = 0
        while k < k_cap and _is_natural(self.alpha + self.twist * (k + 1)):
            k += 1
        return range(k + 1)


# ---------------------------------------------------------------------------
# fiber density and moments


def density_H(s: QuantizationSetup, u):
    """Fiber density H(alpha, u) of the moment integrals, at a float or an array of u."""
    return elementwise(math.exp, _log_density_H(s, u))


def _log_density_H(s: QuantizationSetup, u):
    require((u >= 0) & ((u < 1) | (s.domain != "ball")), OutOfDomain,
            lambda i: f"u={np.ravel(u)[i]} outside the fiber range for domain {s.domain}")
    j = profile_jet(s.profile, u, 2, "rho")
    F, Fp, Fpp = j.derivative(0), j.derivative(1), j.derivative(2)
    radial = Fp + u * Fpp
    shift = 1.0 + s.twist * u * Fp
    require((Fp > 0) & (radial > 0) & (shift > 0), OutOfDomain,
            lambda i: f"density factors not positive at u={np.ravel(u)[i]}")
    return (-s.alpha * F + (s.d0 - 1) * elementwise(math.log, Fp)
            + elementwise(math.log, radial) + s.d * elementwise(math.log, shift))


# ---------------------------------------------------------------------------
# moment models of the closed families


def _ball_window(s: QuantizationSetup) -> None:
    A = s.profile.A
    if s.d > 1 and not _close(A, s.twist):
        raise BranchInvalid("ball closed form for d > 1 needs A equal to the twist")
    if s.alpha <= s.n * A:
        raise BranchInvalid(f"ball closed form needs alpha > n*A = {s.n * A}")


def _ball_psi(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0, n, A = s.alpha, s.twist, s.d0, s.n, s.profile.A
    if s.d == 1:
        return math.exp(gammaln(k + 1) + gammaln(alpha / A - n)
                        - n * math.log(A) - gammaln(alpha / A + k)) \
            * (alpha + lam * k + d0 * lam - n * A)
    return math.exp(gammaln(k + 1) + gammaln(alpha / lam - n)
                    - d0 * math.log(lam) - gammaln(alpha / lam + k - s.d))


def _ball_ratio(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0, n, A = s.alpha, s.twist, s.d0, s.n, s.profile.A
    if s.d == 1:
        xk = alpha + lam * k + d0 * lam - n * A
        xk1 = alpha + lam * (k + 1) + d0 * lam - n * A
        return (alpha / A + k) * xk / ((k + 1) * xk1)
    return (alpha / lam + k - s.d) / (k + 1)


def _ball_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    b0 = k0 + s.d0 - 1
    aexp = s.alpha / s.profile.A - s.n - 1
    if aexp <= -1:
        raise BranchInvalid(f"ball moment diverges: alpha <= n*A = {s.n * s.profile.A}")
    xs, ws = _gauss_rule(roots_jacobi, nodes, aexp, b0)
    u = 0.5 * (xs + 1.0)
    return (ws, u, [aexp * math.log1p(-ui) for ui in u], u ** j,
            [2.0 ** (-(aexp + b0 + 1))] * len(j))


def _linear_window(s: QuantizationSetup) -> None:
    if s.d != 1:
        raise BranchInvalid("full-space linear closed form needs d = 1")
    if s.alpha <= 0 or s.twist <= 0:
        raise BranchInvalid("full-space linear closed form needs alpha, twist > 0")


def _linear_psi(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0, c = s.alpha, s.twist, s.d0, s.profile.c
    return math.exp(gammaln(k + 1) - k * math.log(c)
                    - (k + d0 + 1) * math.log(alpha)) * (alpha + lam * k + lam * d0)


def _linear_ratio(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0 = s.alpha, s.twist, s.d0
    xk = alpha + lam * (k + d0)
    xk1 = alpha + lam * (k + 1 + d0)
    return s.profile.c * alpha * xk / ((k + 1) * xk1)


def _linear_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    if s.alpha <= 0:
        raise BranchInvalid("full-space moment needs alpha > 0")
    xs, ws = _gauss_rule(roots_genlaguerre, nodes, k0 + s.d0 - 1)
    scale = s.alpha * s.profile.c
    u = xs / scale
    return (ws, u, [-s.alpha * s.profile.c * ui for ui in u], xs ** j,
            [scale ** (-(k + s.d0)) for k in range(k0, k1 + 1)])


def _projective_window(s: QuantizationSetup) -> None:
    if not (_close(s.profile.A, -1.0) and _close(s.twist, -1.0)):
        raise BranchInvalid("full-space closed form needs A = twist = -1")
    if not _is_natural(s.alpha):
        raise BranchInvalid("projective branch needs a natural level alpha")


def _projective_psi(s: QuantizationSetup, k: int) -> float:
    alpha = s.alpha
    if not 0 <= k <= alpha + _MEMBERSHIP_TOL:
        raise BranchInvalid(f"fiber degree k={k} outside 0..alpha")
    return math.exp(gammaln(k + 1) + gammaln(alpha - k + s.d + 1)
                    - k * math.log(s.profile.c) - gammaln(alpha + s.n + 1))


def _log_affine_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    A, c, b0 = s.profile.A, s.profile.c, k0 + s.d0 - 1
    if A >= 0:
        raise BranchInvalid("full-space log-affine profile needs A < 0")
    aexp = -s.alpha / A - k1
    if aexp <= -1:
        raise BranchInvalid(f"moment diverges: fiber degree k={k1} above alpha*|1/A|")
    xs, ws = _gauss_rule(roots_jacobi, nodes, aexp, b0)
    v = 0.5 * (xs + 1.0)
    u = v / (c * (1.0 - v))
    return (ws, u, [(aexp + k1 + s.d0 + 1) * math.log1p(-vi) for vi in v],
            v ** j * (1.0 - v) ** (k1 - k0 - j),
            [c ** (-(k + s.d0)) * 2.0 ** (-(aexp + b0 + 1)) for k in range(k0, k1 + 1)])


# One record per family states its moments once: the branch window (raises
# BranchInvalid) shared by the closed forms and the target; the Gamma closed
# forms of psi and of psi(k)/psi(k+1); the Bergman target; the resummed
# generating series (rhs); the Gauss rule of one block of moments, as (weights,
# nodes u, log of the weight at u, leftover factors, scales), which reads no
# closed form; and the last fiber degree with a convergent moment.
_MomentModel = namedtuple("_MomentModel", "window psi ratio target rhs gauss last_degree")


_MODELS = {
    ("ball", "logball"): _MomentModel(
        window=_ball_window, psi=_ball_psi, ratio=_ball_ratio,
        target=lambda s: product_shifted(s.alpha, s.profile.A, s.n),
        rhs=lambda s, rho: (1.0 - rho) ** (-s.alpha / (s.profile.A if s.d == 1 else s.twist)),
        gauss=_ball_gauss, last_degree=lambda s: math.inf),
    ("fullspace", "linear"): _MomentModel(
        window=_linear_window, psi=_linear_psi, ratio=_linear_ratio,
        target=lambda s: s.alpha ** s.n,
        rhs=lambda s, rho: math.exp(s.profile.c * s.alpha * rho),
        gauss=_linear_gauss, last_degree=lambda s: math.inf),
    ("fullspace", "logaffine"): _MomentModel(
        window=_projective_window, psi=_projective_psi,
        ratio=lambda s, k: s.profile.c * (s.alpha - k + s.d) / (k + 1),
        target=lambda s: product_shifted(s.alpha, -1.0, s.n),
        rhs=lambda s, rho: (1.0 + s.profile.c * rho) ** s.alpha,
        gauss=_log_affine_gauss,
        # the last k with Jacobi exponent a(k) > -1
        last_degree=lambda s: math.ceil(-s.alpha / s.profile.A)),
}


def _model(s: QuantizationSetup, what: str, window: bool = True) -> _MomentModel:
    """The family's moment model, checked against its branch window unless told not to."""
    model = _MODELS.get((s.domain, s.profile.family))
    if model is None:
        raise BranchInvalid(
            f"no {what} for family={s.profile.family!r} on domain={s.domain!r}")
    if window:
        model.window(s)
    return model


def _psi_closed(s: QuantizationSetup, k: int) -> float:
    """Gamma closed forms of psi(alpha, k) for the three profile families."""
    return _model(s, "closed psi").psi(s, k)


def _psi_ratio_closed(s: QuantizationSetup, k: int) -> float:
    """psi(alpha, k) / psi(alpha, k+1), in branch closed form (stable)."""
    return _model(s, "closed psi ratio").ratio(s, k)


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
    ks = range(k0, k1 + 1)
    j = np.arange(len(ks))[:, None]
    ws, u, log_weight, leftover, scales = _model(s, "Gauss rule", window=False).gauss(
        s, k0, k1, nodes, j)
    g = elementwise(math.exp, _log_density_H(s, u) - np.asarray(log_weight))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below, typed
        integrals = (leftover * g) @ ws
    out = []
    for k, scale, integral in zip(ks, scales, integrals):
        psi = math.exp(gammaln(k + 1) - gammaln(k + s.d0)) * (scale * float(integral))
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
        raise PreconditionFailed("fiber degree k must be >= 0")
    if method == "closed":
        return _psi_closed(s, k)
    if method == "quadrature":
        if (s.domain, s.profile.family) in _MODELS:
            return _psi_quadrature_block(s, k, k, nodes)[0]
        return _psi_adaptive(s, k)
    raise PreconditionFailed("method must be 'closed' or 'quadrature'")


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
    closed forms and custom profiles go one moment at a time.
    """

    def __init__(self, s: QuantizationSetup, method: str, nodes: int):
        self._s, self._method, self._nodes = s, method, nodes
        self._vals: dict[int, float] = {}
        self._model = _MODELS.get((s.domain, s.profile.family)) if method == "quadrature" else None
        self._blocks: set[tuple[int, int]] = set()
        self._used: set[int] = set()

    def _block(self, k: int) -> tuple[int, int]:
        """The aligned block holding k, clipped to the moments that exist."""
        s = self._s
        k0 = k - k % _GAUSS_BLOCK
        k1 = k0 + _GAUSS_BLOCK - 1
        if s.twist < 0:
            k1 = s.fiber_degrees(k1)[-1]
        return k0, max(k, min(k1, self._model.last_degree(s)))

    def __call__(self, k: int) -> float:
        if k not in self._vals:
            if self._model is not None:
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
        raise PreconditionFailed("multi-index entries must be non-negative")
    d0 = len(m)
    tot = sum(m)
    return 2.0 * math.pi ** d0 * math.exp(
        sum(gammaln(1 + mi) for mi in m) - gammaln(tot + d0))


def fiber_moment(s: QuantizationSetup, m: Sequence[int], method: str = "closed",
                 nodes: int = 64) -> float:
    """Monomial fiber moment I_m: Gamma prefactor times psi(alpha, |m|)."""
    if len(m) != s.d0:
        raise PreconditionFailed(f"multi-index length {len(m)} != d0 {s.d0}")
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
    H = density_H(s, xi)
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
        raise PreconditionFailed("setup base carries no Bergman function eps")
    if psi is None:
        psi = _PsiCache(s, psi_method, nodes)
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    F = profile_jet(s.profile, rho, 2, "rho").value

    finite = lam < 0            # negative twist: an exact finite sum
    total, quiet = 0.0, 0
    try:
        for k in s.fiber_degrees(k_max) if finite else range(k_max + 1):
            term = eps(alpha + lam * k) / psi(k) * rho ** k
            total += term
            if not finite and k >= 1:
                quiet = quiet + 1 if abs(term) <= rel_tol * abs(total) else 0
                if quiet >= 3:
                    break
        else:
            if not finite:
                raise SeriesNonConvergent(
                    f"series tail not below {rel_tol} after {k_max} fiber degrees")
        value = math.exp(-alpha * F) * total
    except (OverflowError, ZeroDivisionError) as exc:
        raise SeriesNonConvergent(f"term at rho={rho} leaves the float range: {exc}") from exc
    if not math.isfinite(value):
        raise SeriesNonConvergent(f"series at rho={rho} sums to {value}")
    return value


def closed_target(s: QuantizationSetup) -> float:
    """Exact constant value of the Bergman function on the designated branches."""
    return _model(s, "closed target").target(s)


@dataclass(frozen=True)
class GeneratingIdentityReport:
    rows: tuple[tuple[float, float, float], ...]  # (rho, assembled, closed)
    max_deviation: float


def generating_coefficients(s: QuantizationSetup, k_count: int,
                            psi_method: str = "closed", nodes: int = 64) -> list[float]:
    """Series coefficients eps(alpha+lam k)/eps(alpha) * psi(alpha,0)/psi(alpha,k)."""
    psi = None if psi_method == "closed" else _PsiCache(s, psi_method, nodes)
    return _coefficients(s, k_count, psi)


def _coefficients(s: QuantizationSetup, k_count: int,
                  psi: Optional[_PsiCache]) -> list[float]:
    """generating_coefficients from closed ratios (psi None) or from a moment cache."""
    if s.base.eps is None:
        raise PreconditionFailed("setup base carries no Bergman function eps")
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    if psi is None:
        out = [1.0]
        for k in range(k_count - 1):
            ratio = _psi_ratio_closed(s, k)
            out.append(out[-1] * (eps(alpha + lam * (k + 1)) / eps(alpha + lam * k)) * ratio)
        return out
    e0, p0 = eps(alpha), psi(0)
    return [eps(alpha + lam * k) / e0 * p0 / psi(k) for k in range(k_count)]


def generating_identity_check(s: QuantizationSetup, rho_grid: Sequence[float],
                              psi_method: str = "closed", nodes: int = 64,
                              k_max: int = 10000) -> GeneratingIdentityReport:
    """Sup-norm gap between the assembled moment series and its closed resummation."""
    model = _model(s, "generating identity")
    psi = None if psi_method == "closed" else _PsiCache(s, psi_method, nodes)
    rho_max = max(rho_grid)
    if s.twist < 0:
        k_count = len(s.fiber_degrees(k_max))
    else:
        # grow the coefficient list until the largest-rho tail is negligible
        k_count = 8
        while k_count < k_max:
            coeffs = _coefficients(s, k_count, psi)
            tail = abs(coeffs[-1]) * rho_max ** (k_count - 1)
            partial = sum(c * rho_max ** j for j, c in enumerate(coeffs))
            if rho_max == 0 or tail <= 1e-16 * max(1.0, abs(partial)):
                break
            k_count *= 2
        else:
            raise SeriesNonConvergent("generating series does not settle")
    coeffs = _coefficients(s, k_count, psi)
    rows = []
    worst = 0.0
    for rho in rho_grid:
        lhs = 0.0
        for c in reversed(coeffs):
            lhs = lhs * rho + c
        rhs = model.rhs(s, rho)
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
    A = s.profile.A              # 0 for the linear profile of the total space
    target = closed_target(s)
    mu = 1.0 / A if A else math.inf
    identity_gap = abs((r - (1 + r) * A) - 1.0 / k)
    if rho_grid is None:
        rho_grid = np.linspace(0.0, 0.9, 10)
    cache = _PsiCache(s, psi_method, nodes)
    values = tuple(bergman_series(s, float(rho), psi=cache) for rho in rho_grid)
    _, spread = _spread(values)
    err = max(abs(v - target) for v in values) / (1.0 + abs(target))
    return BalancedCertificate(part=part, k=k, r=r, m=m, c=c, A=A, mu=mu,
                               target=target, values=values,
                               grid=tuple(float(r_) for r_ in rho_grid),
                               max_spread=spread, max_error=err,
                               base_identity_gap=identity_gap,
                               balanced=spread <= tol and err <= tol
                               and identity_gap <= 1e-12,
                               **cache.counts())
