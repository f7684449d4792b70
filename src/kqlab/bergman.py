"""Bergman functions of radially fibered metrics.

The weighted section space over the fibered model splits into fiber-degree
blocks; each block contributes one positive moment

    psi(alpha, k) = Gamma(k+1)/Gamma(k+d0) * int u^(k+d0-1) H(alpha, u) du

over the fiber range, with the density

    H(alpha, u) = e^(-alpha F(u)) F'(u)^(d0-1) (F'(u) + u F''(u)) (1 + lam u F'(u))^d

(F in the multiplicative rho-parameterization).  The Bergman function is then
the weighted series

    eps(alpha; rho) = e^(-alpha F(rho)) * sum_k eps_base(alpha + lam k) / psi(alpha, k) * rho^k.

This module computes psi both by quadrature and by the closed forms of the
three profile families, evaluates the series with tail control, and
certifies the exact product laws of the balanced bundle metrics over the
Riemann sphere.  The closed forms hold on the branches of curvature.BRANCHES,
where the moments converge: there psi(alpha, 0) and the Bergman target
prod_j (alpha - j*A) follow from the branch's effective A, and a closed
psi(alpha, k) is psi(alpha, 0) over the closed ratios psi(j)/psi(j+1), j < k,
with no Gamma function.

Quadrature moments of the three families, each on its domain, come from
Gauss rules matched to the density (Golub & Welsch, Math. Comp. 23 (1969)),
with the density itself evaluated from the profile, never through the closed
moments: the density and the series' e^(-alpha F) read one evaluation of the
profile factors, ``profiles.density_factors`` (closed forms for the three
families, an order-2 rho-jet for a custom profile), which the Gram oracle reads too.
A single moment gets its own rule; a series or a moment table shares one rule,
and one sweep of the density over its nodes, among each aligned block of
min(64, nodes) consecutive fiber degrees: an N-node rule (``--quad-nodes``) is
exact to degree 2N-1, so a span of at most N keeps each block moment as exact as
a rule of its own; on every route the density is numpy's logs and exp past those
factors.  Any other setup (a custom profile, or a family off its model's domain)
uses adaptive quadrature one moment at a time.  A moment that is not finite and
positive raises QuadratureNonConvergent when asked for.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from operator import truediv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .curvature import BaseGeometry, BergmanLaw, _branch, _close, _spread, on_required_base
from .errors import (BranchInvalid, EmptyGrid, OutOfDomain, PreconditionFailed,
                     QuadratureNonConvergent, SeriesNonConvergent)
from .jets import require
# profile_jet is not called here, but stays bound: perfbench's tracer reads it
from .profiles import RadialProfile, density_factors, linear, log_ball, profile_jet
# roots_jacobi and roots_genlaguerre stay globals of this module, looked up per
# block rule, so that a caller can wrap them to count the rules asked for (each
# is built once per (nodes, a, b) and memoised in special)
from .special import (gauss_rule, legendre, product_shifted, roots_genlaguerre,
                      roots_jacobi)

_MEMBERSHIP_TOL = 1e-9
_DIRECT_NODES = 200     # Legendre nodes per axis of a direct fiber moment

# A series or table fills its moments min(64, nodes) fiber degrees per Gauss
# rule: the leftover u^j, of degree below the span, stays within an N-node
# rule's exactness, and the cap keeps the Laguerre leftover x^j finite at large N.
_GAUSS_BLOCK = 64

# A positive-twist series stops once its tail bound is below this fraction of the sum.
_SERIES_REL_TOL = 1e-16


def _is_natural(level: float) -> bool:
    return level >= -_MEMBERSHIP_TOL and abs(level - round(level)) <= _MEMBERSHIP_TOL


@dataclass(frozen=True)
class QuantizationSetup:
    """Everything needed to quantize one fibered model at one level; d and twist are the base's."""

    d0: int
    domain: str                  # "ball" | "fullspace"
    profile: RadialProfile
    base: BaseGeometry
    alpha: float
    d: int = field(init=False)       # copies of the base's, plain attributes read per degree
    twist: float = field(init=False)

    def __post_init__(self):
        if self.d0 < 1:
            raise PreconditionFailed("fiber dimension d0 must be >= 1")
        if not math.isfinite(self.alpha):
            raise PreconditionFailed(f"alpha={self.alpha} must be finite")
        if self.domain not in ("ball", "fullspace"):
            raise PreconditionFailed("domain must be 'ball' or 'fullspace'")
        object.__setattr__(self, "d", self.base.d)
        object.__setattr__(self, "twist", self.base.twist)

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
    """Fiber density H(alpha, u) at a float or an array of u, refused past the float range."""
    log_h = _log_density_H(s, u)
    with np.errstate(over="ignore"):    # refused below
        h = np.exp(log_h)
    require(np.isfinite(h), QuadratureNonConvergent,
            lambda i: f"fiber density H(alpha, u) leaves the float range at u={np.ravel(u)[i]}")
    return h


def _log_density_H(s: QuantizationSetup, u):
    """log H(alpha, u) from the profile's density factors: their logs, and the shift's."""
    require((u >= 0) & ((u < 1) | (s.domain != "ball")), OutOfDomain,
            lambda i: f"u={np.ravel(u)[i]} outside the fiber range for domain {s.domain}")
    F, x, log_Fp, log_radial = density_factors(s.profile, u)
    shift = 1.0 + s.twist * x
    require(shift > 0, OutOfDomain,
            lambda i: f"density factors not positive at u={np.ravel(u)[i]}")
    return -s.alpha * F + (s.d0 - 1) * log_Fp + log_radial + s.d * np.log(shift)


# ---------------------------------------------------------------------------
# moment models of the closed families


def _closed_window(s: QuantizationSetup) -> float:
    """The effective A of the curvature.BRANCHES row holding s, where the closed
    moments converge at the level alpha, or BranchInvalid."""
    row = _branch(s.profile, s.d, s.twist, s.domain)
    if row is None:
        raise BranchInvalid(f"no constant-coefficient branch for {s.profile.family} on "
                            f"{s.domain} at d={s.d}, twist={s.twist}")
    A = row[1]
    # alpha/A - n rounds to 0 one ulp above n*A: a pole of the Gamma form of psi
    if s.alpha <= s.n * A or (A > 0 and s.alpha / A <= s.n):
        raise BranchInvalid(f"closed moments need alpha > n*A = {s.n * A}")
    # a negative A is a log-affine branch (2.13, 2.14), closed at the projective corner
    if A < 0 and not (_close(A, -1.0) and _close(s.twist, -1.0) and _is_natural(s.alpha)):
        raise BranchInvalid("log-affine closed moments need the projective corner "
                            "A = twist = -1 at a natural level alpha")
    return A


def _psi0(s: QuantizationSetup, A: float) -> float:
    """psi(alpha, 0) at the effective A, one division per factor: (alpha + d0*twist -
    n*A)/prod_{j=1..n} (alpha - j*A) for d = 1 and a positive twist (the ball, and the
    linear profile at A = 0), else 1/prod_{j=d+1..n} (alpha - j*A)."""
    if s.d == 1 and s.twist > 0:
        return reduce(truediv, (s.alpha - j * A for j in range(1, s.n + 1)),
                      s.alpha + s.d0 * s.twist - s.n * A)
    return reduce(truediv, (s.alpha - j * A for j in range(s.d + 1, s.n + 1)), 1.0)


def _ball_ratio(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0, n, A = s.alpha, s.twist, s.d0, s.n, s.profile.A
    if s.d == 1:
        xk = alpha + lam * k + d0 * lam - n * A
        xk1 = alpha + lam * (k + 1) + d0 * lam - n * A
        return (alpha / A + k) / (k + 1) * (xk / xk1)
    return (alpha / lam + k - s.d) / (k + 1)


def _ball_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    b0 = k0 + s.d0 - 1
    aexp = s.alpha / s.profile.A - s.n - 1
    xs, ws = gauss_rule(roots_jacobi, nodes, aexp, b0)
    u = 0.5 * (xs + 1.0)
    return ws, u, aexp * np.log1p(-u), u ** j, 2.0 ** (-(aexp + b0 + 1))


def _linear_ratio(s: QuantizationSetup, k: int) -> float:
    alpha, lam, d0 = s.alpha, s.twist, s.d0
    xk = alpha + lam * (k + d0)
    xk1 = alpha + lam * (k + 1 + d0)
    return s.profile.c * alpha * xk / ((k + 1) * xk1)


def _linear_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    xs, ws = gauss_rule(roots_genlaguerre, nodes, k0 + s.d0 - 1)
    scale = s.alpha * s.profile.c
    u = xs / scale
    return ws, u, -s.alpha * s.profile.c * u, xs ** j, np.power(scale, -(k0 + s.d0 + j[:, 0]))


def _log_affine_gauss(s: QuantizationSetup, k0: int, k1: int, nodes: int, j: np.ndarray):
    A, c, b0 = s.profile.A, s.profile.c, k0 + s.d0 - 1
    aexp = -s.alpha / A - k1
    xs, ws = gauss_rule(roots_jacobi, nodes, aexp, b0)
    v = 0.5 * (xs + 1.0)
    u = v / (c * (1.0 - v))
    return (ws, u, (aexp + k1 + s.d0 + 1) * np.log1p(-v),
            v ** j * (1.0 - v) ** (k1 - k0 - j),
            np.power(c, -(k0 + s.d0 + j[:, 0])) * 2.0 ** (-(aexp + b0 + 1)))


# One record per family states what differs by family: psi(k)/psi(k+1), closed
# and with no Gamma function; the resummed generating series (rhs); the Gauss
# rule of one block of moments, as (weights, nodes u, log of the weight at u,
# leftover factors, scales), which reads no closed form; and the last degree its
# moments cover, -1 if none.  The closed forms hold on curvature.BRANCHES (2.10-2.14),
# read by _closed_window; psi(alpha, 0) and the Bergman target follow from its A.
_MomentModel = namedtuple("_MomentModel", "ratio rhs gauss last_degree")


_MODELS = {
    ("ball", "logball"): _MomentModel(
        ratio=_ball_ratio, gauss=_ball_gauss,
        last_degree=lambda s: math.inf if s.alpha / s.profile.A - s.n > 0 else -1,
        rhs=lambda s, rho: (1.0 - rho) ** (-s.alpha / (s.profile.A if s.d == 1 else s.twist))),
    ("fullspace", "linear"): _MomentModel(
        ratio=_linear_ratio, gauss=_linear_gauss,
        last_degree=lambda s: math.inf if s.alpha > 0 else -1,
        rhs=lambda s, rho: math.exp(s.profile.c * s.alpha * rho)),
    ("fullspace", "logaffine"): _MomentModel(
        ratio=lambda s, k: s.profile.c * (s.alpha - k + s.d) / (k + 1), gauss=_log_affine_gauss,
        rhs=lambda s, rho: (1.0 + s.profile.c * rho) ** s.alpha,
        last_degree=lambda s: (math.ceil(-s.alpha / s.profile.A - _MEMBERSHIP_TOL)
                               if s.profile.A < 0 else -1)),
}


def _psi_quadrature_block(s: QuantizationSetup, k0: int, k1: int,
                          nodes: int) -> np.ndarray:
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
    moment.  g comes from ``profiles.density_factors``, which reads no moment model, and
    numpy's exp, as density_H does.  The values are unchecked, so that a
    moment never asked for refuses nothing: a g or a scale past the float range gives
    inf, refused when its moment is handed out.
    """
    j = np.arange(k1 - k0 + 1)[:, None]
    # Gamma(k+1)/Gamma(k+d0) = 1/((k+1)...(k+d0-1)): an integer product, exact in floats
    # below 2**53 (past it, in integers rounded once), where an lgamma difference errs by
    # |lgamma| ulps; not special.product_shifted, which computes the targets these certify
    rising = np.prod(k0 + j + np.arange(1.0, s.d0), axis=1)
    if rising[-1] >= 2.0 ** 53:
        rising = np.array([float(math.prod(range(k + 1, k + s.d0))) for k in range(k0, k1 + 1)])
    with np.errstate(over="ignore", invalid="ignore"):   # checked when handed out
        ws, u, log_weight, leftover, scales = _MODELS[s.domain, s.profile.family].gauss(
            s, k0, k1, nodes, j)
        log_g = _log_density_H(s, u) - log_weight
        return scales * ((leftover * np.exp(log_g)) @ ws) / rising


def _psi_adaptive(s: QuantizationSetup, k: int) -> float:
    """psi(alpha, k) by adaptive quadrature on the native fiber range."""
    from scipy.integrate import quad

    upper = 1.0 if s.domain == "ball" else np.inf
    val, err = quad(lambda u: u ** (k + s.d0 - 1) * density_H(s, u), 0.0, upper,
                    epsabs=0.0, epsrel=1e-12, limit=400)
    if not (math.isfinite(val) and val > 0) or err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureNonConvergent(
            f"adaptive fiber moment failed: value={val}, abserr={err}")
    return val / math.prod(range(k + 1, k + s.d0))


def psi_moment(s: QuantizationSetup, k: int, method: str = "closed",
               nodes: int = 64) -> float:
    """Fiber moment psi(alpha, k) by closed form, or by quadrature with a rule of its own."""
    table = MomentTable(s, method, nodes)
    if table._gauss:
        table._gate(k)
        table._vals[k] = float(_psi_quadrature_block(s, k, k, nodes)[0])
    return table(k)


class MomentTable:
    """The moments psi(alpha, k) = ``table(k)`` of one setup by one method, memoized,
    with ``ratio(k)`` = psi(k-1)/psi(k) and counts of the work done.

    The closed route walks psi(alpha, 0) over the closed ratios as a mantissa and
    a power of two, one ratio per new degree, and refuses a moment that is not a
    normal float; its ``ratio(k)`` is the closed ratio, finite where psi(k) is not.
    Quadrature fills the three families an aligned block of min(_GAUSS_BLOCK, nodes)
    degrees per Gauss rule, any other setup adaptively one moment at a time, and
    refuses a moment that is not finite and positive; ``_gate`` refuses bad degrees.
    For the series, ``_ratios`` hands out the ratios of one block as one array.
    """

    def __init__(self, s: QuantizationSetup, method: str = "closed", nodes: int = 64):
        if method not in ("closed", "quadrature"):
            raise PreconditionFailed("method must be 'closed' or 'quadrature'")
        self.setup, self._nodes = s, nodes
        self._closed = method == "closed"
        model = _MODELS.get((s.domain, s.profile.family))
        self._gauss = model is not None and not self._closed
        self._last = model.last_degree(s) if model else math.inf    # adaptive: any k
        # the least moment handed out: a normal float closed, any positive float by quadrature
        self._least = 2.0 ** -1022 if self._closed else math.ulp(0.0)
        self._span = max(1, min(_GAUSS_BLOCK, nodes))   # gauss_rule refuses nodes < 1
        self._vals: dict[int, float] = {}
        self._walk = (0.5, 1)       # the last closed moment walked, as mantissa and exponent
        self._blocks: set[tuple[int, int]] = set()
        self._used: set[int] = set()
        self._ratio = None          # the closed ratio, set with psi(alpha, 0)

    def _closed_ratio(self):
        """The closed ratio; the branch window and psi(alpha, 0) once, when first needed."""
        if self._ratio is None:
            s = self.setup
            self._vals[0] = _psi0(s, _closed_window(s))
            self._walk = math.frexp(self._vals[0])
            self._ratio = _MODELS[s.domain, s.profile.family].ratio
        return self._ratio

    def _gate(self, k, least: int = 0) -> None:
        """The one refusal of a fiber degree: PreconditionFailed unless k is an integer >=
        least, then the closed route's branch window, then BranchInvalid past last_degree."""
        if not (isinstance(k, int) and k >= least):
            raise PreconditionFailed(f"fiber degree k={k!r} must be an integer >= {least}")
        if self._closed:
            self._closed_ratio()
        if k > self._last:
            raise BranchInvalid(f"fiber degree k={k} past the model's last degree {self._last}")

    def _fill(self, k: int) -> None:
        s = self.setup
        if self._closed:
            ratio = self._closed_ratio()
            m, e = self._walk
            for j in range(len(self._vals) - 1, k):
                r, re = math.frexp(ratio(s, j))
                m, de = math.frexp(m / r if r else math.inf)
                e += de - re
                self._walk = m, e
                self._vals[j + 1] = math.ldexp(m, e) if e <= 1024 else math.inf
        elif self._gauss:     # k's aligned block, clipped to the moments that exist
            k0 = k - k % self._span
            k1 = k0 + self._span - 1 if s.twist > 0 else s.fiber_degrees(k0 + self._span - 1)[-1]
            k1 = max(k, min(k1, self._last))
            self._vals.update(zip(range(k0, k1 + 1),
                                  _psi_quadrature_block(s, k0, k1, self._nodes).tolist()))
            self._blocks.add((k0, k1))
        else:
            self._vals[k] = _psi_adaptive(s, k)

    def __call__(self, k: int) -> float:
        if k not in self._vals:
            self._gate(k)
            self._fill(k)
        psi = self._vals[k]
        if not self._least <= psi < math.inf:
            raise QuadratureNonConvergent(
                f"closed fiber moment psi(alpha, {k}) = {psi} is not a normal float"
                if self._closed else f"fiber moment psi(alpha, {k}) = {psi} from a "
                f"{self._nodes}-node Gauss rule is not finite and positive")
        self._used.add(k)
        return psi

    def ratio(self, k: int) -> float:
        self._gate(k, 1)
        if self._closed:
            self._used.add(k)
            return self._ratio(self.setup, k - 1)
        return self(k - 1) / self(k)

    def _ratios(self, k0: int, k1: int) -> np.ndarray:
        """ratio(k) for k0 <= k <= k1 as one array, cut at the first k whose moments are not
        at hand or refused; it fills, refuses and marks nothing, under the caller's errstate."""
        if self._closed:
            return self._closed_ratio()(self.setup, np.arange(k0 - 1.0, min(k1, self._last)))
        ks = range(k0 - 1, k1 + 1)
        psi = np.fromiter(map(self._vals.get, ks, [math.nan] * len(ks)), float, len(ks))
        ok = (psi >= self._least) & (psi < math.inf)     # a nan, not at hand, fails
        n = len(ks) - 1 if ok.all() else max(np.argmin(ok) - 1, 0)
        return psi[:n] / psi[1:n + 1]

    def counts(self) -> dict[str, int]:
        """Gauss rules built, nodes per rule and fiber degrees used so far."""
        return {"gauss_rules": len(self._blocks),
                "nodes_per_rule": self._nodes if self._blocks else 0,
                "fiber_degrees": len(self._used)}


# ---------------------------------------------------------------------------
# fiber moments


def fiber_moment(s: QuantizationSetup, m: Sequence[int], method: str = "closed",
                 nodes: int = 64) -> float:
    """Monomial fiber moment I_m: multinomial prefactor prod_i m_i!/|m|! times psi(alpha, |m|)."""
    if len(m) != s.d0:
        raise PreconditionFailed(f"multi-index length {len(m)} != d0 {s.d0}")
    if any(mi < 0 for mi in m):
        raise PreconditionFailed("multi-index entries must be non-negative")
    tot = sum(m)
    pref = math.prod(map(math.factorial, m)) / math.factorial(tot)   # exact, rounded once
    return pref * psi_moment(s, tot, method, nodes)


def fiber_moment_direct(s: QuantizationSetup, m: Sequence[int]) -> float:
    """I_m by direct quadrature of |w^m|^2 H over the fiber ball.

    The angular integrations are exact by rotational symmetry; the radial
    ones run on the simplex v1 + ... + v_d0 < 1 of squared moduli, keeping
    the full dependence on the distribution of the multi-index.
    """
    if s.domain != "ball":
        raise BranchInvalid("direct fiber moments are implemented on the ball fiber")
    if len(m) != s.d0 or s.d0 not in (1, 2):
        raise BranchInvalid("direct fiber moments cover d0 in {1, 2}")
    xi, wxi = legendre(_DIRECT_NODES)
    # v1 = xi*eta, v2 = xi*(1 - eta), Jacobian xi: a xi sum times an eta sum (none if d0 = 1)
    radial = float(np.dot(wxi, xi ** (sum(m) + s.d0 - 1) * density_H(s, xi)))
    return radial * math.prod(float(np.dot(wxi, xi ** mj * (1.0 - xi) ** m[-1]))
                              for mj in m[:-1])


# ---------------------------------------------------------------------------
# kernel series, closed targets, certification


def _moment_series(s: QuantizationSetup, radii: np.ndarray, psi: MomentTable,
                   k_max: int = 10000, count: Optional[int] = None):
    """The terms d_k = eps(alpha + lam k) psi(0)/psi(k) top^k at top = max |rho|, and
    sum_k d_k (rho/top)^k at each radius: each degree multiplies the moment part by
    top psi(k-1)/psi(k), so no top^k, nor on the closed route any psi(k), is formed.

    The degrees go a block of the table at a time, by array operations that round as
    the degree loop did: products and sums accumulate in order, eps is a BergmanLaw on
    the levels' array (any other callable per level).  ratio(k) opens a block, filling
    or refusing; it ends where _ratios stops, at a total past floats, or at the stop.

    ``count`` fixes the number of terms.  Otherwise a negative twist sums every
    admissible degree, refused if they run past k_max, and a positive twist stops at
    the first k with r = d_k/d_(k-1) below 1 and d_k r/(1 - r) <= _SERIES_REL_TOL of
    the sum: a tail bound, as the term ratios do not grow (moments of positive
    densities are log-convex; the affine, product and power laws have falling ratios).
    """
    if k_max < 0:
        raise PreconditionFailed(f"series cap k_max must be >= 0, got {k_max}")
    if s.base.eps is None:
        raise PreconditionFailed("setup base carries no Bergman function eps")
    if radii.size == 0:
        raise EmptyGrid("the moment series needs at least one radius")
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    law = eps if isinstance(eps, BergmanLaw) else (
        lambda levels: np.fromiter(map(eps, levels.tolist()), float, levels.size))
    top = float(np.abs(radii).max())
    bounded = count is None and lam > 0
    degrees = (range(1, count) if count is not None else
               range(1, k_max + 1) if bounded else s.fiber_degrees(k_max + 1)[1:])
    if count is None and k_max + 1 in degrees:
        raise SeriesNonConvergent(f"admissible fiber degrees run past k_max = {k_max}")
    with np.errstate(all="ignore"):     # term 0 as the others: by the array law, inf past floats
        terms = law(np.array([alpha])).tolist()
    if not math.isfinite(terms[0]):
        raise SeriesNonConvergent(f"series term 0 at rho={top} leaves the float range")
    moment, total, k = 1.0, terms[0], 1
    while k < degrees.stop:
        k1 = min(k - k % psi._span + psi._span, degrees.stop) - 1    # the end of k's block
        first = psi.ratio(k)        # fills k's block, or refuses k
        with np.errstate(all="ignore"):     # the block runs past the stopping degree
            f = np.concatenate(([moment * (top * first)], top * psi._ratios(k + 1, k1)))
            moments = np.multiply.accumulate(f)
            d = law(alpha + lam * np.arange(k, k + f.size)) * moments
            totals = np.add.accumulate(np.concatenate(([total], d)))[1:]
            ends = ~np.isfinite(totals)
            if bounded:
                r = np.abs(d / np.concatenate(([terms[-1]], d[:-1])))    # past a zero: no stop
                ends |= (r < 1) & (np.abs(d) * r / (1 - r) <= _SERIES_REL_TOL * np.abs(totals))
            ends = np.flatnonzero(ends)
        size = ends[0] + 1 if ends.size else f.size
        terms += d[:size].tolist()
        psi._used.update(range(k, k + size))    # as ratio(k + 1), ratio(k + 2), ... mark them
        if not math.isfinite(totals[size - 1]):
            raise SeriesNonConvergent(
                f"series term {k + size - 1} at rho={top} leaves the float range")
        if ends.size:
            break
        moment, total, k = moments[-1], totals[-1], k + f.size
    else:
        if bounded:
            raise SeriesNonConvergent(
                f"series tail not below {_SERIES_REL_TOL} after {k_max} fiber degrees")
    x = radii / top if top else radii
    return terms, np.reshape([_horner(terms, xi) for xi in x.ravel().tolist()], radii.shape)


def _horner(coeffs: list[float], x: float) -> float:
    """sum_k coeffs[k] x^k by Horner's rule, per radius (a numpy op per degree costs more)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bergman_series(s: QuantizationSetup, rho, psi_method: str = "closed",
                   nodes: int = 64, k_max: int = 10000,
                   psi: Optional[MomentTable] = None):
    """Bergman function of the fibered metric at fiber radius rho, or at each of several radii.

    e^(-alpha F(rho)) / psi(alpha, 0) * sum_k d_k (rho/top)^k, with the series
    terms d_k of _moment_series at the largest radius top: one sum serves the
    whole grid.  A float rho gives a float, a sequence a list.  ``psi``, a
    MomentTable of this same setup, supplies the moments and keeps their counts.
    """
    radii = np.asarray(rho, dtype=float)
    require((radii >= 0) & ((radii < 1) | (s.domain != "ball")), OutOfDomain,
            lambda i: f"rho={radii.flat[i]} outside the fiber range")
    if psi is None:
        psi = MomentTable(s, psi_method, nodes)
    elif psi.setup != s:
        raise PreconditionFailed("the moment table psi was built for another setup")
    _, sums = _moment_series(s, radii, psi, k_max)
    F = density_factors(s.profile, radii)[0]
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        values = np.exp(-s.alpha * F) * sums / psi(0)
    require(np.isfinite(values), SeriesNonConvergent,
            lambda i: f"series at rho={radii.flat[i]} sums to {np.ravel(values)[i]}")
    return values.tolist()


def closed_target(s: QuantizationSetup) -> float:
    """Exact constant value of the Bergman function on the designated branches, over their
    required base only: the paper's law prod_{j=1..n} (alpha - j*A) at _closed_window's A."""
    A = _closed_window(s)
    if not on_required_base(s.base, s.profile, s.d0):
        raise BranchInvalid(f"the base's (a1, a2) = ({s.base.a1}, {s.base.a2}) is not "
                            "curvature.required_base, so the Bergman function is not constant")
    return product_shifted(s.alpha, A, s.n)


@dataclass(frozen=True)
class GeneratingIdentityReport:
    rows: tuple[tuple[float, float, float], ...]  # (rho, assembled, closed)
    max_deviation: float       # worst |assembled - closed| / (1 + |closed|)


def _eps_alpha(s: QuantizationSetup, terms: list[float]) -> float:
    """Term 0 of the moment series, eps(alpha), which the generating identity divides by."""
    if terms[0] == 0:
        raise PreconditionFailed(f"eps(alpha) = 0 at alpha = {s.alpha}: the generating "
                                 "identity divides by it")
    return terms[0]


def generating_coefficients(s: QuantizationSetup, k_count: int,
                            psi_method: str = "closed", nodes: int = 64) -> list[float]:
    """Series coefficients eps(alpha+lam k)/eps(alpha) * psi(alpha,0)/psi(alpha,k)."""
    terms, _ = _moment_series(s, np.ones(1), MomentTable(s, psi_method, nodes), count=k_count)
    eps0 = _eps_alpha(s, terms)
    return [d / eps0 for d in terms]


def generating_identity_check(s: QuantizationSetup, rho_grid: Sequence[float],
                              psi_method: str = "closed", nodes: int = 64,
                              k_max: int = 10000) -> GeneratingIdentityReport:
    """Worst relative gap between the assembled moment series and its closed resummation."""
    _closed_window(s)
    rhs = _MODELS[s.domain, s.profile.family].rhs
    radii = np.asarray(rho_grid, dtype=float)
    terms, sums = _moment_series(s, radii, MomentTable(s, psi_method, nodes), k_max)
    eps0 = _eps_alpha(s, terms)
    rows = tuple((r, a / eps0, rhs(s, r)) for r, a in zip(radii.tolist(), sums.tolist()))
    return GeneratingIdentityReport(rows, max(abs(a - b) / (1.0 + abs(b)) for _, a, b in rows))


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
        if c != 1.0:
            raise PreconditionFailed(f"the ball part reads no profile scale c, got c={c}")
        if k * r <= 1:
            raise PreconditionFailed("kr>1 required for the ball-subbundle part")
        A = (k * r - 1) / (k * (r + 1))
        return QuantizationSetup(d0=r, domain="ball", profile=log_ball(A), base=base,
                                 alpha=float(m))
    if part == "total":
        if k != 1 or r != 1:
            raise PreconditionFailed("the total-space part needs k = r = 1")
        if not 0 < c < math.inf:
            raise PreconditionFailed(f"c must be positive and finite, got {c}")
        return QuantizationSetup(d0=r, domain="fullspace", profile=linear(c), base=base,
                                 alpha=float(m))
    raise PreconditionFailed(f"unknown part {part!r}; use 'ball' or 'total'")


def balanced_certify(k: int, r: int, m: int, part: str = "ball",
                     rho_grid: Optional[Sequence[float]] = None, c: float = 1.0,
                     psi_method: str = "quadrature", nodes: int = 64,
                     tol: float = 1e-8) -> BalancedCertificate:
    """Certify the constant Bergman function of the balanced bundle metrics.

    Runs the moment series over a fiber-radius grid and compares against the
    exact product law; the moment route defaults to quadrature so the check
    does not reuse the closed forms it certifies.
    """
    s = balanced_setup(k, r, m, part, c)
    A = s.profile.A              # 0 for the linear profile of the total space
    target = closed_target(s)
    mu = 1.0 / A if A else math.inf
    identity_gap = abs((r - (1 + r) * A) - 1.0 / k)
    if rho_grid is None:
        rho_grid = np.linspace(0.0, 0.9, 10)
    table = MomentTable(s, psi_method, nodes)
    values = tuple(bergman_series(s, rho_grid, psi=table))
    _, spread = _spread(values)
    err = max(abs(v - target) for v in values) / (1.0 + abs(target))
    return BalancedCertificate(part=part, k=k, r=r, m=m, c=c, A=A, mu=mu,
                               target=target, values=values,
                               grid=tuple(float(r_) for r_ in rho_grid),
                               max_spread=spread, max_error=err,
                               base_identity_gap=identity_gap,
                               balanced=spread <= tol and err <= tol
                               and identity_gap <= 1e-12,
                               **table.counts())
