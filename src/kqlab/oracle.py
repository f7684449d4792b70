"""Brute-force Bergman oracles: section norms by direct quadrature.

These reconstruct Bergman functions from first principles -- monomial
section norms by numerical integration of |z^p w^q|^2 against the full
metric weight e^(-m*potential) * det(complex Hessian), then kernel assembly
-- without using the fiber-moment factorization the fast path relies on.
Rotational symmetry keeps the Gram matrix diagonal, which the off-diagonal
probe certifies numerically.

The base chart is the complex line with potential k*log(1+|z|^2): sections
of the degree-mk bundle over the sphere correspond to the finite-norm
monomials on the chart, so the oracle is finite-dimensional per fiber
degree.  Norms are computed for the integrable exponents p <= k*(m + q)
only; the others are infinite by definition.  The two-dimensional weight is
the Hessian determinant on the full node grid times exact per-row and
per-column factors: no exp or log per cell.  In the Legendre node
sigma = |z|^2/(1+|z|^2) of the base axis, each integrable z-factor
|z|^(2p) e^(-(m+q)*potential) is the Bernstein factor sigma^p
(1-sigma)^(k(m+q)-p) <= 1, a running product of floats in [0, 1]: each
block of fiber degrees reads slices of one table of these products against
fiber sums of the weight scaled per node.  Fiber powers are relative to a
power of two above the largest fiber node, so the total-space oracle
(Laguerre nodes) reaches q_cap = 120 at 200 nodes without overflow.  A
subnormal is 0: in an operand, which it would only slow, and in a norm, which
is then refused.  The Gauss rules special.legendre and laguerre are shared
read-only, and so are the fiber density's profile factors (profiles.density_factors),
which read no moment model, branch row or closed moment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import bergman
from .errors import (BranchInvalid, OutOfDomain, PreconditionFailed,
                     QuadratureNonConvergent, TruncationInsufficient)
from .profiles import density_factors
from .special import laguerre, legendre

# a block of fiber degrees grows the Bernstein factors of its first column by
# at most (1 - sigma)^-j, j below k times the block width: at most this, 2^500
_BLOCK_GROWTH = 500 * math.log(2.0)

_BLAS_CHUNK = 256       # the longest node axis OpenBLAS sums in one order at any thread count
_TAIL_TOL = 1e-3        # the largest relative fiber-degree tail the Hartogs oracle accepts
_PROBE_RADII, _PROBE_ANGLES = 32, 24    # Gram probe: Gauss nodes per radius, points per angle


@dataclass(frozen=True)
class GramOracleConfig:
    """Basis caps and quadrature resolution for the Gram-matrix oracle.

    ``q_cap`` bounds the fiber degree, and the z-exponent cap is the largest
    integrable exponent k*(m + q_cap).  ``s_nodes`` is
    the Gauss rule size on each radial axis.  Sample points are (|z|^2, rho)
    pairs with rho the scaled fiber radius.
    """

    bundle_degree: int
    power: int
    q_cap: int = 40
    s_nodes: int = 200
    sample_points: tuple[tuple[float, float], ...] = (
        (0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 0.7))

    def __post_init__(self):
        if self.bundle_degree < 1 or self.power < 1:
            raise PreconditionFailed("bundle degree and power must be >= 1")
        if self.q_cap < 2:
            raise PreconditionFailed("q_cap must be >= 2 for tail estimation")
        if not self.sample_points:
            raise PreconditionFailed("the oracle needs at least one sample point")

    @property
    def effective_p_cap(self) -> int:
        return self.bundle_degree * (self.power + self.q_cap)


@dataclass(frozen=True)
class Cp1OracleReport:
    k: int
    m: int
    grid: tuple[float, ...]          # |z|^2 sample values
    values: tuple[float, ...]        # reconstructed Bergman function
    target: float                    # m + 1/k
    max_abs_error: float
    max_spread: float
    norms: tuple[float, ...]


def cp1_bergman_oracle(k: int, m: int, z_grid: Sequence[float],
                       nodes: int = 200) -> Cp1OracleReport:
    """Bergman function of the degree-mk sphere bundle by radial quadrature.

    Monomial norms come from one-dimensional quadrature of the chart weight
    (no Beta closed form on this path); the kernel is then assembled and
    tested for constancy against m + 1/k.
    """
    if k < 1 or m < 1:
        raise PreconditionFailed("k, m must be >= 1")
    if len(z_grid) == 0:
        raise OutOfDomain("z_grid must be non-empty")
    for s in z_grid:
        if not 0 <= s < math.inf:
            raise OutOfDomain(f"|z|^2 grid value {s} is not a finite non-negative number")
    # |z^j|^2 = k * int_0^inf s^j (1+s)^(-mk-2) ds, mapped to (0,1) by s = v/(1-v)
    v, wv = legendre(nodes)
    jmax = m * k
    norms = []
    for j in range(jmax + 1):
        integrand = v ** j * (1.0 - v) ** (jmax - j)
        norms.append(k * float(np.dot(wv, integrand)))
    if any(not (x > 0 and math.isfinite(x)) for x in norms):
        raise QuadratureNonConvergent("cp1 monomial norms are not all positive")
    # (1+s)^(-mk) sum_j s^j/N_j, summed as sum_j p^j q^(mk-j)/N_j with p = s/(1+s)
    # and q = 1/(1+s): every factor is at most 1, so no power of s is formed
    values = []
    for s in z_grid:
        p, q = s / (1.0 + s), 1.0 / (1.0 + s)
        values.append(sum(p ** j * q ** (jmax - j) / norms[j] for j in range(jmax + 1)))
    target = m + 1.0 / k
    err = max(abs(val - target) for val in values)
    spread = max(values) - min(values)
    return Cp1OracleReport(k=k, m=m, grid=tuple(float(s) for s in z_grid),
                           values=tuple(values), target=target,
                           max_abs_error=err, max_spread=spread,
                           norms=tuple(norms))


@dataclass(frozen=True)
class HartogsOracleReport:
    samples: tuple[tuple[float, float], ...]
    values: tuple[float, ...]
    target: Optional[float]
    max_abs_error: Optional[float]
    tail_fraction: float             # worst top-shell tail estimate / value
    basis_size: int
    q_cap: int
    p_cap: int


def _radial_weight(cfg: GramOracleConfig, setup: bergman.QuantizationSetup):
    """Weights of the tensor quadrature in (|z|^2, rho) coordinates.

    Returns (s = |z|^2, base potential phi, fiber nodes xi, fiber values F,
    the full measure but its factor e^(-m*phi)): the Hessian determinant on
    the node grid times one exact factor per row and one per column.
    """
    k, m = cfg.bundle_degree, cfg.power
    sig, wsig = legendre(cfg.s_nodes)
    s = sig / (1.0 - sig)
    jac = 1.0 / (1.0 - sig) ** 2
    phi = k * np.log1p(s)
    phi_p = k / (1.0 + s)
    phi_pp = -k / (1.0 + s) ** 2

    if setup.domain == "ball":
        xi, wxi = legendre(cfg.s_nodes)
        log_comp = np.zeros_like(xi)
    elif setup.profile.family != "linear":
        raise PreconditionFailed("the full-space fiber rule integrates the linear profile "
                                 f"only, not {setup.profile.family}")
    else:
        # integrate the fiber variable, in units of the profile scale c, against
        # the exponential envelope e^(-m c rho) of the linear profile
        rate = m * setup.profile.c
        xf, wf = laguerre(cfg.s_nodes)
        xi, wxi = xf / rate, wf / rate
        log_comp = xf  # compensates the e^(-x) folded into the Laguerre weight

    F, x, _, log_radial = density_factors(setup.profile, xi)     # factors all positive
    radial, one_shift = np.exp(log_radial), 1.0 + x

    # complex Hessian determinant of phi(s) + F(e^phi v) in (z, w), v = e^-phi xi:
    # Z*W - X formed in place in two node-by-node buffers, Z in det, W and X in t
    det, t = np.empty((s.size, xi.size)), np.empty((s.size, xi.size))
    np.multiply(phi_pp[:, None], one_shift, out=det)
    det += np.multiply((phi_p ** 2)[:, None], xi * radial, out=t)
    det *= s[:, None]
    det += np.multiply(phi_p[:, None], one_shift, out=t)
    det *= np.multiply(np.exp(phi)[:, None], radial, out=t)
    det -= np.multiply((s * np.exp(phi) * phi_p ** 2)[:, None], xi * radial ** 2, out=t)
    if np.any(det <= 0):
        raise QuadratureNonConvergent("Hessian determinant not positive on the grid")

    # one product per row and per column; a rule weight that underflows to 0 stays 0
    det *= (jac * wsig * np.exp(-phi))[:, None]
    det *= wxi * np.exp(log_comp - m * F)
    return s, phi, xi, F, det


def _fiber_sums(cfg: GramOracleConfig, setup: bergman.QuantizationSetup):
    """Mc[s, q] = sum over the fiber nodes of _radial_weight's two-dimensional
    weight times (xi/2^e)^q; each column scaled by an exact power of two.
    Returns Mc and the exponent that undoes both powers.  The subnormal cells
    of the weight and of the fiber powers are zeroed first: on the total space
    they slow the product, and they change no sum.

    Fiber powers are relative to 2^e above the largest node: exact, and they
    do not overflow on the Laguerre nodes of the total space (e = 0 on the
    ball).  No separability of the weight is used: that is what the oracle
    certifies.
    """
    s, phi, xi, F, weight = _radial_weight(cfg, setup)
    e = max(0, math.frexp(float(xi.max()))[1])
    qarr = np.arange(cfg.q_cap + 1)
    mc = _node_sum(_flushed(weight), _flushed(np.ldexp(xi, -e)[:, None] ** qarr))
    scale = np.frexp(mc.max(axis=0))[1]
    return np.ldexp(mc, -scale), e * qarr + scale


def _flushed(a: np.ndarray) -> np.ndarray:
    """a with its subnormal cells set to 0, in place."""
    np.copyto(a, 0.0, where=a < np.finfo(float).tiny)
    return a


def _node_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, its shared (node) axis summed in chunks of _BLAS_CHUNK, added in order:
    OpenBLAS sums a longer axis in an order that depends on its thread count.
    An empty axis (a one-node rule has no sigma below 1/2) sums to zeros."""
    return functools.reduce(np.add, (a[:, i: i + _BLAS_CHUNK] @ b[i: i + _BLAS_CHUNK]
                                     for i in range(0, max(b.shape[0], 1), _BLAS_CHUNK)))


def _rounded(num: int, den: int) -> tuple[float, float]:
    """num/den as the nearest float f, and its exact relative rounding num/(den*f) - 1."""
    f = num / den
    c, d = f.as_integer_ratio()
    return f, (num * d - c * den) / (c * den)


@functools.lru_cache(maxsize=8)
def _bernstein_nodes(nodes: int):
    """The z-axis Legendre nodes sigma, ascending, set up for the Bernstein
    factors sigma^p (1-sigma)^(K-p).

    Per node: u = 1-sigma and ratio = min(sigma, u)/max(sigma, u) <= 1 as
    floats, each with its exact relative rounding (du, dratio): the true j-th
    powers are the float powers times 1 + j*du and 1 + j*dratio, to second
    order in the rounding.  The first `low` nodes lie below 1/2, where
    max(sigma, u) = u; above, u is exact and du = 0.
    """
    sig = legendre(nodes)[0]
    columns = []
    for a, b in map(float.as_integer_ratio, sig.tolist()):   # sigma = a/b
        columns.append(_rounded(b - a, b) + _rounded(min(a, b - a), max(a, b - a)))
    u, du, ratio, dratio = np.array(columns).T
    shared = (np.maximum(sig, u), u, du, ratio, dratio)
    for a in shared:
        a.flags.writeable = False
    return (int(np.count_nonzero(sig < 0.5)),) + shared


def _norm_matrix(cfg: GramOracleConfig, setup: bergman.QuantizationSetup):
    """Diagonal Gram entries N[p, q] for the monomial basis z^p w^q.

    Exponents failing the integrability test (decay exponent of the z-axis
    integrand not below -1) are excluded via an infinite norm, and only the
    integrable rows p <= K_q = k*(m + q) of each fiber degree are integrated.
    The z-axis node is sigma = s/(1+s), so s^p e^(-(m+q)*phi) is the Bernstein
    factor sigma^p (1-sigma)^(K_q - p), at most 1 on exactly those rows, and
    N[p, q] = sum_s sigma^p (1-sigma)^(K_q - p) Mc[s, q] with Mc from
    _fiber_sums.  A node's factors are one power of max(sigma, 1-sigma) times
    a running product of the ratio min/max, so no exp or log is formed per
    (p, q, node).  The running products are one table per call; a block of
    fiber degrees scales its right-hand side Mc by the power of max per node
    and multiplies it by slices of that table, the nodes below 1/2 and above
    summed apart.  Subnormal cells of the table and of the right-hand side are
    0.  A norm that comes out 0 or subnormal, before or after its power-of-two
    scaling, is 0, never clamped: the oracle refuses it as non-convergent.
    """
    k, m = cfg.bundle_degree, cfg.power
    P, Q = cfg.effective_p_cap, cfg.q_cap
    mc, exponent = _fiber_sums(cfg, setup)
    low, big, u, du, ratio, dratio = _bernstein_nodes(cfg.s_nodes)
    # powers[:, j] = ratio^j (1 + j*dratio), the factor in one buffer (a nested
    # expression raised the peak RSS): a node's factors without their power of
    # big = max(sigma, 1-sigma), which scales the right-hand side
    powers = np.ones((big.size, P + 1))
    np.cumprod(np.broadcast_to(ratio[:, None], (big.size, P)), axis=1, out=powers[:, 1:])
    factor = np.multiply.outer(dratio, np.arange(P + 1.0))
    factor += 1.0
    powers *= factor
    # a block of fiber degrees q0..q1 takes the factors of K = K_q0 on rows up
    # to K_q1: column q a further (1-sigma)^(k(q - q0)), and above 1/2 the rows
    # p > K the growth ratio^-(p - K), at most 2^500 by the choice of width
    width = 1 + int(_BLOCK_GROWTH // (k * -math.log(u.min())))
    growth = 1.0 / powers[low:, 1: k * (width - 1) + 1]
    d = k * np.arange(width)
    shrink = u[:, None] ** d * (1.0 + du[:, None] * d)
    _flushed(powers)
    N = np.full((P + 1, Q + 1), np.inf)
    for q0 in range(0, Q + 1, width):
        q1 = min(q0 + width, Q + 1) - 1
        K, cut = k * (m + q0), k * (m + q1)
        lead = (big ** K * (1.0 + K * du))[:, None]
        rhs = _flushed(mc[:, q0: q1 + 1] * shrink[:, : q1 - q0 + 1] * lead)
        # below 1/2 row p reads ratio^p; above, rows p <= K read ratio^(K - p)
        block = N[: cut + 1, q0: q1 + 1]
        block[:] = _node_sum(powers[:low, : cut + 1].T, rhs[:low])
        block[K::-1] += _node_sum(powers[low:, : K + 1].T, rhs[low:])
        block[K + 1:] += _node_sum(growth[:, : cut - K].T, rhs[low:])
    np.ldexp(_flushed(N), exponent, out=N)
    _flushed(N)
    np.copyto(N, np.inf, where=np.arange(P + 1)[:, None] > k * (m + np.arange(Q + 1)))
    return N


def hartogs_gram_oracle(cfg: GramOracleConfig,
                        setup: bergman.QuantizationSetup) -> HartogsOracleReport:
    """Reconstruct the fibered Bergman function from raw monomial norms.

    Tensor quadrature over the curved region in the two radial variables,
    one norm per monomial, kernel assembly at the configured sample points,
    and a geometric tail estimate of the dropped fiber degrees.
    """
    if setup.d != 1 or setup.d0 != 1:
        raise PreconditionFailed("the Gram oracle covers d = d0 = 1 models")
    if abs(setup.twist - 1.0) > 1e-12:
        raise PreconditionFailed("the bundle model has unit twist")
    m = cfg.power
    if abs(setup.alpha - m) > 1e-12:
        raise PreconditionFailed("setup level and oracle power disagree")
    k = cfg.bundle_degree
    if abs(setup.base.scalar - 2.0 / k) > 1e-12:   # the degree-k sphere of the chart weight
        raise PreconditionFailed("setup base and oracle bundle degree disagree")
    rho_max = 1.0 if setup.domain == "ball" else math.inf
    for s0, rho0 in cfg.sample_points:
        if not (0 <= s0 < math.inf and 0 <= rho0 < rho_max):
            raise OutOfDomain(f"sample point ({s0}, {rho0}) outside the model")
    N = _norm_matrix(cfg, setup)
    P, Q = cfg.effective_p_cap, cfg.q_cap
    parr, qarr = np.arange(P + 1.0), np.arange(Q + 1.0)

    try:
        target = bergman.closed_target(setup)   # looked up at call time
    except BranchInvalid:
        target = None

    values, worst_tail, stalled = [], 0.0, False
    finite = np.isfinite(N)
    logterm, terms = np.empty_like(N), np.zeros_like(N)   # terms: 0 off the finite norms
    F0s = density_factors(setup.profile, [rho0 for _, rho0 in cfg.sample_points])[0]
    for (s0, rho0), F0 in zip(cfg.sample_points, F0s.tolist()):
        phi0 = k * math.log1p(s0)
        with np.errstate(divide="ignore"):
            lp = parr * math.log(s0) if s0 > 0 else np.where(parr == 0, 0.0, -np.inf)
            lq = (qarr * (math.log(rho0) - phi0) if rho0 > 0
                  else np.where(qarr == 0, 0.0, -np.inf))
        np.add(lp[:, None], lq[None, :], out=logterm)
        logterm -= m * (phi0 + F0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.exp(logterm, out=logterm), N, out=terms, where=finite)
        shells = terms.sum(axis=0)
        eps_val = float(shells.sum())
        values.append(eps_val)
        if not math.isfinite(eps_val):      # before the tail ratio, which would be inf/inf
            raise QuadratureNonConvergent(
                f"Gram-oracle value {eps_val} at sample ({s0}, {rho0}) is not finite "
                f"at q_cap={Q}")
        if rho0 > 0 and shells[-2] > 0:
            ratio = shells[-1] / shells[-2]
            stalled = stalled or ratio >= 1
            tail = shells[-1] * ratio / (1.0 - ratio) if ratio < 1 else math.inf
            worst_tail = max(worst_tail, tail / max(eps_val, 1e-300))
    if stalled:     # a larger q_cap helps only once the shells turn to decay
        raise TruncationInsufficient(
            f"fiber-degree tail estimate inf: the top fiber shells do not decay (ratio "
            f">= 1) at q_cap={Q} on {cfg.s_nodes} quadrature nodes; raise q_cap, or the "
            "node count if the shells still do not decay")
    if worst_tail > _TAIL_TOL:
        raise TruncationInsufficient(
            f"fiber-degree tail estimate {worst_tail:.3e} above {_TAIL_TOL:.1e}; "
            "raise q_cap")
    err = max(abs(v - target) for v in values) if target is not None else None
    basis = int(finite.sum())
    return HartogsOracleReport(samples=tuple(cfg.sample_points),
                               values=tuple(values), target=target,
                               max_abs_error=err, tail_fraction=worst_tail,
                               basis_size=basis, q_cap=Q, p_cap=P)


@dataclass(frozen=True)
class OffDiagonalEntry:
    first: tuple[int, int]
    second: tuple[int, int]
    magnitude: float   # |<e1, e2>| / sqrt(<e1,e1><e2,e2>)


def gram_offdiagonal_probe(cfg: GramOracleConfig, setup: bergman.QuantizationSetup,
                           pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]]
                           ) -> tuple[OffDiagonalEntry, ...]:
    """Numerically integrate Gram entries over both radii and both angles.

    The weight has no angular dependence, so each entry is its radial sum times
    two uniform angular sums; these annihilate non-matching exponents, certifying
    the diagonality that the fast path assumes from rotational symmetry.
    """
    small = replace(cfg, s_nodes=_PROBE_RADII)
    s, phi, xi, F, weight = _radial_weight(small, setup)
    weight *= np.exp(-cfg.power * phi)[:, None]     # radial measure incl. quad weights
    theta = 2.0 * math.pi * np.arange(_PROBE_ANGLES) / _PROBE_ANGLES
    out = []
    for (p1, q1), (p2, q2) in pairs:
        if max(abs(p1 - p2), abs(q1 - q2)) >= _PROBE_ANGLES:
            raise PreconditionFailed(f"exponent gap of ({p1}, {q1}) and ({p2}, {q2}) "
                                     f"reaches {_PROBE_ANGLES}: the angular grid aliases it")
        radial = (np.sqrt(s) ** (p1 + p2) * np.exp(-0.5 * (q1 + q2) * phi)
                  @ weight @ np.sqrt(xi) ** (q1 + q2))
        angular = np.exp(1j * np.outer((p1 - p2, q1 - q2), theta)).mean(axis=1)
        n1, n2 = (s ** p * np.exp(-q * phi) @ weight @ xi ** q for p, q in ((p1, q1), (p2, q2)))
        out.append(OffDiagonalEntry(first=(p1, q1), second=(p2, q2), magnitude=float(
            abs(radial * angular.prod()) / math.sqrt(n1 * n2))))
    return tuple(out)
