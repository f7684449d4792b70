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
only; the others are infinite by definition.  Fiber powers are taken
relative to a power of two above the largest fiber node, so the total-space
oracle (Laguerre nodes) reaches q_cap = 120 at 200 nodes without overflow.  Each Gauss rule
is built once per node count and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import roots_genlaguerre, roots_legendre

from . import bergman
from .errors import (BranchInvalid, OutOfDomain, PreconditionFailed,
                     QuadratureNonConvergent, TruncationInsufficient)
from .profiles import profile_jet, profile_rho_arrays

# exp of an exponent below this is subnormal or 0; numpy's exp takes 20-100x
# longer there than on normal results, so those kernel terms are set to 0
_EXP_FLOOR = math.log(np.finfo(float).tiny)


def _frozen(xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    for a in (xs, ws):
        a.flags.writeable = False
    return xs, ws


@functools.lru_cache(maxsize=32)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), built once per count."""
    return _frozen(*roots_legendre(nodes))


@functools.lru_cache(maxsize=32)
def _laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Laguerre rule (weight e^-x), built once per finite count."""
    return _frozen(*bergman._gauss_rule(roots_genlaguerre, nodes, 0))


@dataclass(frozen=True)
class GramOracleConfig:
    """Basis caps and quadrature resolution for the Gram-matrix oracle.

    ``q_cap`` bounds the fiber degree; the z-exponent cap defaults to the
    largest integrable exponent k*(m + q_cap) plus a safety margin.  Sample
    points are (|z|^2, rho) pairs with rho the scaled fiber radius.
    """

    bundle_degree: int
    power: int
    q_cap: int = 40
    p_cap: Optional[int] = None
    s_nodes: int = 200
    fiber_nodes: int = 200
    sample_points: tuple[tuple[float, float], ...] = (
        (0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 0.7))
    tail_tol: float = 1e-3

    def __post_init__(self):
        if self.bundle_degree < 1 or self.power < 1:
            raise PreconditionFailed("bundle degree and power must be >= 1")
        if self.q_cap < 2:
            raise PreconditionFailed("q_cap must be >= 2 for tail estimation")

    @property
    def effective_p_cap(self) -> int:
        if self.p_cap is not None:
            return self.p_cap
        return self.bundle_degree * (self.power + self.q_cap) + 8


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
    if min(z_grid) < 0:
        raise OutOfDomain("|z|^2 grid values must be non-negative")
    # |z^j|^2 = k * int_0^inf s^j (1+s)^(-mk-2) ds, mapped to (0,1) by s = v/(1-v)
    xs, ws = _legendre(nodes)
    v = 0.5 * (xs + 1.0)
    wv = 0.5 * ws
    jmax = m * k
    norms = []
    for j in range(jmax + 1):
        integrand = v ** j * (1.0 - v) ** (jmax - j)
        norms.append(k * float(np.dot(wv, integrand)))
    if any(not (x > 0 and math.isfinite(x)) for x in norms):
        raise QuadratureNonConvergent("cp1 monomial norms are not all positive")
    values = []
    for s in z_grid:
        kernel = sum(s ** j / norms[j] for j in range(jmax + 1))
        values.append((1.0 + s) ** (-jmax) * kernel)
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
    """Log-weights of the tensor quadrature in (|z|^2, rho) coordinates.

    Returns (log s, base potential phi, fiber nodes xi, fiber values F,
    log of the full measure including the Hessian determinant and all
    quadrature weights).
    """
    k, m = cfg.bundle_degree, cfg.power
    xs, ws = _legendre(cfg.s_nodes)
    sig = 0.5 * (xs + 1.0)
    wsig = 0.5 * ws
    s = sig / (1.0 - sig)
    jac = 1.0 / (1.0 - sig) ** 2
    phi = k * np.log1p(s)
    phi_p = k / (1.0 + s)
    phi_pp = -k / (1.0 + s) ** 2

    if setup.domain == "ball":
        xf, wf = _legendre(cfg.fiber_nodes)
        xi = 0.5 * (xf + 1.0)
        wxi = 0.5 * wf
        log_comp = np.zeros_like(xi)
    else:
        # integrate the fiber variable, in units of the profile scale c, against
        # the exponential envelope e^(-m c rho) of the linear profile
        rate = m * setup.profile.c
        xf, wf = _laguerre(cfg.fiber_nodes)
        xi = xf / rate
        wxi = wf / rate
        log_comp = xf  # compensates the e^(-x) folded into the Laguerre weight

    F, Fp, Fpp = profile_rho_arrays(setup.profile, xi)
    radial = Fp + xi * Fpp
    one_shift = 1.0 + xi * Fp
    if np.any(Fp <= 0) or np.any(radial <= 0) or np.any(one_shift <= 0):
        raise OutOfDomain("profile not admissible on the fiber quadrature range")

    # complex Hessian determinant of phi(s) + F(e^phi v) in (z, w), v = e^-phi xi
    Z = (np.outer(phi_p, one_shift)
         + s[:, None] * (np.outer(phi_pp, one_shift)
                         + np.outer(phi_p ** 2, xi * radial)))
    W = np.outer(np.exp(phi), radial)
    X = np.outer(s * np.exp(phi) * phi_p ** 2, xi * radial ** 2)
    det = Z * W - X
    if np.any(det <= 0):
        raise QuadratureNonConvergent("Hessian determinant not positive on the grid")

    with np.errstate(divide="ignore"):  # underflowing far-tail weights -> -inf
        logk = (np.log(det)
                - m * (phi[:, None] + F[None, :])
                - phi[:, None]
                + np.log(jac * wsig)[:, None]
                + (np.log(wxi) + log_comp)[None, :])
    return s, phi, xi, F, logk


def _norm_matrix(cfg: GramOracleConfig, setup: bergman.QuantizationSetup):
    """Diagonal Gram entries N[p, q] for the monomial basis z^p w^q.

    Exponents failing the integrability test (decay exponent of the z-axis
    integrand not below -1) are excluded via an infinite norm, and only the
    integrable rows p <= k*(m + q) of each fiber degree are integrated.
    Kernel terms whose exponential would be subnormal are exactly 0, never
    clamped: a row that underflows entirely keeps its zero norm, which the
    oracle then refuses as non-convergent.
    """
    k, m = cfg.bundle_degree, cfg.power
    s, phi, xi, F, logk = _radial_weight(cfg, setup)
    P, Q = cfg.effective_p_cap, cfg.q_cap
    plogs = np.arange(P + 1, dtype=float)[:, None] * np.log(s)[None, :]
    # fiber powers relative to 2^e above the largest node: exact, and they do
    # not overflow on the Laguerre nodes of the total space (e = 0 on the ball)
    e = max(0, math.frexp(float(xi.max()))[1])
    xrel, phi_rel = np.ldexp(xi, -e), phi - e * math.log(2.0)

    kexp = np.exp(logk)
    N = np.full((P + 1, Q + 1), np.inf)
    body = np.empty_like(plogs)
    live = np.empty(plogs.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # values checked
        for q in range(Q + 1):
            mcol = kexp @ (xrel ** q)
            logcol = np.where(mcol > 0, np.log(np.where(mcol > 0, mcol, 1.0)), -np.inf)
            cut = min(k * (m + q), P)  # z-integrability cap
            rows, ok = body[: cut + 1], live[: cut + 1]
            np.add(plogs[: cut + 1], (logcol - q * phi_rel)[None, :], out=rows)
            np.greater_equal(rows, _EXP_FLOOR, out=ok)
            np.exp(rows, out=rows, where=ok)
            np.copyto(rows, 0.0, where=~ok)
            N[: cut + 1, q] = rows.sum(axis=1)
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
    N = _norm_matrix(cfg, setup)
    P, Q = cfg.effective_p_cap, cfg.q_cap
    parr = np.arange(P + 1, dtype=float)
    qarr = np.arange(Q + 1, dtype=float)

    try:
        target = bergman.closed_target(setup)   # looked up at call time
    except BranchInvalid:
        target = None

    values = []
    worst_tail = 0.0
    for s0, rho0 in cfg.sample_points:
        if s0 < 0 or rho0 < 0 or (setup.domain == "ball" and rho0 >= 1):
            raise OutOfDomain(f"sample point ({s0}, {rho0}) outside the model")
        phi0 = k * math.log1p(s0)
        F0 = profile_jet(setup.profile, rho0, 2, "rho").value
        with np.errstate(divide="ignore"):
            lp = parr * math.log(s0) if s0 > 0 else np.where(parr == 0, 0.0, -np.inf)
            lq = (qarr * (math.log(rho0) - phi0) if rho0 > 0
                  else np.where(qarr == 0, 0.0, -np.inf))
        logterm = lp[:, None] + lq[None, :] - m * (phi0 + F0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(np.isfinite(N), np.exp(logterm) / N, 0.0)
        shells = terms.sum(axis=0)
        eps_val = float(shells.sum())
        values.append(eps_val)
        if not math.isfinite(eps_val):      # before the tail ratio, which would be inf/inf
            raise QuadratureNonConvergent(
                f"Gram-oracle value {eps_val} at sample ({s0}, {rho0}) is not finite "
                f"at q_cap={Q}")
        if rho0 > 0 and shells[-2] > 0:
            ratio = shells[-1] / shells[-2]
            tail = shells[-1] * ratio / (1.0 - ratio) if ratio < 1 else math.inf
            worst_tail = max(worst_tail, tail / max(eps_val, 1e-300))
    if worst_tail > cfg.tail_tol:
        raise TruncationInsufficient(
            f"fiber-degree tail estimate {worst_tail:.3e} above {cfg.tail_tol:.1e}; "
            "raise q_cap")
    err = max(abs(v - target) for v in values) if target is not None else None
    basis = int(np.isfinite(N).sum())
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
                           pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]],
                           radial_nodes: int = 32,
                           angular_nodes: int = 24) -> tuple[OffDiagonalEntry, ...]:
    """Numerically integrate off-diagonal Gram entries on a full 4-d grid.

    The integrand keeps its angular factors; the uniform angular grids each
    annihilate non-matching exponents, certifying the diagonality that the
    fast path assumes from rotational symmetry.
    """
    small = replace(cfg, s_nodes=radial_nodes, fiber_nodes=radial_nodes)
    s, phi, xi, F, logk = _radial_weight(small, setup)
    weight = np.exp(logk)                      # radial measure incl. quad weights
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    out = []
    for (p1, q1), (p2, q2) in pairs:
        zpow = np.sqrt(s) ** (p1 + p2)
        vhalf = np.exp(-0.5 * (q1 + q2) * phi)
        wpow = np.sqrt(xi) ** (q1 + q2)
        radial = weight * np.outer(zpow * vhalf, wpow)
        az = np.exp(1j * (p1 - p2) * theta) / angular_nodes
        aw = np.exp(1j * (q1 - q2) * theta) / angular_nodes
        full = (radial[:, :, None, None]
                * az[None, None, :, None] * aw[None, None, None, :])
        entry = complex(full.sum())
        n1 = float((weight * np.outer(s ** p1 * np.exp(-q1 * phi), xi ** q1)).sum())
        n2 = float((weight * np.outer(s ** p2 * np.exp(-q2 * phi), xi ** q2)).sum())
        out.append(OffDiagonalEntry(first=(p1, q1), second=(p2, q2),
                                    magnitude=abs(entry) / math.sqrt(n1 * n2)))
    return tuple(out)
