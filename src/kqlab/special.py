"""Gauss rules and the exact shifted product of the Bergman targets.

``product_shifted`` is the finite product prod_j (level - j*shift) of the
closed Bergman values.  Every Gauss rule of kqlab is built here, with numpy
alone: ``roots_jacobi`` and ``roots_genlaguerre`` are memoised per
(nodes, a, b) and ``legendre`` per node count, all shared read-only, and
``bergman`` reads its block rules through ``gauss_rule`` and the constructors
it imports from here.  No kqlab module imports scipy except for the adaptive
moments (``bergman._psi_adaptive``) of a setup without a Gauss moment model: a
custom profile, or a family on a domain its model does not cover.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NegativeInput, PreconditionFailed, QuadratureNonConvergent


def product_shifted(level: float, shift: float, n: int) -> float:
    """prod_{j=1..n} (level - j*shift), as an exact finite product.

    Total for all real inputs; agrees with the Gamma-ratio form
    ``shift**n * Gamma(level/shift) / Gamma(level/shift - n)`` wherever the
    latter is defined.
    """
    if n < 1:
        raise NegativeInput(f"product needs n >= 1, got {n}")
    out = 1.0
    for j in range(1, n + 1):
        out *= level - j * shift
    return out


# Gauss rules (Golub & Welsch, Math. Comp. 23 (1969)).  The nodes are the
# eigenvalues of the Jacobi matrix of the weight's three-term recurrence,
# polished by one Newton step on the degree-n orthonormal polynomial; the
# weights are the Christoffel numbers mu0 / sum_j p_j(x)^2.  One pass of the
# recurrence gives both, the sum corrected to first order for the Newton step.
# mu0 is kept as a mantissa and a power of two, and the recurrence is rescaled
# by powers of two as it grows, so that weights past the float range come out
# inf or 0 rather than NaN, and no rescale rounds.  Rules are memoised per
# exact (nodes, a, b) as read-only arrays; the bound holds the distinct rules of
# one pass of a balanced sweep (61-62) or of an oracle cross-check (39).
_RULE_MEMO = 256
_RESCALE_ABOVE = 2.0 ** 600     # checked every 4 steps: room for 2^52 growth a step
_EXACT_SHIFTS = 2 ** 10         # Beta arguments shifted by exact products below this
_EXP2_BOUND = 2 ** 24           # |binary exponent| of mu0 past which every weight is 0 or inf


def _beta(p: float, q: float) -> tuple[float, int]:
    """B(p, q) for p, q > 0 as a mantissa and a binary exponent.

    lgamma of a large argument errs by its own size in ulps, and exp of a
    large log likewise (3.7e-13 of B(3, 601) by lgamma differences).  So each
    argument of B(p, q) = B(p, f) prod_j (f+j)/(f+p+j), f = q - n, is shifted
    below 2 by its integer part n as a float product, and math.lgamma sees
    arguments below 4 only.  An argument past _EXACT_SHIFTS is not shifted,
    which would take one step per unit: lgamma(q) - lgamma(q + p) then comes
    from Stirling's series, in log1p form so that nothing of size q cancels.
    """
    m, e = 1.0, 0
    for _ in range(2):
        p, q = sorted((p, q))
        if q >= _EXACT_SHIFTS:       # shift the other argument, if it is small enough
            p, q = q, p
        n = max(math.floor(q) - 1, 0) if q < _EXACT_SHIFTS else 0
        q -= n
        for j in range(n):
            m, de = math.frexp(m * ((q + j) / (q + p + j)))
            e += de
    p, q = sorted((p, q))
    if q < _EXACT_SHIFTS:
        log_b = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    else:
        r = q + p
        log_b = (math.lgamma(p) - (q - 0.5) * math.log1p(p / q) - p * math.log(r) + p
                 + p / (12.0 * q * r) - ((1.0 / q) ** 3 - (1.0 / r) ** 3) / 360.0)
    # a power of two out of log_b where exp of it would leave the float range
    e2 = 0 if abs(log_b) < 700.0 else math.floor(log_b / math.log(2.0))
    return m * math.exp(log_b - e2 * math.log(2.0)), e + e2


def _golub_welsch(diag: np.ndarray, offdiag: np.ndarray, mu0: tuple[float, int]):
    """Nodes and weights of the n-point rule of the recurrence

        offdiag[k] p_(k+1)(x) = (x - diag[k]) p_k(x) - offdiag[k-1] p_(k-1)(x),

    p_0 = 1, with n = len(diag) and offdiag of length n (its last entry
    gives p_n, whose zeros are the nodes).
    """
    n = len(diag)
    jacobi = np.diag(diag)
    jacobi[np.arange(1, n), np.arange(n - 1)] = offdiag[:-1]
    x = np.linalg.eigvalsh(jacobi)
    shifted = x - diag[:, None]               # row k: x - diag[k]
    # rows: p_k and p_k', the same for k - 1, and the sums of p_j^2 and p_j p_j'
    pk, pk1, sums = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, n))
    pk[0] = sums[0] = 1.0
    scale = np.zeros(n, dtype=int)            # true p = p * 2^scale
    prev = 0.0
    for k in range(n):
        new = shifted[k] * pk - prev * pk1
        new[1] += pk[0]
        new /= offdiag[k]
        pk1, pk, prev = pk, new, offdiag[k]
        if k < n - 1:
            sums += new * new[0]
            if k % 4 == 3 and sums[0].max() > _RESCALE_ABOVE:
                h = np.frexp(sums[0])[1] >> 1
                pk, pk1, sums = np.ldexp(pk, -h), np.ldexp(pk1, -h), np.ldexp(sums, -2 * h)
                scale += h
    polished = x - pk[0] / pk[1]              # one Newton step on p_n
    # the sum of p_j^2 at the polished node, by the step the node really took
    christoffel = sums[0] + 2.0 * sums[1] * (polished - x)
    mant, exp2 = mu0
    exp2 = min(max(exp2, -_EXP2_BOUND), _EXP2_BOUND)
    return polished, np.ldexp(mant / christoffel, exp2 - 2 * scale)


@functools.lru_cache(maxsize=_RULE_MEMO)
def roots_jacobi(nodes: int, a: float, b: float):
    """Read-only Gauss-Jacobi rule on (-1, 1), weight (1-x)^a (1+x)^b, a, b > -1."""
    k = np.arange(nodes, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):   # k = 0, 1 set below
        diag = (b * b - a * a) / (s * (s + 2.0))
        k1, s1 = k + 1.0, s + 2.0
        beta = (4.0 * k1 * (k1 + a) * (k1 + b) * (k1 + a + b)
                / (s1 * s1 * (s1 + 1.0) * (s1 - 1.0)))
    diag[0] = (b - a) / (a + b + 2.0)
    # beta_1 with its factor (1 + a + b) cancelled
    beta[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) * (2.0 + a + b) * (3.0 + a + b))
    if not (np.isfinite(diag).all() and np.isfinite(beta).all()):     # a or b past ~1e153
        return _frozen(np.full(nodes, math.nan), np.full(nodes, math.nan))   # gauss_rule refuses
    # mu0 = 2^(a+b+1) B(a+1, b+1)
    m, e = _beta(a + 1.0, b + 1.0)
    c = math.floor(a + b + 1.0)
    mu0 = (m * 2.0 ** (a + b + 1.0 - c), e + c)
    return _frozen(*_golub_welsch(diag, np.sqrt(beta), mu0))


@functools.lru_cache(maxsize=_RULE_MEMO)
def roots_genlaguerre(nodes: int, a: float):
    """Read-only generalised Gauss-Laguerre rule, weight x^a e^-x, a > -1."""
    k = np.arange(nodes, dtype=float)
    try:        # mu0 = Gamma(a+1); exp(lgamma) would err by lgamma's size in ulps
        mu0 = math.frexp(math.gamma(a + 1.0))
    except OverflowError:       # a > 170: weights past the float range
        mu0 = (math.inf, 0)
    return _frozen(*_golub_welsch(2.0 * k + a + 1.0, np.sqrt((k + 1.0) * (k + 1.0 + a)), mu0))


def gauss_rule(rule, nodes: int, *exponents: float):
    """Nodes and weights of one Gauss rule, or QuadratureNonConvergent if they overflow."""
    if not (isinstance(nodes, int) and nodes >= 1):
        raise PreconditionFailed(f"a Gauss rule needs at least one node, an integer, got {nodes!r}")
    with np.errstate(all="ignore"):   # checked below, typed
        xs, ws = rule(nodes, *exponents)
    if not (np.isfinite(xs).all() and np.isfinite(ws).all()):
        raise QuadratureNonConvergent(
            f"{nodes}-node Gauss rule with weight exponents {exponents} is not finite")
    return xs, ws


def _frozen(xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    for a in (xs, ws):
        a.flags.writeable = False
    return xs, ws


# The (0, 1) mapping makes new arrays, so they are memoised here too, to be
# built once and shared; laguerre hands out the memoised arrays themselves.
@functools.lru_cache(maxsize=32)
def legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on (0, 1), built once per count."""
    xs, ws = gauss_rule(roots_jacobi, nodes, 0.0, 0.0)
    return _frozen(0.5 * (xs + 1.0), 0.5 * ws)


def laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Laguerre rule (weight e^-x), built once per count."""
    return gauss_rule(roots_genlaguerre, nodes, 0.0)
