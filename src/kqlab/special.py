"""Gamma-family special functions, Gauss rules, and exact product/dimension formulas.

Everything is computed in log space (``math.lgamma``) so that
ratio-of-Gamma closed forms stay finite well past the overflow point of
``Gamma`` itself.  Every Gauss rule of kqlab is built here, and no other
module imports ``scipy.special``: ``legendre`` and ``laguerre`` are built
once per node count and shared read-only, and ``bergman`` builds its block
rules per setup with ``gauss_rule`` and the constructors it imports from here.
The constructors import scipy when first called, so a command that builds no
Gauss rule (the curvature layer, the closed-form series) never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NegativeInput, NonPositiveArgument, QuadratureNonConvergent


def log_gamma(x: float) -> float:
    if x <= 0.0:
        raise NonPositiveArgument(f"log_gamma needs x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError as exc:     # past x ~ 2.5e305
        raise QuadratureNonConvergent(f"log_gamma({x!r}) leaves the float range") from exc


def _exp(x: float, name: str, a: float, b: float) -> float:
    """exp(x), or QuadratureNonConvergent naming ``name(a, b)`` if it leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise QuadratureNonConvergent(f"{name}({a!r}, {b!r}) leaves the float range") from exc


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a) / Gamma(b) for positive a, b, via exp(logGamma difference)."""
    if a <= 0.0 or b <= 0.0:
        raise NonPositiveArgument(f"gamma_ratio needs a, b > 0, got ({a}, {b})")
    return _exp(log_gamma(a) - log_gamma(b), "gamma_ratio", a, b)


def beta(a: float, b: float) -> float:
    if a <= 0.0 or b <= 0.0:
        raise NonPositiveArgument(f"beta needs a, b > 0, got ({a}, {b})")
    return _exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b), "beta", a, b)


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


def dim_h0_cpd(d: int, m: int) -> int:
    """Dimension (1/d!) * prod_{j=1..d} (m + j) of degree-<=m polynomials in d variables."""
    if d < 1 or m < 0:
        raise NegativeInput(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    num = 1
    for j in range(1, d + 1):
        num *= m + j
    return num // math.factorial(d)


# scipy's rule constructors, with scipy imported at the first rule built
def roots_jacobi(nodes: int, a: float, b: float):
    from scipy.special import roots_jacobi as rule
    return rule(nodes, a, b)


def roots_genlaguerre(nodes: int, a: float):
    from scipy.special import roots_genlaguerre as rule
    return rule(nodes, a)


def roots_legendre(nodes: int):
    from scipy.special import roots_legendre as rule
    return rule(nodes)


def gauss_rule(rule, nodes: int, *exponents: float):
    """Nodes and weights of one Gauss rule, or QuadratureNonConvergent if they overflow."""
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


@functools.lru_cache(maxsize=32)
def legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on (0, 1), built once per count."""
    xs, ws = gauss_rule(roots_legendre, nodes)
    return _frozen(0.5 * (xs + 1.0), 0.5 * ws)


@functools.lru_cache(maxsize=32)
def laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Laguerre rule (weight e^-x), built once per count."""
    return _frozen(*gauss_rule(roots_genlaguerre, nodes, 0))
