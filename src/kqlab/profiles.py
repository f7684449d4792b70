"""Radial profiles of fibered Kähler potentials.

The profile F enters the potential either through the logarithmic fiber
variable ``t`` (``potential = phi + F(t)``, ``t = twist*phi + log|w|^2``) or
through the multiplicative one ``rho = e^t``.  Both parameterizations are
exposed; they are related by ``F_t(t) = F_rho(e^t)``.

Three closed families cover every constant-coefficient case:

* ``log_ball(A)``:    F_t(t) = -(1/A) log(1 - e^t),   A > 0,  t < 0
* ``linear(c)``:      F_rho(rho) = c rho,             c > 0
* ``log_affine(A,c)``: F_t(t) = -(1/A) log(1 + c e^t), c > 0 (convex for A < 0)

All three share the quadratic momentum profile x -> x + A x^2 (A = 0 for the
linear family), where x = F_t'(t) and the momentum profile is F_t'' viewed as
a function of x.  ``custom`` profiles supply a jet-producing rule instead.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets
from .errors import (DegenerateJet, EmptyGrid, KQLabError, OutOfDomain,
                     PreconditionFailed)
from .jets import DEFAULT_ORDER, TaylorJet, require

JetRule = Callable[[float, int], TaylorJet]


def _log_affine(A: float, cv: TaylorJet) -> TaylorJet:
    """-(1/A) log(1 + c*v), given c*v: log-affine's F, and log-ball's with c = -1."""
    return (-1.0 / A) * jets.log(1.0 + cv)


def _log_affine_t(p: "RadialProfile", x: float) -> float:
    v = -p.A * x
    if not 0 < v < 1:
        raise OutOfDomain(f"x={x} outside the log_affine range (0, {-1/p.A})")
    return math.log(v / (p.c * (1.0 - v)))


# Each closed family, stated once.  params: the parameters it reads; valid
# and rule: their check, in code and in words; scaled: (A, c, factor) -> the
# (A, c) of factor*F; F: the rho-form profile of a jet v, for 0 <= rho <
# rho_max (the t-form is F of v = e^t); t_from_x: the inverse of x = F_t'(t).
_Family = namedtuple("_Family", "params valid rule scaled F rho_max t_from_x")

FAMILIES = {
    "logball": _Family(
        ("A",), lambda A, c: A > 0, "A > 0", lambda A, c, f: (A / f, c),
        F=lambda p, v: _log_affine(p.A, -v), rho_max=1.0,
        t_from_x=lambda p, x: math.log(p.A * x / (1.0 + p.A * x))),
    "linear": _Family(
        ("c",), lambda A, c: c > 0 and A == 0, "c > 0 and A = 0", lambda A, c, f: (A, c * f),
        F=lambda p, v: p.c * v, rho_max=math.inf,
        t_from_x=lambda p, x: math.log(x / p.c)),
    "logaffine": _Family(
        ("A", "c"), lambda A, c: A != 0 and c > 0, "A != 0 and c > 0",
        lambda A, c, f: (A / f, c),
        F=lambda p, v: _log_affine(p.A, p.c * v), rho_max=math.inf,
        t_from_x=_log_affine_t),
}


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile F with its family tag and parameters.

    ``A`` is the quadratic coefficient of the momentum profile x + A x^2
    (zero for the linear family); ``c`` the scale parameter of the linear
    and log-affine families.  Custom profiles carry a rule producing jets of
    F in ``rule_form`` ("t" or "rho"); the other form is obtained by
    composing with exp/log jets.
    """

    family: str
    A: float = 0.0
    c: float = 1.0
    rule: Optional[JetRule] = None
    rule_form: str = "t"

    def __post_init__(self):
        if self.family == "custom":
            if self.rule is None:
                raise PreconditionFailed("custom profile needs a jet rule")
        elif self.family not in FAMILIES:
            raise PreconditionFailed(f"unknown profile family {self.family!r}")
        elif not FAMILIES[self.family].valid(self.A, self.c):
            raise PreconditionFailed(f"{self.family} needs {FAMILIES[self.family].rule}")

    def params(self) -> dict[str, float]:
        """The parameters the family reads, by name (none for custom profiles)."""
        names = FAMILIES[self.family].params if self.family in FAMILIES else ()
        return {name: getattr(self, name) for name in names}

    def scaled(self, factor: float) -> "RadialProfile":
        """The profile ``factor * F`` (same family, rescaled parameters)."""
        if factor <= 0:
            raise PreconditionFailed("scaling factor must be positive")
        if self.family in FAMILIES:
            return from_params(self.family, *FAMILIES[self.family].scaled(self.A, self.c, factor))
        rule, form = self.rule, self.rule_form
        return custom(lambda p, order: factor * rule(p, order), form)


def from_params(family: str, A: Optional[float] = None, c: float = 1.0) -> RadialProfile:
    """The closed-family profile with parameters A and c (one it does not read is ignored)."""
    names = FAMILIES[family].params if family in FAMILIES else ()
    if A is None and "A" in names:
        raise PreconditionFailed(f"the {family} family needs its parameter A")
    return RadialProfile(family, **{name: float({"A": A, "c": c}[name]) for name in names})


def log_ball(A: float) -> RadialProfile:
    return RadialProfile("logball", A=A)


def linear(c: float) -> RadialProfile:
    return RadialProfile("linear", c=c)


def log_affine(A: float, c: float) -> RadialProfile:
    return RadialProfile("logaffine", A=A, c=c)


def custom(rule: JetRule, form: str = "t") -> RadialProfile:
    if form not in ("t", "rho"):
        raise PreconditionFailed("rule_form must be 't' or 'rho'")
    return RadialProfile("custom", rule=rule, rule_form=form)


def profile_jet(p: RadialProfile, point, order: int = DEFAULT_ORDER,
                form: str = "t") -> TaylorJet:
    """Jet of F at ``point`` (a float or a 1-d array) in the requested parameterization."""
    if form not in ("t", "rho"):
        raise PreconditionFailed("form must be 't' or 'rho'")
    point = np.asarray(point, dtype=float)
    if form == "rho":
        require(point >= 0, OutOfDomain,
                lambda i: f"rho must be non-negative, got {point.flat[i]}")

    family = FAMILIES.get(p.family)
    if family is not None:
        bound = family.rho_max if form == "rho" else math.log(family.rho_max)
        require(point < bound, OutOfDomain,
                lambda i: f"{p.family} needs {form} < {bound:g}, got {point.flat[i]}")
        v = TaylorJet.variable(point, order)
        return family.F(p, jets.exp(v) if form == "t" else v)

    # custom: produce in native form, convert by composition if needed
    if form == p.rule_form:
        return _rule_jet(p, point, order)
    if form == "t":
        inner = jets.exp(TaylorJet.variable(point, order))
        return jets.compose(_rule_jet(p, inner.value, order), inner)
    require(point > 0, OutOfDomain,
            lambda i: f"converting a t-rule to rho-form needs rho > 0, got {point.flat[i]}")
    inner = jets.log(TaylorJet.variable(point, order))
    return jets.compose(_rule_jet(p, inner.value, order), inner)


def _rule_jet(p: RadialProfile, point: np.ndarray, order: int) -> TaylorJet:
    """A custom rule's jets: one call per point (a rule takes a float), stacked."""
    if point.ndim == 0:
        return p.rule(float(point), order)
    return TaylorJet(np.stack([p.rule(u, order).coeffs for u in point.tolist()], axis=-1))


def profile_rho_arrays(p: RadialProfile, xi: np.ndarray):
    """F, F', F'' of the profile in rho-form on an array of points."""
    j = profile_jet(p, xi, 2, "rho")
    return tuple(j.derivative(n) for n in range(3))


def t_from_x(p: RadialProfile, x: float) -> float:
    """Invert the moment map x = F_t'(t) (closed form for the built-ins)."""
    if x <= 0:
        raise OutOfDomain(f"fiber coordinate x must be positive, got {x}")
    if p.family in FAMILIES:
        return FAMILIES[p.family].t_from_x(p, x)
    # custom: bisection on the increasing map t -> F'(t)
    lo, hi = -40.0, 40.0
    f = lambda t: profile_jet(p, t, 1, "t").derivative(1) - x
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise OutOfDomain(f"x={x} not attained by the custom profile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FiberCoordinates:
    """Fiber moment coordinate x = F'(t) and x-derivatives of the momentum profile.

    ``mom`` lists the momentum profile value and its first four x-derivatives;
    the chain rule d/dx = (1/mom) d/dt is the defining relation.
    """

    x: float
    mom: tuple[float, float, float, float, float]


def _ddx(u: TaylorJet, phi: TaylorJet) -> TaylorJet:
    """x-derivative d/dx = (1/phi) d/dt on jets in t."""
    du = u.deriv()
    return du / phi.truncated(du.order)


def fiber_coordinates(p: RadialProfile, t: float, order: int = DEFAULT_ORDER) -> FiberCoordinates:
    f = profile_jet(p, t, order, "t")
    xj = f.deriv()
    phij = xj.deriv()
    if xj.value <= 0:
        raise OutOfDomain(f"F'(t) = {xj.value} is not positive at t={t}")
    if phij.value <= 0:
        raise DegenerateJet(f"F''(t) = {phij.value} is not positive at t={t}")
    mom = [phij.value]
    cur = phij
    for _ in range(4):
        cur = _ddx(cur, phij.truncated(cur.order))
        mom.append(cur.value)
    return FiberCoordinates(x=xj.value, mom=tuple(mom))


@dataclass(frozen=True)
class AdmissibilityPoint:
    t: float
    x: float
    mom: float
    convex: bool          # F'' > 0
    positive_shift: bool  # 1 + twist * x > 0


@dataclass(frozen=True)
class AdmissibilityReport:
    points: tuple[AdmissibilityPoint, ...]
    admissible: bool
    completeness: str            # "complete" | "incomplete" | "inconclusive"
    integral_estimate: float     # partial integral of sqrt(F'') toward the boundary

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.admissible


# 16-node Gauss-Legendre on [-1, 1] for the completeness segments
_GL16 = None


def _gl16():
    global _GL16
    if _GL16 is None:
        from scipy.special import roots_legendre

        _GL16 = roots_legendre(16)
    return _GL16


def _segment_integral(p: RadialProfile, a: float, b: float) -> float:
    xs, ws = _gl16()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fpp = profile_jet(p, mid + half * xs, 2, "t").derivative(2).tolist()
    return half * sum(w * (math.sqrt(f) if f > 0 else 0.0) for w, f in zip(ws, fpp))


def _fiber_length_verdict(p: RadialProfile, domain: str, threshold: float,
                          tail_tol: float) -> tuple[str, float]:
    """Completeness of the fiber metric: does the length integral of
    sqrt(F'') diverge toward the domain boundary?

    Segment increments toward the boundary are extrapolated geometrically:
    non-decaying increments mean a divergent integral (complete); a
    geometric tail below ``tail_tol`` means convergence (incomplete).
    The running total is also compared against ``threshold`` directly.
    """
    t0 = -2.0 * math.log(2.0)
    total = 0.0
    segs: list[float] = []
    if domain == "ball":
        edges = [t0] + [-(2.0 ** -j) for j in range(1, 53)]
    else:
        edges = [t0] + [t0 + 4.0 * j for j in range(1, 81)]
    for a, b in zip(edges, edges[1:]):
        try:
            seg = _segment_integral(p, a, b)
        except (KQLabError, OverflowError, ValueError):
            break  # cannot evaluate closer to the boundary; judge what we have
        segs.append(seg)
        total += seg
        if total > threshold:
            return "complete", total
    if len(segs) < 4:
        return "inconclusive", total
    tail = [s for s in segs[-6:] if s > 0]
    if len(tail) < 2:
        return ("incomplete", total) if total < threshold else ("complete", total)
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    r = sorted(ratios)[len(ratios) // 2]
    if r >= 0.95:
        # increments do not decay: extrapolated integral exceeds any threshold
        return "complete", math.inf
    tail_estimate = tail[-1] * r / (1.0 - r)
    if tail_estimate < tail_tol:
        return "incomplete", total
    return "inconclusive", total


def admissibility(p: RadialProfile, twist: float, domain: str,
                  grid: Sequence[float], threshold: float = 1e3,
                  tail_tol: float = 1e-6) -> AdmissibilityReport:
    """Pointwise positivity flags plus a completeness verdict for the fiber metric."""
    if domain not in ("ball", "fullspace"):
        raise PreconditionFailed("domain must be 'ball' or 'fullspace'")
    if len(grid) == 0:
        raise EmptyGrid("admissibility needs a non-empty grid")
    pts = []
    ok = True
    f = profile_jet(p, np.asarray(grid, dtype=float), 2, "t")
    for t, x, mom in zip(grid, f.derivative(1).tolist(), f.derivative(2).tolist()):
        point = AdmissibilityPoint(
            t=t, x=x, mom=mom,
            convex=mom > 0,
            positive_shift=1.0 + twist * x > 0,
        )
        ok = ok and point.convex and point.positive_shift and x > 0
        pts.append(point)
    verdict, estimate = _fiber_length_verdict(p, domain, threshold, tail_tol)
    return AdmissibilityReport(points=tuple(pts), admissible=ok,
                               completeness=verdict, integral_estimate=estimate)
