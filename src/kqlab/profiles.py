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
a function of x.  ``x_from_t`` and ``t_from_x`` give their moment map and its
inverse in closed form, and ``density_factors`` the rho-form F and the factors
F' and F' + rho F'' of the fiber density: c rho, c and c for the linear family,
and for the log families (log-ball with c = -1) -(1/A) log1p(c rho) with
F' = g/(1 + c rho) and F' + rho F'' = g/(1 + c rho)^2, g = -c/A.  ``custom``
profiles supply a jet-producing rule instead.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import OutOfDomain, PreconditionFailed
from .jets import DEFAULT_ORDER, TaylorJet, require

JetRule = Callable[[float, int], TaylorJet]

# the largest t whose e^t is a float
_T_MAX = math.log(sys.float_info.max)


def _log_affine(A: float, cv: TaylorJet) -> TaylorJet:
    """-(1/A) log(1 + c*v), given c*v: log-affine's F, and log-ball's with c = -1."""
    return (-1.0 / A) * jets.log(1.0 + cv)


def _log_affine_x(A: float, cv):
    """x = F_t'(t) of -(1/A) log(1 + c*v), given c*v at v = e^t: the order-1 recurrences
    of the jet log and of the product by -1/A, whose zero terms add +0.0."""
    return (cv / (1.0 + cv)) * (-1.0 / A) + 0.0


def _log_affine_density(A: float, c: float, u):
    """F = -(1/A) log1p(c*u) at rho = u, its scale g = -c/A and L = log1p(c*u): log-affine's
    density factors, and log-ball's with c = -1."""
    L = np.log1p(c * u)
    return (-1.0 / A) * L, -c / A, L


def _log_affine_t(p: "RadialProfile", x: float) -> float:
    v = -p.A * x
    if not 0 < v < 1:
        raise OutOfDomain(f"x={x} outside the log_affine range (0, {-1/p.A})")
    return math.log(v / (p.c * (1.0 - v)))


# Each closed family, stated once.  params: the parameters it reads; valid and
# rule: the check of both, in code and in words (it pins one not read); scaled:
# (A, c, factor) -> the (A, c) of factor*F; F: the rho-form profile of a jet v,
# for 0 <= rho < rho_max, the largest float if unbounded (the t-form is F of v = e^t,
# so e^t stays finite); x_from_t: the moment map x = F_t'(t) of e = e^t, the floats
# of F's order-1 jet recurrences; t_from_x: its inverse; density: F of an array u in
# closed form, with the scale g and the L of F' = g e^-L and F' + u F'' = g e^-2L.
_Family = namedtuple("_Family", "params valid rule scaled F rho_max x_from_t t_from_x density")

FAMILIES = {
    "logball": _Family(
        ("A",), lambda A, c: A > 0 and c == 1, "A > 0 and c = 1", lambda A, c, f: (A / f, c),
        F=lambda p, v: _log_affine(p.A, -v), rho_max=1.0,
        x_from_t=lambda p, e: _log_affine_x(p.A, -e),
        t_from_x=lambda p, x: math.log(p.A * x / (1.0 + p.A * x)),
        density=lambda p, u: _log_affine_density(p.A, -1.0, u)),
    "linear": _Family(
        ("c",), lambda A, c: c > 0 and A == 0, "c > 0 and A = 0", lambda A, c, f: (A, c * f),
        F=lambda p, v: p.c * v, rho_max=sys.float_info.max,
        x_from_t=lambda p, e: e * p.c,
        t_from_x=lambda p, x: math.log(x / p.c),
        density=lambda p, u: (p.c * u, p.c, 0.0)),
    "logaffine": _Family(
        ("A", "c"), lambda A, c: A != 0 and c > 0, "A != 0 and c > 0",
        lambda A, c, f: (A / f, c),
        F=lambda p, v: _log_affine(p.A, p.c * v), rho_max=sys.float_info.max,
        x_from_t=lambda p, e: _log_affine_x(p.A, e * p.c),
        t_from_x=_log_affine_t,
        density=lambda p, u: _log_affine_density(p.A, p.c, u)),
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
        elif not (math.isfinite(self.A) and math.isfinite(self.c)):
            name, value = ("c", self.c) if math.isfinite(self.A) else ("A", self.A)
            raise PreconditionFailed(f"{self.family} needs a finite {name}, got {value}")
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
    """The closed-family profile with parameters A (absent: 0) and c.  One the family
    does not read keeps its fixed value (c = 1, A = 0), or the family's check refuses it."""
    if A is None and family in FAMILIES and "A" in FAMILIES[family].params:
        raise PreconditionFailed(f"the {family} family needs its parameter A")
    return RadialProfile(family, A=0.0 if A is None else float(A), c=float(c))


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
        _require_below(p, point, form)
        v = TaylorJet.variable(point, order)
        return family.F(p, jets.exp(v) if form == "t" else v)

    # custom: produce in native form, convert by composition if needed
    if form == p.rule_form:
        return _rule_jet(p, point, order)
    if form == "t":
        require(point < _T_MAX, OutOfDomain, lambda i: "a custom rho-rule needs "
                f"t < {_T_MAX:g}, got {point.flat[i]}")
        inner = jets.exp(TaylorJet.variable(point, order))
        return jets.compose(_rule_jet(p, inner.value, order), inner)
    require(point > 0, OutOfDomain,
            lambda i: f"converting a t-rule to rho-form needs rho > 0, got {point.flat[i]}")
    inner = jets.log(TaylorJet.variable(point, order))
    return jets.compose(_rule_jet(p, inner.value, order), inner)


def _require_below(p: RadialProfile, point: np.ndarray, form: str) -> None:
    """Refuse the first point of a closed family at or past its bound, or nan; ``form``
    names the variable: "t", or rho as "rho" or "e^t"."""
    rho_max = FAMILIES[p.family].rho_max
    bound = math.log(rho_max) if form == "t" else rho_max
    require(point < bound, OutOfDomain,
            lambda i: f"{p.family} needs {form} < {bound:g}, got {point.flat[i]}")


def _rule_jet(p: RadialProfile, point: np.ndarray, order: int) -> TaylorJet:
    """A custom rule's jets: one call per point (a rule takes a float), stacked."""
    if point.ndim == 0:
        return p.rule(float(point), order)
    return TaylorJet(np.stack([p.rule(u, order).coeffs for u in point.tolist()], axis=-1))


def x_from_t(p: RadialProfile, t):
    """The moment map x = F_t'(t) of a closed family at t, a float or an array, with no
    jet: the floats of ``profile_jet(p, t, 1, "t").deriv().value``.  A t past the bound
    is refused as there; so is a log-ball t whose e^t rounds to 1, where x would divide
    by 1 - e^t = 0 (the jet route refuses it in its log), and a t whose x leaves the
    float range (c e^t past the largest float)."""
    if p.family not in FAMILIES:
        raise PreconditionFailed("x_from_t evaluates the closed families' moment maps, "
                                 "not a custom profile's")
    t = np.asarray(t, dtype=float)
    _require_below(p, t, "t")
    e = np.exp(t)
    _require_below(p, e, "e^t")
    with np.errstate(over="ignore", invalid="ignore"):      # refused below
        x = FAMILIES[p.family].x_from_t(p, e)
    require(np.isfinite(x), OutOfDomain,
            lambda i: f"the {p.family} moment map leaves the float range at t={t.flat[i]}")
    return x


def density_factors(p: RadialProfile, rho):
    """A closed family's fiber density factors at rho >= 0, a float or an array, with no jet:
    (F, x, g, L), where F is the rho-form profile, x = rho F'(rho) its moment map, and F' =
    g e^-L and F' + rho F'' = g e^-2L.  The log families have g = -c/A and L = log1p(c rho)
    (the log-ball's c is -1), the linear one g = c and L = 0.  A rho past the bound is refused
    as in ``profile_jet``."""
    if p.family not in FAMILIES:
        raise PreconditionFailed("density_factors evaluates the closed families' densities, "
                                 "not a custom profile's")
    rho = np.asarray(rho, dtype=float)
    _require_below(p, rho, "rho")
    family = FAMILIES[p.family]
    F, g, L = family.density(p, rho)
    return F, family.x_from_t(p, rho), g, L


def t_from_x(p: RadialProfile, x: float) -> float:
    """Invert the moment map x = F_t'(t) of a closed family, in closed form."""
    if p.family not in FAMILIES:
        raise PreconditionFailed("t_from_x inverts the closed families' moment maps, "
                                 "not a custom profile's")
    if not 0 < x < math.inf:
        raise OutOfDomain(f"fiber coordinate x must be positive and finite, got {x}")
    return FAMILIES[p.family].t_from_x(p, x)
