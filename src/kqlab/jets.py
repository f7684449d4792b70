"""Truncated Taylor-series ("jet") arithmetic.

A jet stores the normalized Taylor coefficients ``coeffs[n] = f^(n)(t0)/n!``
of a function at implicit expansion points, truncated at a fixed order, as
one array of shape ``(order + 1, *points)``; a scalar jet is the case with no
point axis.  Arithmetic propagates coefficients by the usual Cauchy-product and
composition recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 13), each step over the whole point axis, so a grid is one
pass, rounded at every point as that point alone would be.  That gives exact
(round-off level) derivatives up to the truncation order: the substrate for
all curvature formulas.  The second expansion coefficient of a fibered metric
consumes six derivatives of the radial profile, hence the default order 8
(two orders of safety margin for composed expressions).

All values are immutable; every operation returns a fresh jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroJet, LogDomain, OrderExceeded, OrderMismatch

DEFAULT_ORDER = 8


def elementwise(fn, a):
    """``fn`` of the ``math`` module at each element of ``a`` (a float for a
    scalar); numpy's own ufuncs may round differently in the last bit."""
    if np.ndim(a) == 0:
        return fn(a)
    return np.array([fn(v) for v in np.ravel(a).tolist()]).reshape(np.shape(a))


def require(ok, error, message) -> None:
    """Raise ``error(message(i))`` for the first point i where the test ``ok``
    fails (NaN fails a test written as ``x >= bound``)."""
    ok = np.asarray(ok)
    if not ok.all():
        raise error(message(int(np.flatnonzero(~ok)[0])))


@dataclass(frozen=True, eq=False)
class TaylorJet:
    """Normalized Taylor coefficients of a function at one or more points.

    ``coeffs`` has shape ``(order + 1, *points)`` and ``coeffs[0]`` is the
    function value at the expansion points.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 0 or len(coeffs) == 0:
            raise OrderMismatch("a jet needs at least the constant term")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, order: int = DEFAULT_ORDER) -> "TaylorJet":
        out = np.zeros((order + 1,) + np.shape(value))
        out[0] = value
        return TaylorJet(out)

    @staticmethod
    def variable(value, order: int = DEFAULT_ORDER) -> "TaylorJet":
        """Jet of the identity function t -> t around ``value`` (a float or an array)."""
        out = np.zeros((order + 1,) + np.shape(value))
        out[0], out[1:2] = value, 1.0
        return TaylorJet(out)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, n: int):
        """n-th derivative at the expansion points, i.e. ``n! * coeffs[n]``."""
        if not 0 <= n <= self.order:
            raise OrderExceeded(f"derivative order {n} exceeds jet order {self.order}")
        return math.factorial(n) * self.coeffs[n]

    def truncated(self, order: int) -> "TaylorJet":
        if order > self.order:
            raise OrderExceeded(f"cannot extend jet of order {self.order} to {order}")
        return TaylorJet(self.coeffs[: order + 1])

    def deriv(self) -> "TaylorJet":
        """Jet of the derivative function, one order lower."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        n = np.arange(1.0, self.order + 1).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return TaylorJet(n * self.coeffs[1:])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "TaylorJet":
        if isinstance(other, TaylorJet):
            if other.order != self.order:
                raise OrderMismatch(
                    f"jet orders differ: {self.order} vs {other.order}"
                )
            return other
        return TaylorJet.constant(np.broadcast_to(other, self.coeffs.shape[1:]), self.order)

    def __add__(self, other) -> "TaylorJet":
        return TaylorJet(self.coeffs + self._coerce(other).coeffs)

    __radd__ = __add__

    def __neg__(self) -> "TaylorJet":
        return TaylorJet(-self.coeffs)

    def __sub__(self, other) -> "TaylorJet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TaylorJet":
        return (-self) + other

    def __mul__(self, other) -> "TaylorJet":
        if not isinstance(other, TaylorJet):
            # the Cauchy product with a constant jet: its zero terms add +0.0
            return TaylorJet(self.coeffs * other + 0.0)
        a, b = self.coeffs, self._coerce(other).coeffs
        n = self.order
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        nonzero = a != 0.0
        points = tuple(range(1, a.ndim))
        for i, (every, some) in enumerate(zip(nonzero.all(axis=points).tolist(),
                                              nonzero.any(axis=points).tolist())):
            if every:
                out[i:] += a[i] * b[: n + 1 - i]
            elif some:              # a[i] is zero at some points: skip those
                out[i:] += np.where(nonzero[i], a[i] * b[: n + 1 - i], 0.0)
        return TaylorJet(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TaylorJet":
        a, b = self.coeffs, self._coerce(other).coeffs
        require(b[0] != 0.0, DivisionByZeroJet, lambda i: "jet division by a jet with "
                f"zero constant term{f' at point {i}' if b.ndim > 1 else ''}")
        b, out = list(b), []          # rows
        for k, acc in enumerate(a):
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out.append(acc / b[0])
        return TaylorJet(np.array(out))

    def __rtruediv__(self, other) -> "TaylorJet":
        return self._coerce(other) / self

    def __pow__(self, p) -> "TaylorJet":
        if isinstance(p, int):
            if p == 0:
                return self._coerce(1.0)
            if p < 0:
                return 1.0 / (self ** (-p))
            half = self ** (p // 2)
            sq = half * half
            return sq * self if p % 2 else sq
        return exp(float(p) * log(self))


def exp(a: TaylorJet) -> TaylorJet:
    """Jet of exp(f) via the convolution recurrence e' = f' e."""
    c = list(a.coeffs)              # rows
    out = [elementwise(math.exp, c[0])]
    for k in range(1, len(c)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * c[j] * out[k - j]
        out.append(acc / k)
    return TaylorJet(np.array(out))


def log(a: TaylorJet) -> TaylorJet:
    """Jet of log(f); requires a positive constant term at every point."""
    c = list(a.coeffs)              # rows
    require(c[0] > 0.0, LogDomain, lambda i: f"jet log needs positive value, got "
            f"{c[0].flat[i]}{f' at point {i}' if a.coeffs.ndim > 1 else ''}")
    out = [elementwise(math.log, c[0])]
    for k in range(1, len(c)):
        acc = k * c[k]
        for j in range(1, k):
            acc = acc - j * out[j] * c[k - j]
        out.append(acc / (k * c[0]))
    return TaylorJet(np.array(out))


def compose(outer: TaylorJet, inner: TaylorJet) -> TaylorJet:
    """Jet of the composite outer(inner(.)), with outer expanded at ``inner.value``.

    Horner evaluation of the outer polynomial in the nilpotent part of
    ``inner``; the caller is responsible for the matching expansion point.
    """
    if outer.order != inner.order:
        raise OrderMismatch(
            f"jet orders differ: {outer.order} vs {inner.order}"
        )
    shift = inner - inner.value
    acc = TaylorJet.constant(outer.coeffs[outer.order], inner.order)
    for k in range(outer.order - 1, -1, -1):
        acc = acc * shift + outer.coeffs[k]
    return acc
