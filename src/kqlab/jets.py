"""Truncated Taylor-series ("jet") arithmetic.

A jet stores the normalized Taylor coefficients ``coeffs[n] = f^(n)(t0)/n!``
of a function at implicit expansion points, truncated at a fixed order, as
one array of shape ``(order + 1, *points)``; a scalar jet is the case with no
point axis.  Arithmetic propagates coefficients by the usual Cauchy-product and
composition recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 13), each step over the whole point axis, so a grid is one
pass, rounded at every point as that point alone would be (exp and log are numpy's
ufuncs, which round an element the same at any array length).  That gives exact
(round-off level) derivatives up to the truncation order: the substrate for
all curvature formulas.  The second expansion coefficient reads four
x-derivatives of the momentum profile, so curvature reports run their jets at
order 4 in x (a custom profile's at 6 in t); ``DEFAULT_ORDER`` 8 leaves other
callers margin.  A coefficient depends only on the coefficients of its own and
lower orders, so a lower truncation order never changes the ones it keeps.

All values are immutable; every operation returns a fresh jet.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivisionByZeroJet, LogDomain, OrderExceeded, OrderMismatch,
                     PreconditionFailed)

DEFAULT_ORDER = 8


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

    @classmethod
    def _raw(cls, coeffs: np.ndarray) -> "TaylorJet":
        """A jet over a float array an operation built itself, unchecked."""
        jet = object.__new__(cls)
        coeffs.flags.writeable = False
        object.__setattr__(jet, "coeffs", coeffs)
        return jet

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
        if order < 0:
            raise OrderMismatch("a jet needs at least the constant term")
        return TaylorJet._raw(self.coeffs[: order + 1])

    def deriv(self) -> "TaylorJet":
        """Jet of the derivative function, one order lower."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        return TaylorJet._raw(_deriv_factors(self.order, self.coeffs.ndim) * self.coeffs[1:])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "TaylorJet":
        if isinstance(other, TaylorJet):
            if len(other.coeffs) != len(self.coeffs):
                raise OrderMismatch(
                    f"jet orders differ: {self.order} vs {other.order}"
                )
            if other.coeffs.ndim != self.coeffs.ndim:
                raise PreconditionFailed("a scalar jet and a point-array jet do not mix: "
                                         f"shapes {self.coeffs.shape} and {other.coeffs.shape}")
            return other
        out = np.zeros(self.coeffs.shape)
        out[0] = other
        return TaylorJet._raw(out)

    def __add__(self, other) -> "TaylorJet":
        return TaylorJet._raw(self.coeffs + self._coerce(other).coeffs)

    __radd__ = __add__

    def __neg__(self) -> "TaylorJet":
        return TaylorJet._raw(-self.coeffs)

    def __sub__(self, other) -> "TaylorJet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TaylorJet":
        return (-self) + other

    def __mul__(self, other) -> "TaylorJet":
        if not isinstance(other, TaylorJet):
            # the Cauchy product with a constant jet: its zero terms add +0.0
            return TaylorJet._raw(self.coeffs * other + 0.0)
        a, b = self.coeffs, self._coerce(other).coeffs
        n = len(a) - 1
        out = np.zeros(a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape))
        # A zero a[i] times a finite b[j] adds a signed zero, which leaves a
        # sum started at +0.0 as it is; times an inf or a nan it would add a
        # nan, so if b has one, the zero terms are skipped point by point.
        finite = np.count_nonzero(np.isfinite(b)) == b.size
        for i in range(n + 1):
            term = a[i] * b[: n + 1 - i]
            out[i:] += term if finite else np.where(a[i] != 0.0, term, 0.0)
        return TaylorJet._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TaylorJet":
        a, b = self.coeffs, self._coerce(other).coeffs
        b0 = b[0]
        if np.count_nonzero(b0) < b0.size:      # nan passes, as it does b0 != 0
            require(b0 != 0.0, DivisionByZeroJet, lambda i: "jet division by a jet with "
                    f"zero constant term{f' at point {i}' if b.ndim > 1 else ''}")
        shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
        # out[k] = (a[k] - b[1] out[k-1] - ... - b[k] out[0]) / b[0], the
        # differences taken left to right by one sequential reduce per step
        out, terms = np.empty(shape), np.empty(shape)
        out[0] = a[0] / b0
        for k in range(1, len(a)):
            terms[0] = a[k]
            np.multiply(b[1: k + 1], out[k - 1::-1], out=terms[1: k + 1])
            out[k] = np.subtract.reduce(terms[: k + 1]) / b0
        return TaylorJet._raw(out)

    def __rtruediv__(self, other) -> "TaylorJet":
        return self._coerce(other) / self

    def __pow__(self, p) -> "TaylorJet":
        if isinstance(p, int):
            if p == 0:
                return self._coerce(1.0)
            if p == 1:
                return self
            if p < 0:
                return 1.0 / (self ** (-p))
            half = self ** (p // 2)
            sq = half * half
            return sq * self if p % 2 else sq
        return exp(float(p) * log(self))


@functools.lru_cache(maxsize=None)
def _deriv_factors(order: int, ndim: int) -> np.ndarray:
    """The factors 1, ..., order of ``deriv``, shaped to a jet of ``ndim`` axes; read-only."""
    n = np.arange(1.0, order + 1).reshape((-1,) + (1,) * (ndim - 1))
    n.flags.writeable = False
    return n


def exp(a: TaylorJet) -> TaylorJet:
    """Jet of exp(f) via the convolution recurrence e' = f' e."""
    c = list(a.coeffs)              # rows
    out = [np.exp(c[0])]
    for k in range(1, len(c)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * c[j] * out[k - j]
        out.append(acc / k)
    return TaylorJet._raw(np.array(out))


def log(a: TaylorJet) -> TaylorJet:
    """Jet of log(f); requires a positive constant term at every point."""
    c = list(a.coeffs)              # rows
    require(c[0] > 0.0, LogDomain, lambda i: f"jet log needs positive value, got "
            f"{c[0].flat[i]}{f' at point {i}' if a.coeffs.ndim > 1 else ''}")
    out = [np.log(c[0])]
    for k in range(1, len(c)):
        acc = k * c[k]
        for j in range(1, k):
            acc = acc - j * out[j] * c[k - j]
        out.append(acc / (k * c[0]))
    return TaylorJet._raw(np.array(out))


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
