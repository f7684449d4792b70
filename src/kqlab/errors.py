"""Exception hierarchy shared by all kqlab modules, and ``whole``, the one whole-number check."""

import operator


class KQLabError(Exception):
    """Base class for every error raised by kqlab."""


class OrderMismatch(KQLabError):
    """Jet operands of different truncation order were combined."""


class OrderExceeded(KQLabError):
    """A derivative beyond the jet's truncation order was requested."""


class DivisionByZeroJet(KQLabError, ZeroDivisionError):
    """Jet division by a jet whose constant term vanishes."""


class LogDomain(KQLabError, ValueError):
    """Jet logarithm of a jet whose constant term is not positive."""


class NegativeInput(KQLabError, ValueError):
    """An argument that must be non-negative was negative."""


class OutOfDomain(KQLabError, ValueError):
    """Evaluation point outside the admissible domain of a profile."""


class DegenerateJet(KQLabError):
    """Fiber convexity failed: the momentum profile is not positive."""


class EmptyGrid(KQLabError, ValueError):
    """A grid-valued operation received too few evaluation points."""


class BranchInvalid(KQLabError, ValueError):
    """Requested closed form is outside its branch validity window."""


class QuadratureNonConvergent(KQLabError, ArithmeticError):
    """A numerical integral failed to meet its accuracy target."""


class SeriesNonConvergent(KQLabError, ArithmeticError):
    """Series truncation cap reached before the tail criterion held."""


class TruncationInsufficient(KQLabError, ArithmeticError):
    """Monomial basis caps leave a tail above the requested tolerance."""


class PreconditionFailed(KQLabError, ValueError):
    """Structural precondition of an operation does not hold."""


def whole(value, least: int, what: str) -> int:
    """value as a plain int: what operator.index takes but a bool, at least ``least``."""
    try:
        if not isinstance(value, bool) and (n := operator.index(value)) >= least:
            return n
    except TypeError:
        pass
    raise PreconditionFailed(f"{what} must be an integer >= {least}, got {value!r}")
