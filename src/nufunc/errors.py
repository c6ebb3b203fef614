"""Exception types shared across the library.

Every error raised by the public API is one of these, so callers (and the
CLI) can map failures onto a small, stable set of outcomes.
"""

__all__ = [
    "NuFuncError",
    "DomainError",
    "DivergentFamily",
    "UnsupportedFamily",
    "UnsupportedNode",
    "NonDecaying",
    "NonFinite",
    "ToleranceNotMet",
    "NoConvergence",
    "ParseError",
]


class NuFuncError(Exception):
    """Base class for all library errors."""


class DomainError(NuFuncError):
    """An argument lies outside the mathematical domain of the operation."""


class DivergentFamily(DomainError):
    """The parameter family defines a divergent integral/series (p > q+1)."""


class UnsupportedFamily(NuFuncError):
    """The operation only supports specific parameter families."""


class UnsupportedNode(NuFuncError):
    """An expression tree contains a node outside the supported grammar."""


class NonDecaying(NuFuncError):
    """No truncation point found: the integrand does not decay below the clamp."""


class NonFinite(NuFuncError):
    """An integrand inside its integration range, or a scalarized
    expression, gave a non-finite value."""


class ToleranceNotMet(NuFuncError):
    """Adaptive integration exhausted its panel budget before reaching tolerance.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class NoConvergence(NuFuncError):
    """A series failed to converge within its term cap."""


class ParseError(NuFuncError):
    """An expression string could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
