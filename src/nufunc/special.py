"""Scalar special functions: log-gamma, the log-modulus and sign of 1/Gamma,
the inverse digamma, and the principal-branch complex power.

All gamma-family quantities are computed in log space, with an explicit
sign only where one can be negative (1/Gamma left of the origin);
linear-scale values only appear at the very end of a computation.
`log_gamma` and `reciprocal_gamma_log_signed` accept either a Python float
or a numpy array and return the matching kind, so the quadrature layer can
evaluate integrands on whole node batches at once.  One scalar kernel gives
digamma and trigamma together, for the nu peak probe and `digamma_inverse`.

The log-gamma kernel is a fixed-coefficient rational (Lanczos-class)
approximation with the coefficients embedded below, giving relative error
below 1e-13 on the positive real axis.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NonFinite

__all__ = [
    "log_gamma",
    "reciprocal_gamma_log_signed",
    "digamma_inverse",
    "complex_pow",
]

# Rational approximation for the exp(g)-scaled Lanczos sum, g chosen so the
# degree-12/12 fit keeps |relative error| < 1e-15 for x > 0.  Coefficient
# arrays are ordered from the x^12 term down to the constant term.
_LANCZOS_G = 6.024680040776729583740234375

_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)

# Denominator is x(x+1)...(x+11) expanded; exact integer coefficients.
_LANCZOS_DEN = (
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)

_LANCZOS_NUM_REV = tuple(reversed(_LANCZOS_NUM))
_LANCZOS_DEN_REV = tuple(reversed(_LANCZOS_DEN))
# (numerator, denominator) coefficient pairs for the scalar Horner loop.
_LANCZOS_PAIRS = tuple(zip(_LANCZOS_NUM, _LANCZOS_DEN))
_LANCZOS_PAIRS_REV = tuple(zip(_LANCZOS_NUM_REV, _LANCZOS_DEN_REV))
# ln Gamma(x) is 1.756e308 at this x and overflows a little above 2.556e305.
_LOG_GAMMA_MAX = 2.5e305
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _rational(num, den, t):
    """Horner evaluation of num(t) / den(t), coefficients highest first."""
    p = t * num[0]
    p += num[1]
    q = t * den[0]
    q += den[1]
    for c in num[2:]:
        p *= t
        p += c
    for c in den[2:]:
        q *= t
        q += c
    return p / q


def _lanczos_sum_scaled(x, x_min):
    """Evaluate the scaled Lanczos rational at an array x > 0 whose
    smallest element is x_min.

    For x >= 1 the polynomials are evaluated in 1/x so the Horner recursion
    stays well conditioned for large arguments; below 1 they are evaluated
    in x directly.  A mixed array runs the 1/x branch on every node, with
    those below 1 clipped to 1, and then overwrites those from their own
    branch, which costs less than gathering and scattering the rest.
    """
    # Both polynomials share the x^12 scaling, so the ratio is unchanged.
    if x_min >= 1.0:
        return _rational(_LANCZOS_NUM_REV, _LANCZOS_DEN_REV, 1.0 / x)
    out = _rational(_LANCZOS_NUM_REV, _LANCZOS_DEN_REV, 1.0 / np.maximum(x, 1.0))
    small = x < 1.0
    out[small] = _rational(_LANCZOS_NUM, _LANCZOS_DEN, x[small])
    return out


def _log_gamma_scalar(x: float) -> float:
    """Pure-scalar log-gamma; the hot path for peak searches and probes.

    It takes libm's log, which differs from numpy's vectorized log of the
    array path in the last bit on about 0.1% of arguments.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x > _LOG_GAMMA_MAX:
        raise DomainError(f"log_gamma requires x <= {_LOG_GAMMA_MAX:g}, got {x!r}")
    # The polynomials run in 1/x from x = 1 up and in x below, as in _lanczos_sum_scaled.
    t, pairs = (1.0 / x, _LANCZOS_PAIRS_REV) if x >= 1.0 else (x, _LANCZOS_PAIRS)
    num = den = 0.0
    for a, b in pairs:
        num = num * t + a
        den = den * t + b
    base = x + (_LANCZOS_G - 0.5)
    return (x - 0.5) * (math.log(base) - 1.0) + math.log(num / den)


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Accepts a float or array; relative error <= 1e-13 across the domain.
    """
    if np.isscalar(x) or np.ndim(x) == 0:
        return _log_gamma_scalar(float(x))
    arr = np.asarray(x, dtype=float)
    # A NaN propagates through both; an empty array passes.
    x_min = arr.min(initial=math.inf)
    x_max = arr.max(initial=0.0)
    if not (x_min > 0.0 and x_max < math.inf):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x_max > _LOG_GAMMA_MAX:
        raise DomainError(f"log_gamma requires x <= {_LOG_GAMMA_MAX:g}, got {x!r}")
    # The rational sum absorbs the sqrt(2*pi) prefactor of the Stirling-type
    # formula, so ln Gamma(x) = (x - 1/2) [ln(x + g - 1/2) - 1] + ln L(x).
    base = arr + (_LANCZOS_G - 0.5)
    return (arr - 0.5) * (np.log(base) - 1.0) + np.log(_lanczos_sum_scaled(arr, x_min))


def _sinpi(x):
    """sin(pi*x) with argument reduction; exactly 0.0 at integers."""
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = x - n
    s = np.sin(np.pi * r)
    parity = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    return parity * s


def reciprocal_gamma_log_signed(x):
    """(log magnitude, sign) of 1/Gamma(x) for any finite real x (array-capable).

    Zeros are reported as (-inf, 0.0), and above 2.5e305, where 1/Gamma
    underflows to +0, as (-inf, 1.0).  Used by integrands that must stay in
    log scale.  Each element runs only its own branch: -log Gamma(x) for
    x > 0, the reflection form otherwise.  A scalar comes back as a pair of
    floats, the elements of the one-element array.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"reciprocal_gamma_log_signed requires finite x, got {x!r}")
    if arr.ndim == 0:
        log_abs, sign = reciprocal_gamma_log_signed(arr.reshape(1))
        return float(log_abs[0]), float(sign[0])
    if arr.max(initial=0.0) > _LOG_GAMMA_MAX:
        log_abs, sign = reciprocal_gamma_log_signed(np.minimum(arr, _LOG_GAMMA_MAX))
        return np.where(arr > _LOG_GAMMA_MAX, -math.inf, log_abs), sign
    pos = arr > 0.0
    if pos.all():
        return -log_gamma(arr), np.ones_like(arr)
    log_abs = np.empty_like(arr)
    sign = np.ones_like(arr)
    log_abs[pos] = -log_gamma(arr[pos])
    neg = ~pos
    xn = arr[neg]
    s = _sinpi(xn)
    # Every x below -_LOG_GAMMA_MAX is an integer, a zero of 1/Gamma, so the
    # cap changes no value.
    lg = log_gamma(np.minimum(1.0 - xn, _LOG_GAMMA_MAX))
    with np.errstate(divide="ignore"):
        log_abs[neg] = np.log(np.abs(s)) - math.log(math.pi) + lg
    sign[neg] = np.sign(s)
    return log_abs, sign


_DIGAMMA_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
# (digamma, trigamma) coefficient pairs, highest order first: coefficient k
# of the digamma series is B_2k / 2k, trigamma's is B_2k.
_POLYGAMMA_ASYMPTOTIC_REV = tuple(
    (c, 2.0 * k * c) for k, c in zip(range(len(_DIGAMMA_ASYMPTOTIC), 0, -1), reversed(_DIGAMMA_ASYMPTOTIC))
)


def _polygamma_scalar(x: float) -> tuple:
    """(psi(x), psi'(x)) for x > 0, psi to absolute error <= 1e-12: the
    recurrence psi(x) = psi(x+1) - 1/x lifts x to >= 10, the Bernoulli
    series finishes, and both are differentiated for psi'."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"polygamma requires x > 0, got {x!r}")
    acc = acc1 = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        acc1 += 1.0 / (x * x)
        x += 1.0
    u = 1.0 / (x * x)
    tail = tail1 = 0.0
    for c, c1 in _POLYGAMMA_ASYMPTOTIC_REV:
        tail = tail * u + c
        tail1 = tail1 * u + c1
    return acc + math.log(x) - 0.5 / x - u * tail, acc1 + (1.0 + 0.5 / x + u * tail1) / x


def digamma_inverse(t):
    """Solve psi(y) = t for y > 0 (psi is strictly increasing there).

    Newton's method from the start point of Minka, "Estimating a Dirichlet
    distribution" (2000); a step that would leave y > 0 halves y instead.
    Convergence is quadratic: the step after one below 1e-8 is at rounding.
    Above ln(max float) the root overflows; below -1e150 it lies under
    1e-150, where the trigamma step underflows.
    """
    t = float(t)
    if not -1e150 <= t <= _LOG_FLOAT_MAX:
        raise DomainError(f"digamma_inverse requires -1e150 <= t <= {_LOG_FLOAT_MAX!r}, got {t!r}")
    y = math.exp(t) + 0.5 if t >= -2.22 else -1.0 / (t - _polygamma_scalar(1.0)[0])
    for _ in range(60):
        psi, psi1 = _polygamma_scalar(y)
        step = (psi - t) / psi1
        y = y - step if step < y else 0.5 * y
        if abs(step) <= 1e-8 * y:
            break
    return y


def complex_pow(w, E):
    """Principal-branch w**E: |w|^E * exp(i E Arg w), Arg in (-pi, pi].

    w = 0 maps to 0 for E > 0 and is a domain error otherwise.  A power
    that overflows raises NonFinite.
    """
    E = float(E)
    w = complex(w)
    if not (cmath.isfinite(w) and math.isfinite(E)):
        raise DomainError(f"complex_pow requires finite w and E, got w = {w!r}, E = {E!r}")
    if w == 0:
        if E > 0.0:
            return 0j
        raise DomainError("complex_pow(0, E) requires E > 0")
    try:
        value = cmath.exp(E * cmath.log(w))
        finite = cmath.isfinite(value)
    except (OverflowError, ValueError):  # ValueError: an exponent of inf+infj
        finite = False
    if not finite:
        raise NonFinite(f"complex_pow({w!r}, {E!r}) overflows")
    return value
