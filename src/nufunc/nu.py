"""The nu-function family and its structure functions.

nu(w)            = integral over E >= 0 of w^E / Gamma(E+1)
nu_alpha(w, a)   = integral of w^(a+E) / Gamma(a+E+1)
nu_general(f, w) = integral of w^E / rho(E) for a parametrized family f,
                   where rho(E) = Gamma(E+1) * prod_j (b_j)_E / prod_i (a_i)_E

with the rising factorial (x)_E = Gamma(x+E)/Gamma(x).  The companion
discrete object is the hypergeometric-type power series sum_n w^n / rho(n).

Family convergence: the integral/series is entire when p <= q, converges on
the open unit disc when p = q + 1 (rho then grows only polynomially), and is
divergent for p > q + 1 (rho decays superexponentially); `convergence_domain`
names the case 'entire', 'unit_disc' or 'divergent'.  All rho evaluation
happens in log space; rho is positive, so ln rho is a plain float.  rho
itself overflows double precision near E ~ 170.

nu, nu_general_log and nu_alpha (the nu integral with its exponent moved
by a) share one integral core, `_nu_integral`.  The library calls the two
detailed evaluators; the four value-only views are kept for the benchmark.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentFamily, DomainError, NoConvergence, NonFinite, ToleranceNotMet
from .quadrature import (
    IntegrandProbe,
    IntegrationResult,
    QuadSpec,
    _LOG_DROP,
    _TRUNCATION_CLAMP,
    integrate_vector_semi_infinite,
    locate_peak,
)
from .special import (
    _digamma_scalar,
    _log_gamma_scalar,
    _trigamma_scalar,
    digamma_inverse,
    log_gamma,
    reciprocal_gamma_log_signed,
)

__all__ = [
    "HyperParams",
    "StructureFn",
    "rho_discrete",
    "rho_continuous",
    "convergence_domain",
    "nu",
    "nu_alpha",
    "nu_alpha_detailed",
    "nu_alpha_positive_batch",
    "nu_complex_grid",
    "nu_general",
    "nu_general_detailed",
    "nu_general_log",
    "nu_on_circle",
    "nu_positive_batch",
    "pfq_series",
    "pfq_series_log",
]

_SERIES_CAP = 10000
_SERIES_CUTOFF = 1e-16


@dataclass(frozen=True)
class HyperParams:
    """Parameter set (p, q, {a_i}, {b_j}) of a hypergeometric-type family.

    All entries must be positive; list lengths must equal p and q.
    """

    p: int
    q: int
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if self.p < 0 or self.q < 0:
            raise DomainError("HyperParams requires p >= 0 and q >= 0")
        if len(self.a) != self.p or len(self.b) != self.q:
            raise DomainError(
                f"HyperParams length mismatch: p={self.p} with {len(self.a)} "
                f"upper entries, q={self.q} with {len(self.b)} lower entries"
            )
        if any(v <= 0.0 or not math.isfinite(v) for v in self.a + self.b):
            raise DomainError("HyperParams entries must be positive and finite")


@dataclass(frozen=True)
class StructureFn:
    """Log-space evaluator for the structure function rho of one family."""

    params: HyperParams
    # (entry, ln Gamma(entry)) for the lower entries b_j and the upper
    # entries a_i, and the shifts (1, b_j..., a_i...) that E is added to.
    _b_terms: tuple = field(init=False, repr=False, compare=False)
    _a_terms: tuple = field(init=False, repr=False, compare=False)
    _shifts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b, a = self.params.b, self.params.a
        object.__setattr__(self, "_b_terms", tuple((v, _log_gamma_scalar(v)) for v in b))
        object.__setattr__(self, "_a_terms", tuple((v, _log_gamma_scalar(v)) for v in a))
        object.__setattr__(self, "_shifts", np.array((1.0,) + b + a))

    def log_rho_continuous(self, E):
        """ln rho(E) for E >= 0, vectorized over numpy arrays.

        One log_gamma call covers Gamma(1 + E), every Gamma(b_j + E) and
        every Gamma(a_i + E).
        """
        E = np.asarray(E, dtype=float)
        lg = log_gamma(self._shifts.reshape((-1,) + (1,) * E.ndim) + E)
        out = lg[0]
        for k, (_, c) in enumerate(self._b_terms, 1):
            out = out + (lg[k] - c)
        for k, (_, c) in enumerate(self._a_terms, 1 + self.params.q):
            out = out - (lg[k] - c)
        return out

    def _log_rho_derivative(self, E: float, polygamma=_digamma_scalar) -> float:
        """d/dE ln rho(E); the second derivative with `_trigamma_scalar`."""
        out = polygamma(E + 1.0)
        for bj, _ in self._b_terms:
            out += polygamma(bj + E)
        for ai, _ in self._a_terms:
            out -= polygamma(ai + E)
        return out

    def log_rho_scalar(self, E: float) -> float:
        E = float(E)
        out = _log_gamma_scalar(E + 1.0)
        for bj, c in self._b_terms:
            out += _log_gamma_scalar(bj + E) - c
        for ai, c in self._a_terms:
            out -= _log_gamma_scalar(ai + E) - c
        return out


def convergence_domain(sf: StructureFn) -> str:
    """Where the family's integral/series converges: 'entire', 'unit_disc'
    or 'divergent' (`_check_domain` applies the same rule)."""
    p, q = sf.params.p, sf.params.q
    return "entire" if p <= q else "unit_disc" if p == q + 1 else "divergent"


def _integer(n, name: str) -> int:
    """`n` as an int if it is an integer or an integral float, else DomainError naming it."""
    if isinstance(n, numbers.Integral) or (isinstance(n, numbers.Real) and float(n).is_integer()):
        return int(n)
    raise DomainError(f"{name} must be an integer, got {n!r}")


def rho_discrete(sf: StructureFn, n: int) -> float:
    """ln[n! * prod (b_j)_n / prod (a_i)_n], built as an explicit product.

    The term-by-term log sum keeps this independent of the continuous
    gamma-ratio route, so the two can cross-check each other.
    """
    n = _integer(n, "index n")
    if n < 0:
        raise DomainError(f"rho_discrete requires n >= 0, got {n}")
    total = 0.0
    for k in range(n):
        total += math.log(k + 1.0)
        for bj in sf.params.b:
            total += math.log(bj + k)
        for ai in sf.params.a:
            total -= math.log(ai + k)
    return total


def rho_continuous(sf: StructureFn, E: float) -> float:
    """ln rho(E) for real E >= 0; rho is positive there."""
    E = float(E)
    if E < 0.0 or not math.isfinite(E):
        raise DomainError(f"rho_continuous requires E >= 0, got {E!r}")
    return sf.log_rho_scalar(E)


_SF_PLAIN = StructureFn(HyperParams(0, 0))


def _peak_hint(log_abs_w: float) -> float:
    """Starting guess for the integrand peak: psi(E+1) ~ log|w|."""
    return max(digamma_inverse(log_abs_w) - 1.0, 1e-3)


def _check_domain(params: HyperParams, abs_w) -> None:
    """DivergentFamily, or DomainError at the first |w| >= 1 of `abs_w` (any shape)."""
    p, q = params.p, params.q
    if p > q + 1:
        raise DivergentFamily(
            f"family (p={p}, q={q}) has p > q+1; "
            "the defining integral diverges for every argument"
        )
    outside = np.ravel(abs_w)[np.ravel(abs_w) >= 1.0] if p == q + 1 else ()
    if len(outside):
        raise DomainError(
            f"family (p={p}, q={q}) converges only for "
            f"|w| < 1; got |w| = {outside[0]:.6g}"
        )


def _nu_probe(sf: StructureFn, log_r: float) -> IntegrandProbe:
    """`locate_peak`'s probe for g(E) = E*log_r - ln rho(E) by safeguarded
    Newton's method on g' = log_r - psi(E+1) - sum psi(b_j+E) + sum psi(a_i+E)
    and g'' (trigamma).  T is approached from the right of its root, where
    every iterate of a concave g meets the probe's invariant.  g'' >= 0 at a
    peak iterate with no rise seen hands over to `_convex_probe`.  Without
    evidence for a single peak (that fails, g(0) is above the peak, or a T
    iterate crosses back or leaves (peak, 1e6]) it falls back to
    `locate_peak`: small a_i can make g convex.
    """

    def g(E):
        E = max(E, 0.0)
        return E * log_r - sf.log_rho_scalar(E)

    # The psi sum grows like (1 + q - p) ln E.
    hint = _peak_hint(log_r / max(1 + sf.params.q - sf.params.p, 1))
    # g' > 0 at lo (none known while lo = -1); the peak lies below hi.
    x, lo, hi = hint, -1.0, _TRUNCATION_CLAMP
    for _ in range(60):
        d1 = log_r - sf._log_rho_derivative(x)
        d2 = -sf._log_rho_derivative(x, _trigamma_scalar)
        if not d2 < 0.0:
            # No rise seen yet: g may be convex and falling from E = 0.
            return (lo < 0.0 and d1 < 0.0 and _convex_probe(sf, g, log_r)) or locate_peak(g, hint)
        if x == 0.0 and d1 <= 0.0:
            break
        step = d1 / d2
        if abs(step) <= 1e-7 * max(x, 1.0):
            x = max(x - step, 0.0)
            break
        lo, hi = (x, hi) if d1 > 0.0 else (lo, x)
        x -= step
        if not max(lo, 0.0) < x < hi:
            # Bisect; while no point left of the peak is known, try E = 0.
            x = 0.5 * (lo + hi) if lo >= 0.0 else 0.0
    else:
        return locate_peak(g, hint)
    peak = g(x)
    if x > 0.0 and not peak >= g(0.0):
        return locate_peak(g, hint)
    # Root of the quadratic model g(x) + d1*t + d2*t^2/2 = peak - drop, stably.
    T = x + 2.0 * _LOG_DROP / (math.sqrt(d1 * d1 - 2.0 * d2 * _LOG_DROP) - d1)
    for k in range(60):
        if not x < T <= _TRUNCATION_CLAMP:
            break
        h, d1 = g(T) - (peak - _LOG_DROP), log_r - sf._log_rho_derivative(T)
        # Past the first step, h > 0 means an iterate crossed back.
        if not d1 < 0.0 or (k and h > 0.0):
            break
        step = h / d1
        if h <= 0.0 and step <= 1e-3 * T:
            return IntegrandProbe(x, T, peak)
        T -= step
    return locate_peak(g, hint)


def _convex_probe(sf: StructureFn, g, log_r: float):
    """The probe of a g convex and falling from its peak at E = 0, by Newton's
    method on g(T) = g(0) - drop from the left, where a convex g's tangent
    roots stay, and a doubled last step past the root.  None when g is not
    convex and falling at an iterate."""
    T, h, peak = 0.0, _LOG_DROP, g(0.0)
    for _ in range(60):
        d1 = log_r - sf._log_rho_derivative(T)
        # g'' is minus the trigamma sum.
        if not (d1 < 0.0 and sf._log_rho_derivative(T, _trigamma_scalar) <= 0.0):
            return None
        step = -h / d1
        T += step if step > 1e-3 * T else 2.0 * step
        if not T <= _TRUNCATION_CLAMP:
            return None
        h = g(T) - (peak - _LOG_DROP)
        if h <= 0.0:
            return IntegrandProbe(0.0, T, peak)
    return None


_LOG_DBL_MIN = math.log(np.finfo(float).tiny)


def _flushed_exp(x):
    """exp(x) in place, +0.0 where Re x < ln DBL_MIN: below any tolerance, and 10-100x faster."""
    low = x.real < _LOG_DBL_MIN
    x[low] = 0.0
    np.exp(x, out=x)
    x[low] = 0.0
    return x


def _nu_integral(probe, terms, c: np.ndarray, ws, spec: QuadSpec, name: str, alpha=0.0, shift=0.0):
    """Integral over E >= 0 of exp(c*(alpha+E) + L(E) - shift) * sigma(E)
    for the exponents c = ln|w| + i*arg(w) of a 1-d array of arguments `ws`,
    all on one panel tree.  `terms(E)` gives the node terms: (L,) = (-ln rho,)
    for a family (alpha 0, sigma 1), or reciprocal_gamma_log_signed(alpha+E+1)
    = (L, sigma) for nu_alpha.  `shift` is nu_general_log's peak log value.
    Panels are capped at 6 / max|Im c| to resolve the oscillation, or else,
    when alpha <= -1/2, at 0.5 left of max(-alpha-1, 0) + 2, where 1/Gamma
    changes sign.  ToleranceNotMet, led by `name`, names the first of `ws`
    whose error estimate exceeds rel_tol*|value|, as a cancelling integrand's can.
    """

    # Called with the nodes alone, as a tracer's wrapper does, f evaluates its terms.
    def f(E, *t):
        E = np.asarray(E, dtype=float)
        log_abs, *sign = t or terms(E)
        # At a zero of 1/Gamma, log_abs is -inf: exp gives 0, times sign 0 is +0.0.
        x = (alpha + E if alpha else E)[:, None] * c  # a family skips 0 + E
        x += log_abs[:, None]
        if shift:
            x -= shift
        _flushed_exp(x)
        if alpha <= -1.0:  # above, every sign of 1/Gamma(alpha+E+1) is +1
            x *= sign[0][:, None]
        return x

    # The engine evaluates the node terms once per level, not once per call.
    f.node_terms = terms
    # exp of a real exponent is >= 0, and so is 1/Gamma(alpha+E+1) for alpha > -1.
    f.nonnegative = alpha > -1.0 and not np.iscomplexobj(c)
    max_im = float(np.max(np.abs(c.imag))) if np.iscomplexobj(c) else 0.0
    if max_im > 1e-9:
        max_width, cap_end = 6.0 / max_im, math.inf
    else:
        max_width, cap_end = (0.5 if alpha <= -0.5 else None), max(-alpha - 1.0, 0.0) + 2.0
    res = integrate_vector_semi_infinite(f, probe, spec, max_width, cap_end, node_bytes=c.nbytes)
    miss = res.error_estimate > spec.rel_tol * np.abs(res.value)
    if np.count_nonzero(miss):
        k = int(np.argmax(miss))
        w, err, val = ws[k], res.error_estimate[k], abs(res.value[k])
        msg = f"{name} at w = {w:.6g} misses rel_tol {spec.rel_tol:g}: error estimate {err:.3g}"
        raise ToleranceNotMet(f"{msg} against |value| {val:.3g}", res.value, res.error_estimate)
    return res


def _exponents(ws: np.ndarray):
    """(c, log_r) for a 1-d array of finite nonzero arguments: c = ln|w|,
    plus i*arg(w) if `ws` is complex or has an entry < 0; log_r = max ln|w|.
    One argument takes libm's |w|, ln and arg (math, cmath); numpy's vector
    loops differ from them in the last bit for some complex w."""
    if ws.size == 1:
        w = ws.item()
        log_r = math.log(abs(w))
        c = complex(log_r, cmath.phase(w)) if isinstance(w, complex) or w < 0 else log_r
        return np.array([c]), log_r
    abs_w = np.abs(ws)
    c = np.log(abs_w)
    if np.iscomplexobj(ws) or (ws < 0.0).any():
        c = c + 1j * np.angle(ws)
    return c, (math.log(float(abs_w.max())) if ws.size else 0.0)


def _result(res: IntegrationResult, shape) -> IntegrationResult:
    """Flat rows as a scalar argument's complex and float, else in `shape`."""
    value, error = res.value, res.error_estimate
    if not shape:
        return IntegrationResult(complex(value[0]), float(error[0]), res.panel_count)
    return IntegrationResult(value.reshape(shape), error.reshape(shape), res.panel_count)


def nu_general_detailed(sf: StructureFn, w, spec: QuadSpec):
    """nu_general and its error estimate at a scalar or an array `w`, as a
    numpy ufunc takes it: one probe and panel tree, a relative budget per
    argument, arrays shaped like `w` (a scalar is the one-row array, as a
    complex and a float), 0 with error 0 at w = 0, and real exponents unless
    w is complex or negative.  Raises, in this order and in the same words
    for any shape: DomainError at the first non-finite w, DivergentFamily
    when p > q + 1, DomainError at the first |w| >= 1 when p = q + 1."""
    ws = np.asarray(w)
    flat = ws.ravel()
    finite = np.isfinite(flat)
    if np.count_nonzero(finite) < flat.size:  # faster than .all() on a few entries
        bad = flat[np.argmin(finite)].item()
        raise DomainError(f"nu_general requires a finite argument, got {bad}")
    abs_w = np.abs(flat)
    _check_domain(sf.params, abs_w)
    nz = abs_w != 0.0
    args = flat[nz]
    c, log_r = _exponents(args)
    res = IntegrationResult(c, np.zeros(0), 0)
    if c.size:
        log_weight = lambda E: (-sf.log_rho_continuous(E),)  # noqa: E731
        res = _nu_integral(_nu_probe(sf, log_r), log_weight, c, args, spec, "nu")
    if c.size < flat.size:  # a zero argument gives 0 with error 0
        value, error = np.zeros(flat.shape, c.dtype), np.zeros(flat.shape)
        value[nz], error[nz] = res.value, res.error_estimate
        res = IntegrationResult(value, error, res.panel_count)
    return _result(res, ws.shape)


def nu_general(sf: StructureFn, w, spec: QuadSpec):
    """Generalized nu: integral over E >= 0 of w^E / rho(E), at a scalar
    or an array of arguments, as nu_general_detailed.

    Complex w is handled on the principal branch of w^E; accuracy degrades
    gracefully as arg(w) approaches +/-pi (oscillatory integrand).
    """
    return nu_general_detailed(sf, w, spec).value


def nu(w, spec: QuadSpec):
    """Volterra nu-function: integral over E >= 0 of w^E / Gamma(E+1)."""
    return nu_general(_SF_PLAIN, w, spec)


def nu_general_log(sf: StructureFn, w: float, spec: QuadSpec) -> float:
    """ln nu_general(sf, w) for real w > 0, safe for very large arguments.

    The quadrature runs with exp(peak log value) factored out, so the result
    is finite long after the linear-scale value has overflowed.
    """
    w = float(w)
    if not 0.0 < w < math.inf:
        raise DomainError(f"nu_general_log requires finite w > 0, got {w!r}")
    _check_domain(sf.params, w)
    log_r = math.log(w)
    probe = _nu_probe(sf, log_r)
    log_weight = lambda E: (-sf.log_rho_continuous(E),)  # noqa: E731
    res = _nu_integral(probe, log_weight, np.array([log_r]), (w,), spec, "nu", shift=probe.peak_log_value)
    return probe.peak_log_value + math.log(res.value[0])


def nu_alpha_detailed(w, alpha: float, spec: QuadSpec):
    """nu_alpha and its error estimate at a scalar or an array `w`, as
    nu_general_detailed (an array's values are real).  Raises DomainError at
    the first w not finite and > 0, then at a non-finite alpha, alike for any shape."""
    ws = np.asarray(w, dtype=float)
    flat = ws.ravel()
    ok = (flat > 0.0) & (flat < math.inf)
    if np.count_nonzero(ok) < flat.size:
        raise DomainError(f"nu_alpha requires w > 0, got {float(flat[np.argmin(ok)])!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"nu_alpha requires finite alpha, got {alpha!r}")
    c, log_r = _exponents(flat)
    if not c.size:
        return _result(IntegrationResult(c, c, 0), ws.shape)
    # Right of E0, past the last zero of 1/Gamma, the log-modulus at log_r is
    # the concave (1,1; 1; b) family's at E - E0 plus `up`, so that family's
    # probe, moved by E0 and up, is the probe (left of E0 the log-modulus may
    # rise above its peak value, putting T even further below the maximum).
    E0 = max(-alpha - 0.5, 0.0)
    b = alpha + 1.0 + E0
    p = _nu_probe(StructureFn(HyperParams(1, 1, (1.0,), (b,))), log_r)
    up = (alpha + E0) * log_r - _log_gamma_scalar(b)
    probe = IntegrandProbe(p.peak_location + E0, p.truncation_point + E0, p.peak_log_value + up)
    log_weight = lambda E: reciprocal_gamma_log_signed(alpha + E + 1.0)  # noqa: E731
    res = _nu_integral(probe, log_weight, c, flat, spec, f"nu_alpha (alpha = {alpha:g})", alpha)
    return _result(res, ws.shape)


def nu_alpha(w, alpha: float, spec: QuadSpec):
    """Shifted nu: integral over E >= 0 of w^(alpha+E) / Gamma(alpha+E+1),
    at a scalar or an array of arguments, as nu_alpha_detailed.

    Defined for real w > 0 and any real alpha.  For alpha <= -1 the
    reciprocal gamma factor has zeros at E = -alpha-1-k >= 0 and the
    integrand changes sign between them; panels are capped there so the
    sign lobes are resolved.
    """
    return nu_alpha_detailed(w, alpha, spec).value.real


def nu_on_circle(r: float, phases, sf: StructureFn, spec: QuadSpec):
    """nu_general at w = r * exp(i*phase) for a batch of phases: the
    one-modulus row of nu_complex_grid."""
    return nu_complex_grid(sf, [r], phases, spec)[0]


def nu_positive_batch(sf: StructureFn, ws, spec: QuadSpec):
    """nu_general_detailed's values at an array of real arguments >= 0.
    No library module calls it or the other views."""
    ws = np.asarray(ws, dtype=float)
    if np.any(ws < 0.0) or np.any(~np.isfinite(ws)):
        raise DomainError("nu_positive_batch requires finite ws >= 0")
    return np.real(nu_general_detailed(sf, ws, spec).value)


def nu_alpha_positive_batch(ws, alpha: float, spec: QuadSpec):
    """nu_alpha_detailed's values at an array of arguments > 0."""
    return nu_alpha_detailed(ws, alpha, spec).value


def nu_complex_grid(sf: StructureFn, moduli, phases, spec: QuadSpec):
    """nu_general_detailed's values on the outer grid
    w[j,k] = moduli[j] * exp(i*phases[k]): a complex array of shape
    (len(moduli), len(phases)); rows with modulus 0 are exactly 0.
    """
    moduli = np.asarray(moduli, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if moduli.ndim != 1 or phases.ndim != 1:
        raise DomainError("nu_complex_grid expects 1-d moduli and phases")
    if np.any(moduli < 0.0) or np.any(~np.isfinite(moduli)):
        raise DomainError("nu_complex_grid requires finite moduli >= 0")
    return nu_general_detailed(sf, moduli[:, None] * np.exp(1j * phases), spec).value


def pfq_series(params: HyperParams, w) -> complex:
    """Power series sum over n of w^n / rho(n), summed to relative 1e-16.

    Terms are built by the exact ratio recurrence; the sum stops once a term
    falls below 1e-16 of the running sum (cap 10000 terms).
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"pfq_series requires a finite argument, got {w}")
    _check_domain(params, abs(w))
    term = 1.0 + 0j
    total = term
    for n in range(_SERIES_CAP):
        ratio = w
        for ai in params.a:
            ratio *= ai + n
        denom = n + 1.0
        for bj in params.b:
            denom *= bj + n
        term = term * ratio / denom
        total += term
        if not cmath.isfinite(total):
            raise NonFinite(f"series sum overflows at |w|={abs(w):.6g} after {n + 1} terms")
        if abs(term) < _SERIES_CUTOFF * abs(total):
            return total
    raise NoConvergence(
        f"series did not converge within {_SERIES_CAP} terms at |w|={abs(w):.6g}"
    )


def pfq_series_log(params: HyperParams, w: float) -> float:
    """ln of the series value for real w >= 0, evaluated wholly in log space.

    An entire family's terms peak near n* = w^(1/(1+q-p)), so its cap is
    10 000 terms plus n* + 10*sqrt(n*) while n* is within the 1e6
    truncation clamp; a unit-disc family keeps 10 000.
    """
    if not 0.0 <= w < math.inf:
        raise DomainError(f"pfq_series_log requires finite w >= 0, got {w!r}")
    if w == 0.0:
        return 0.0
    _check_domain(params, w)
    cap = _SERIES_CAP
    if params.p <= params.q:
        peak = w ** (1.0 / (1 + params.q - params.p))
        if peak <= _TRUNCATION_CLAMP:
            cap += int(peak + 10.0 * math.sqrt(peak))
    log_w = math.log(w)
    log_terms = [0.0]
    lt = 0.0
    best = 0.0
    for n in range(cap):
        step = log_w
        for ai in params.a:
            step += math.log(ai + n)
        step -= math.log(n + 1.0)
        for bj in params.b:
            step -= math.log(bj + n)
        lt += step
        log_terms.append(lt)
        best = max(best, lt)
        if lt < best + math.log(_SERIES_CUTOFF) and step < 0.0:
            arr = np.asarray(log_terms)
            return best + math.log(np.sum(np.exp(arr - best)))
    raise NoConvergence(
        f"log-scale series did not converge within {cap} terms at w={w:.6g}"
    )
