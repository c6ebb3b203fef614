"""The nu-function family and its structure functions.

nu(w)            = integral over E >= 0 of w^E / Gamma(E+1)
nu_alpha(w, a)   = integral of w^(a+E) / Gamma(a+E+1)
nu_general(f, w) = integral of w^E / rho(E) for a parametrized family f,
                   where rho(E) = Gamma(E+1) * prod_j (b_j)_E / prod_i (a_i)_E

with the rising factorial (x)_E = Gamma(x+E)/Gamma(x).  The companion
discrete object is the hypergeometric-type power series sum_n w^n / rho(n).

Family convergence: the integral/series is entire when p <= q, converges on
the open unit disc when p = q + 1 (rho then grows only polynomially), and is
divergent for p > q + 1 (rho decays superexponentially).  All rho evaluation
happens in log space; rho overflows double precision near E ~ 170.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentFamily, DomainError, NoConvergence
from .quadrature import (
    IntegrationResult,
    QuadSpec,
    integrate_semi_infinite_detailed,
    integrate_vector_semi_infinite,
    locate_peak,
)
from .special import (
    LogSigned,
    _log_gamma_scalar,
    digamma_inverse,
    log_gamma,
    reciprocal_gamma_log_signed,
)

__all__ = [
    "HyperParams",
    "StructureFn",
    "ConvergenceDomain",
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

    def log_rho_continuous(self, E):
        """ln rho(E) for E >= 0, vectorized over numpy arrays."""
        E = np.asarray(E, dtype=float)
        out = log_gamma(E + 1.0)
        for bj in self.params.b:
            out = out + (log_gamma(bj + E) - log_gamma(bj))
        for ai in self.params.a:
            out = out - (log_gamma(ai + E) - log_gamma(ai))
        return out

    def log_rho_scalar(self, E: float) -> float:
        E = float(E)
        out = _log_gamma_scalar(E + 1.0)
        for bj in self.params.b:
            out += _log_gamma_scalar(bj + E) - _log_gamma_scalar(bj)
        for ai in self.params.a:
            out -= _log_gamma_scalar(ai + E) - _log_gamma_scalar(ai)
        return out


@dataclass(frozen=True)
class ConvergenceDomain:
    """Where the family's integral/series converges."""

    kind: str  # 'entire' | 'unit_disc' | 'divergent'


def convergence_domain(sf: StructureFn) -> ConvergenceDomain:
    p, q = sf.params.p, sf.params.q
    if p <= q:
        return ConvergenceDomain("entire")
    if p == q + 1:
        return ConvergenceDomain("unit_disc")
    return ConvergenceDomain("divergent")


def rho_discrete(sf: StructureFn, n: int) -> LogSigned:
    """ln[n! * prod (b_j)_n / prod (a_i)_n], built as an explicit product.

    The term-by-term log sum keeps this independent of the continuous
    gamma-ratio route, so the two can cross-check each other.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"rho_discrete requires n >= 0, got {n}")
    total = 0.0
    for k in range(n):
        total += math.log(k + 1.0)
        for bj in sf.params.b:
            total += math.log(bj + k)
        for ai in sf.params.a:
            total -= math.log(ai + k)
    return LogSigned(total, 1.0)


def rho_continuous(sf: StructureFn, E: float) -> LogSigned:
    """ln rho(E) for real E >= 0 in log-signed form (sign is always +1)."""
    E = float(E)
    if E < 0.0 or not math.isfinite(E):
        raise DomainError(f"rho_continuous requires E >= 0, got {E!r}")
    return LogSigned(sf.log_rho_scalar(E), 1.0)


_SF_PLAIN = StructureFn(HyperParams(0, 0))


def _peak_hint(log_abs_w: float) -> float:
    """Starting guess for the integrand peak: psi(E+1) ~ log|w|."""
    return max(digamma_inverse(log_abs_w) - 1.0, 1e-3)


def _check_domain(sf: StructureFn, abs_w: float) -> None:
    dom = convergence_domain(sf)
    if dom.kind == "divergent":
        raise DivergentFamily(
            f"family (p={sf.params.p}, q={sf.params.q}) has p > q+1; "
            "the defining integral diverges for every argument"
        )
    if dom.kind == "unit_disc" and abs_w >= 1.0:
        raise DomainError(
            f"family (p={sf.params.p}, q={sf.params.q}) converges only for "
            f"|w| < 1; got |w| = {abs_w:.6g}"
        )


def _nu_integral(sf: StructureFn, log_r: float, c, spec: QuadSpec, scaled=False, shared_scale=True):
    """Integral over E >= 0 of exp(c*E) / rho(E) for one exponent
    c = ln|w| + i*arg(w), or for a 1-d array of them on one panel tree.

    The peak probe runs at `log_r`, the largest ln|w|; panels are capped at
    6 / max|Im c| to resolve the oscillation.  With `scaled` the integrand
    is divided by exp(peak log value).  Returns (result, log_scale) with
    integral = exp(log_scale) * result.value.
    """

    def log_mod(E):
        E = max(E, 0.0)
        return E * log_r - sf.log_rho_scalar(E)

    probe = locate_peak(log_mod, _peak_hint(log_r))
    shift = probe.peak_log_value if scaled else 0.0
    col = (slice(None),) + (None,) * np.ndim(c)

    def f(E):
        E = np.asarray(E, dtype=float)
        x = E[col] * c
        x -= sf.log_rho_continuous(E)[col]
        x -= shift
        return np.exp(x, out=x)

    max_im = float(np.max(np.abs(np.imag(c))))
    max_width = 6.0 / max_im if max_im > 1e-9 else None
    return _engine(f, probe, spec, c, max_width, shared_scale), shift


def _nu_alpha_integral(log_r: float, c, alpha: float, spec: QuadSpec):
    """Integral over E >= 0 of exp(c*(alpha+E)) / Gamma(alpha+E+1) for one
    c = ln w, or for a 1-d array of them on one panel tree with per-component
    budgets; `log_r` is the largest ln w."""
    col = (slice(None),) + (None,) * np.ndim(c)

    def f(E):
        E = np.asarray(E, dtype=float)
        log_abs, sign = reciprocal_gamma_log_signed(alpha + E + 1.0)
        vals = sign[col] * np.exp((alpha + E)[col] * c + log_abs[col])
        return np.where(sign[col] == 0.0, 0.0, vals)

    def log_mod(E):
        log_abs, _ = reciprocal_gamma_log_signed(np.array([alpha + E + 1.0]))
        return (alpha + E) * log_r + float(log_abs[0])

    # Keep the peak search to the right of the last zero of 1/Gamma.
    hint = max(_peak_hint(log_r) - alpha, -alpha - 1.0 + 1.5, 0.05)
    probe = locate_peak(log_mod, hint)
    max_width = 0.5 if alpha <= -0.5 else None
    return _engine(f, probe, spec, c, max_width, shared_scale=False)


def _engine(f, probe, spec, c, max_width, shared_scale) -> IntegrationResult:
    """Scalar engine for a scalar `c`; shared panel tree for an array."""
    if np.ndim(c) == 0:
        return integrate_semi_infinite_detailed(f, probe, spec, max_panel_width=max_width)
    values, errors, panels = integrate_vector_semi_infinite(
        f, probe, spec, max_panel_width=max_width, shared_scale=shared_scale
    )
    return IntegrationResult(values, errors, panels)


def nu_general_detailed(sf: StructureFn, w, spec: QuadSpec):
    """As nu_general, but returning the IntegrationResult with its error
    accounting (value, error_estimate, panel_count)."""
    w = complex(w)
    _check_domain(sf, abs(w))
    if w == 0:
        return IntegrationResult(0j, 0.0, 0)
    log_r = math.log(abs(w))
    return _nu_integral(sf, log_r, complex(log_r, cmath.phase(w)), spec)[0]


def nu_general(sf: StructureFn, w, spec: QuadSpec) -> complex:
    """Generalized nu: integral over E >= 0 of w^E / rho(E).

    Complex w is handled on the principal branch of w^E; accuracy degrades
    gracefully as arg(w) approaches +/-pi (oscillatory integrand).
    """
    return complex(nu_general_detailed(sf, w, spec).value)


def nu(w, spec: QuadSpec) -> complex:
    """Volterra nu-function: integral over E >= 0 of w^E / Gamma(E+1)."""
    return nu_general(_SF_PLAIN, w, spec)


def nu_general_log(sf: StructureFn, w: float, spec: QuadSpec) -> float:
    """ln nu_general(sf, w) for real w > 0, safe for very large arguments.

    The quadrature runs with exp(peak log value) factored out, so the result
    is finite long after the linear-scale value has overflowed.
    """
    w = float(w)
    if not (w > 0.0):
        raise DomainError(f"nu_general_log requires w > 0, got {w!r}")
    _check_domain(sf, w)
    log_r = math.log(w)
    res, shift = _nu_integral(sf, log_r, log_r, spec, scaled=True)
    return shift + math.log(res.value.real)


def nu_alpha_detailed(w: float, alpha: float, spec: QuadSpec):
    """As nu_alpha, but returning the IntegrationResult with its error
    accounting (value, error_estimate, panel_count)."""
    w = float(w)
    alpha = float(alpha)
    if not (w > 0.0) or not math.isfinite(w):
        raise DomainError(f"nu_alpha requires w > 0, got {w!r}")
    if not math.isfinite(alpha):
        raise DomainError(f"nu_alpha requires finite alpha, got {alpha!r}")
    log_w = math.log(w)
    return _nu_alpha_integral(log_w, log_w, alpha, spec)


def nu_alpha(w: float, alpha: float, spec: QuadSpec) -> float:
    """Shifted nu: integral over E >= 0 of w^(alpha+E) / Gamma(alpha+E+1).

    Defined for real w > 0 and any real alpha.  For alpha <= -1 the
    reciprocal gamma factor has zeros at E = -alpha-1-k >= 0 and the
    integrand changes sign between them; panels are capped there so the
    sign lobes are resolved.
    """
    return float(nu_alpha_detailed(w, alpha, spec).value.real)


def nu_on_circle(r: float, phases, sf: StructureFn, spec: QuadSpec):
    """nu_general at w = r * exp(i*phase) for a batch of phases: the
    one-modulus row of nu_complex_grid."""
    return nu_complex_grid(sf, [r], phases, spec)[0]


def nu_positive_batch(sf: StructureFn, ws, spec: QuadSpec):
    """nu_general at a batch of real arguments >= 0, sharing one panel tree.

    Every component is integrated on the same adaptively refined panels but
    held to its own relative error budget.  This is what makes nested
    integrals of the form `integral of weight(t) * nu(t/x) dt` affordable:
    each outer panel needs the inner function at 15 nodes, and those 15
    evaluations collapse into a single vectorized sweep.
    """
    ws = np.asarray(ws, dtype=float)
    if np.any(ws < 0.0) or np.any(~np.isfinite(ws)):
        raise DomainError("nu_positive_batch requires finite ws >= 0")
    out = np.zeros(ws.shape, dtype=float)
    pos = ws > 0.0
    if not np.any(pos):
        return out
    wpos = ws[pos]
    wmax = float(np.max(wpos))
    _check_domain(sf, wmax)
    res, _ = _nu_integral(sf, math.log(wmax), np.log(wpos), spec, shared_scale=False)
    out[pos] = np.real(res.value)
    return out


def nu_alpha_positive_batch(ws, alpha: float, spec: QuadSpec):
    """nu_alpha at a batch of arguments > 0, sharing one panel tree.

    The alpha-shifted reciprocal gamma factor depends only on E, so a whole
    batch of w values rides on one adaptive refinement, exactly as in
    nu_positive_batch.
    """
    ws = np.asarray(ws, dtype=float)
    alpha = float(alpha)
    if np.any(ws <= 0.0) or np.any(~np.isfinite(ws)):
        raise DomainError("nu_alpha_positive_batch requires finite ws > 0")
    if not math.isfinite(alpha):
        raise DomainError(f"finite alpha required, got {alpha!r}")
    log_wmax = math.log(float(np.max(ws)))
    return np.real(_nu_alpha_integral(log_wmax, np.log(ws), alpha, spec).value)


def nu_complex_grid(sf: StructureFn, moduli, phases, spec: QuadSpec):
    """nu_general on the outer grid w[j,k] = moduli[j] * exp(i*phases[k]).

    One shared panel tree serves every grid point, with budgets referenced
    to the largest component - appropriate when the grid feeds a single
    outer integral, so accuracy is absolute on the common scale.  Returns a
    complex array of shape (len(moduli), len(phases)); rows with modulus 0
    are exactly 0.
    """
    moduli = np.asarray(moduli, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if moduli.ndim != 1 or phases.ndim != 1:
        raise DomainError("nu_complex_grid expects 1-d moduli and phases")
    if np.any(moduli < 0.0) or np.any(~np.isfinite(moduli)):
        raise DomainError("nu_complex_grid requires finite moduli >= 0")
    out = np.zeros((moduli.size, phases.size), dtype=complex)
    if moduli.size == 0 or phases.size == 0:
        return out
    pos = moduli > 0.0
    if not np.any(pos):
        return out
    rpos = moduli[pos]
    rmax = float(np.max(rpos))
    _check_domain(sf, rmax)

    # Reduce to the principal interval (-pi, pi].
    ph = np.mod(phases + math.pi, 2.0 * math.pi) - math.pi
    ph = np.where(ph <= -math.pi, ph + 2.0 * math.pi, ph)
    exponents = (np.log(rpos)[:, None] + 1j * ph[None, :]).ravel()
    res, _ = _nu_integral(sf, math.log(rmax), exponents, spec)
    out[pos, :] = res.value.reshape(rpos.size, ph.size)
    return out


def pfq_series(params: HyperParams, w) -> complex:
    """Power series sum over n of w^n / rho(n), summed to relative 1e-16.

    Terms are built by the exact ratio recurrence; the sum stops once a term
    falls below 1e-16 of the running sum (cap 10000 terms).
    """
    sf = StructureFn(params)
    w = complex(w)
    _check_domain(sf, abs(w))
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
        if abs(term) < _SERIES_CUTOFF * abs(total):
            return total
    raise NoConvergence(
        f"series did not converge within {_SERIES_CAP} terms at |w|={abs(w):.6g}"
    )


def pfq_series_log(params: HyperParams, w: float) -> float:
    """ln of the series value for real w >= 0, evaluated wholly in log space."""
    if w < 0.0:
        raise DomainError(f"pfq_series_log requires w >= 0, got {w!r}")
    if w == 0.0:
        return 0.0
    sf = StructureFn(params)
    _check_domain(sf, w)
    log_w = math.log(w)
    log_terms = [0.0]
    lt = 0.0
    best = 0.0
    for n in range(_SERIES_CAP):
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
        f"log-scale series did not converge within {_SERIES_CAP} terms at w={w:.6g}"
    )
