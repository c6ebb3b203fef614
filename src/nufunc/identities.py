"""Registry of closed-form integral identities, verified numerically.

Each case evaluates its left- and right-hand sides by independent routes
(adaptive quadrature against a closed form, or two unrelated quadratures)
and reports absolute and relative error against a registered tolerance.
4.22's right side is a family integral, so the nu evaluators compute it.
The Laplace-weighted left sides of 4.18-4.22 all run on `_weighted_lhs`,
with a closed-form probe; 1.6's difference stencil is one batched nu call.

Reports carry a status: ``exact`` rows are hard verdicts whose ``passed``
flag is exactly ``rel_err <= tol`` (absolute error when the right-hand
side is smaller than 1e-12); ``formal`` rows document a truncated series
expansion diagnostically and never fail; ``error`` rows record a case
that raised instead of completing.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NuFuncError, UnsupportedFamily
from .nu import (
    HyperParams,
    StructureFn,
    _SF_PLAIN as _PLAIN,
    _integer,
    nu_alpha,
    nu_general,
)
from .quadrature import (
    IntegrandProbe,
    QuadSpec,
    _LOG_DROP,
    integrate_semi_infinite_detailed,
    integrate_vector_semi_infinite,
    locate_peak,
)
from .special import _log_gamma_scalar, log_gamma

__all__ = [
    "IdentityReport",
    "check_complex_gaussian",
    "check_derivative_relation",
    "check_eq_4_20",
    "check_eq_4_22",
    "check_formal_series_4_21",
    "check_laplace_nu",
    "check_weighted_nu_integral",
    "reports_to_json",
    "run_suite",
    "suite_passed",
]

# Linear-space values of nu(w) overflow a double once ln(w) pushes the
# integrand past exp(~709); outer integrals whose truncation point sends
# the inner argument that far are rejected up front.
_EXP_ARG_LIMIT = 700.0
# Coarse halvings toward E = 0 for the 4.23 integrals.  Their integrand is
# entire in E and F, so the engine's twelve, which grade toward a singular
# origin, mostly carry nothing.  Six is the fewest on which every outer
# integral tried passes on its coarse panels ((1e-8, 0.5) refines on 5).
_RUNGS = 6


@dataclass(frozen=True)
class IdentityReport:
    """Numerical verdict for one identity evaluation."""

    id: str
    description: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    status: str  # 'exact' | 'formal' | 'error'
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "lhs_re": float(self.lhs.real),
            "lhs_im": float(self.lhs.imag),
            "rhs_re": float(self.rhs.real),
            "rhs_im": float(self.rhs.imag),
            "abs_err": float(self.abs_err),
            "rel_err": float(self.rel_err),
            "tol": float(self.tol),
            "pass": bool(self.passed),
            "status": self.status,
            "runtime_ms": float(self.runtime_ms),
        }


def _finish(
    case_id: str,
    description: str,
    lhs,
    rhs,
    tol: float | None,
    default_tol: float,
    status: str,
    t0: float,
) -> IdentityReport:
    """The report of a case; `tol` is the caller's, `default_tol` the case's own."""
    tol = default_tol if tol is None else float(tol)
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) >= 1e-12 else abs_err
    passed = True if status == "formal" else bool(rel_err <= tol)
    return IdentityReport(
        id=case_id,
        description=description,
        lhs=lhs,
        rhs=rhs,
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tol=tol,
        passed=passed,
        status=status,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def _weight_exponent(sf: StructureFn) -> float:
    """Power b in the elementary weight exp(-t) * t**b for a supported family.

    Only two families reduce the general weight to elementary form: the
    bare family (p = q = 0, weight exp(-t)) and the single-pair family
    with upper entry 1 (p = q = 1, a = [1], weight exp(-t) * t**(b1 - 1)).
    """
    p, q = sf.params.p, sf.params.q
    if p == 0 and q == 0:
        return 0.0
    if p == 1 and q == 1 and sf.params.a == (1.0,):
        return sf.params.b[0] - 1.0
    raise UnsupportedFamily(
        "weighted integrals support only the bare family (p=q=0) and the "
        f"single-pair family with unit upper entry, got p={p}, q={q}, "
        f"a={sf.params.a}, b={sf.params.b}"
    )


def _weighted_lhs(sf: StructureFn, x: float, spec: QuadSpec, inner=None, extra_growth=0.0, name="scale"):
    """The real integral over t of exp(-t) * t**b * inner(t), b from the family.

    `inner` is a batched nu at t / x, by default the family's own;
    `extra_growth` is the growth in t it adds beyond exp(t / x) and t**b,
    which moves the truncation point T and the peak out.  A T that sends the
    inner argument past _EXP_ARG_LIMIT raises a DomainError naming the
    argument `name` = x."""
    if inner is None:
        inner = lambda t: nu_general(sf, t / x, spec).real  # noqa: E731
    bexp = _weight_exponent(sf)
    rate = 1.0 - 1.0 / x
    growth = max(bexp, 0.0) + extra_growth
    T = (_LOG_DROP + 6.0 + 5.0 * growth) / rate
    if T / x > _EXP_ARG_LIMIT:
        raise DomainError(
            f"{name} {x!r} is too close to 1: the inner argument reaches {T / x:.3g} "
            "before the weight decays, overflowing linear-space nu values"
        )
    probe = IntegrandProbe(
        peak_location=max(0.5, growth / rate), truncation_point=T, peak_log_value=0.0
    )

    def f(t):
        t = np.asarray(t, dtype=float)
        if bexp == 0.0:
            w = np.exp(-t)
        else:
            w = np.exp(-t + bexp * np.log(t))
        return w * inner(t)

    return complex(integrate_semi_infinite_detailed(f, probe, spec).value).real


def _log_gamma_ratio(lower, upper) -> float:
    """ln(prod Gamma(lower) / prod Gamma(upper))."""
    return sum(math.lgamma(v) for v in lower) - sum(math.lgamma(v) for v in upper)


def check_laplace_nu(s: float, spec: QuadSpec = QuadSpec(), tol: float | None = None) -> IdentityReport:
    """Exponential transform of nu: integral of exp(-s*t) * nu(t) vs 1/(s ln s)."""
    t0 = time.perf_counter()
    s = float(s)
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(
            f"exponential transform of nu requires s > 1, got s={s!r} "
            "(the closed form 1/(s ln s) changes sign at s = 1 while the "
            "integral of a positive function cannot)"
        )
    # t = u/s turns the transform into 4.18's integral at scale s, over s.
    lhs = _weighted_lhs(_PLAIN, s, spec, name="s") / s
    rhs = 1.0 / (s * math.log(s))
    description = (
        f"exponential transform of nu at s={s:g}: nested quadrature vs "
        "1/(s ln s)"
    )
    return _finish("4.19", description, lhs, rhs, tol, 1e-6, "exact", t0)


def check_weighted_nu_integral(
    sf: StructureFn, x: float, spec: QuadSpec = QuadSpec(), tol: float | None = None
) -> IdentityReport:
    """Elementary-weight integral of the family nu vs its gamma-ratio closed form."""
    t0 = time.perf_counter()
    x = float(x)
    if not (x > 1.0 and math.isfinite(x)):
        raise DomainError(f"weighted integral requires x > 1, got x={x!r}")
    lhs = _weighted_lhs(sf, x, spec)
    rhs = math.exp(_log_gamma_ratio(sf.params.b, sf.params.a)) / math.log(x)
    description = (
        f"elementary-weight integral of the (p={sf.params.p}, q={sf.params.q}) "
        f"family nu at x={x:g}: quadrature vs gamma-ratio / ln x"
    )
    return _finish("4.18", description, lhs, rhs, tol, 1e-6, "exact", t0)


def check_eq_4_20(
    b: float, x: float, spec: QuadSpec = QuadSpec(), tol: float | None = None
) -> IdentityReport:
    """Power-weighted integral of the single-pair family nu vs gamma(b+1)/ln x.

    The verdict is computed with the pochhammer-normalized structure
    function (the one whose value at zero is 1); the report also carries
    the value the plain gamma normalization would give, since the two
    differ by exactly gamma(b+1) and only the normalized form satisfies
    the stated right-hand side.
    """
    t0 = time.perf_counter()
    b = float(b)
    x = float(x)
    if not (b > -1.0 and math.isfinite(b)):
        raise DomainError(f"power weight requires b > -1, got b={b!r}")
    if not (x > 1.0 and math.isfinite(x)):
        raise DomainError(f"power-weighted integral requires x > 1, got x={x!r}")
    sf = StructureFn(HyperParams(1, 1, (1.0,), (b + 1.0,)))
    lhs_norm = _weighted_lhs(sf, x, spec)
    gamma_b1 = math.gamma(b + 1.0)
    lhs_unnorm = lhs_norm / gamma_b1
    rhs = gamma_b1 / math.log(x)
    description = (
        f"power-weighted integral at b={b:g}, x={x:g}: the pochhammer-"
        f"normalized structure function gives {lhs_norm:.12g} against "
        f"gamma(b+1)/ln x = {rhs:.12g}; the unnormalized gamma form gives "
        f"{lhs_unnorm:.12g} (equal to 1/ln x = {1.0 / math.log(x):.12g}); "
        "the normalized form is the one satisfying the stated right-hand side"
    )
    return _finish("4.20", description, lhs_norm, rhs, tol, 1e-6, "exact", t0)


def check_eq_4_22(
    sf: StructureFn,
    C: float,
    alpha: float,
    spec: QuadSpec = QuadSpec(),
    tol: float | None = None,
) -> IdentityReport:
    """Shift-parameter weighted integral vs its shifted-family closed form.

    LHS: integral of the elementary weight times nu(t/C, alpha), with the
    two-argument nu (the shift acts on the exponent and the reciprocal
    gamma, not on the family's structure function).  RHS: C**(-alpha)
    times the shifted gamma-ratio prefactor times the integral of C**(-E)
    prod (b+alpha)_E / prod (a+alpha)_E, which is nu_general of the shifted
    family (q+1, p; (1, b+alpha); a+alpha) at 1/C: its rho(E) is
    prod (a+alpha)_E / prod (b+alpha)_E.
    """
    t0 = time.perf_counter()
    C = float(C)
    alpha = float(alpha)
    bexp = _weight_exponent(sf)
    if not (C > 1.0 and math.isfinite(C)):
        raise DomainError(f"shift-parameter integral requires C > 1, got C={C!r}")
    if not math.isfinite(alpha):
        raise DomainError(f"finite alpha required, got {alpha!r}")
    shifted_b = [bj + alpha for bj in sf.params.b]
    shifted_a = [ai + alpha for ai in sf.params.a]
    if any(v <= 0.0 for v in shifted_a + shifted_b) or alpha + bexp <= -1.0:
        raise DomainError(
            f"alpha={alpha:g} shifts a family entry or the weight exponent "
            "out of the convergent range"
        )

    # Left side: outer t-integral with the batched two-argument nu.
    lhs = _weighted_lhs(
        sf, C, spec, lambda t: nu_alpha(t / C, alpha, spec), max(alpha, 0.0)
    )

    # Right side: shifted prefactor times the shifted family's nu at 1/C,
    # a unit-disc family at an argument inside the disc.
    log_pref = _log_gamma_ratio(shifted_b, shifted_a)
    shifted = StructureFn(
        HyperParams(sf.params.q + 1, sf.params.p, [1.0] + shifted_b, shifted_a)
    )
    inner = nu_general(shifted, 1.0 / C, spec).real
    rhs = math.exp(-alpha * math.log(C) + log_pref) * inner
    description = (
        f"shift-parameter weighted integral (p={sf.params.p}, q={sf.params.q}, "
        f"alpha={alpha:g}, C={C:g}): nested quadrature vs the shifted-family "
        "closed-form route"
    )
    return _finish("4.22", description, lhs, rhs, tol, 1e-6, "exact", t0)


def _angular_kernel(g, E, F):
    """Mean over arg z of the phase of (x z)^E (y conj(z))^F, g = arg(x*y).

    The principal branch splits the turn into arcs of lengths 2*pi - |g|
    and |g|; at g = 0 the mean is sinc(E - F), of unit mass.
    """
    turn = 2.0 * math.pi
    m = 0.5 * (E + F)
    d = E - F
    a = abs(g)
    g_wrapped = g - turn * np.sign(g)
    return (
        (turn - a) * np.exp(1j * m * g) * np.sinc((1.0 - a / turn) * d)
        + a * np.exp(1j * m * g_wrapped) * np.sinc(a * d / turn)
    ) / turn


def _sinc_kernel(E, F):
    """`_angular_kernel` at g = 0, sinc(E - F), as a real array within 2e-14 of
    it: sin pi(E - F) from sin, cos of pi x, x reduced exactly to [-1, 1]."""
    e, f = (np.pi * (x - 2.0 * np.round(0.5 * x)) for x in (E, F))
    k = np.sin(e) / np.pi * np.cos(f)
    k -= np.cos(e) / np.pi * np.sin(f)
    d = E - F
    near = np.abs(d) < 0.02  # where the identity cancels, np.sinc
    k /= np.where(near, 1.0, d)
    k[near] = np.sinc(d[near])
    return k


def check_complex_gaussian(
    x, y, spec: QuadSpec = QuadSpec(), tol: float | None = None
) -> IdentityReport:
    """Gaussian-weighted planar product of two nu factors vs nu(x*y).

    LHS: integral over the complex plane with measure d^2 z / pi of
    exp(-|z|^2) * nu(x z) * nu(y conj(z)), reduced exactly in |z| and
    arg z to a double integral over E, F >= 0 of |x|^E |y|^F
    Gamma(1+(E+F)/2) K(E, F) / (Gamma(1+E) Gamma(1+F)).  RHS: nu(x*y),
    which would need K = delta(E-F); K has unit mass but nonzero width,
    so the residual is the identity's own, not quadrature error.
    """
    t0 = time.perf_counter()
    x = complex(x)
    y = complex(y)
    if not (abs(x) <= 1.0 and abs(y) <= 1.0):  # NaN fails here too
        raise DomainError(
            "planar Gaussian check requires |x| <= 1 and |y| <= 1 "
            f"(got |x|={abs(x):.6g}, |y|={abs(y):.6g})"
        )
    if x * y == 0.0 and x != 0.0 and y != 0.0:
        # nu(x*y) ~ 1/ln(1/|xy|) is far from nu(0) = 0.
        raise DomainError(f"planar Gaussian check: x*y underflows to 0 at x={x!r}, y={y!r}")
    if abs(x) == 0.0 or abs(y) == 0.0:
        # One nu factor vanishes identically (nu(0) = 0), so the integrand
        # is zero everywhere and both sides reduce to nu(0) = 0.
        lhs = 0j
    else:
        lx, ly = math.log(abs(x)), math.log(abs(y))
        g = cmath.phase(x * y)
        # Gamma(1+(E+F)/2)^2 <= Gamma(1+E) Gamma(1+F) and |K| <= 1, so one
        # probe of this per-axis bound serves both integrals.
        lmax = max(lx, ly)
        probe = locate_peak(lambda E: E * lmax - 0.5 * log_gamma(1.0 + E), hint=1.0)
        # The kernel is real when arg(x*y) = 0, and the whole left side with it.
        kernel = _sinc_kernel if g == 0.0 else lambda E, F: _angular_kernel(g, E, F)

        def outer(E):
            E = np.asarray(E, dtype=float)
            log_e = E * lx - log_gamma(1.0 + E)

            def inner(F):
                F = np.asarray(F, dtype=float)[:, None]
                y = log_e + F * ly
                y -= log_gamma(1.0 + F)
                y += log_gamma(1.0 + 0.5 * (E + F))
                return np.multiply(np.exp(y, out=y), kernel(E, F), out=None if g else y)

            return integrate_vector_semi_infinite(inner, probe, spec, rungs=_RUNGS).value

        lhs = integrate_semi_infinite_detailed(outer, probe, spec, rungs=_RUNGS).value
    rhs = nu_general(_PLAIN, x * y, spec)
    description = (
        f"Gaussian-weighted planar product of nu factors at x={x:g}, y={y:g} "
        "vs nu(x*y); the left side is the exact angular reduction, a double "
        "integral over the exponents E, F whose angular kernel has unit mass "
        "but nonzero width (sinc(E-F) for positive labels) where equality needs "
        "the point mass delta(E-F), so the residual is the identity's own, "
        "not discretization error"
    )
    return _finish("4.23", description, lhs, rhs, tol, 1e-4, "exact", t0)


def check_derivative_relation(
    z: float, n: int, spec: QuadSpec = QuadSpec(), tol: float | None = None
) -> IdentityReport:
    """n-th derivative of nu by central differences vs the two-argument nu at -n.

    Richardson extrapolation combines the steps h = 4e-3 * min(z, 1) and 2h.
    The five points are one batched nu call, on one probe and panel tree, so
    their quadrature errors are alike and cancel in the differences."""
    t0 = time.perf_counter()
    z = float(z)
    n = _integer(n, "derivative order n")
    if n not in (1, 2):
        raise DomainError(f"derivative check supports n in {{1, 2}}, got n={n}")
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"derivative check requires z > 0, got z={z!r}")
    h = 4e-3 * min(z, 1.0)
    values = nu_general(_PLAIN, z + h * np.arange(-2.0, 3.0), spec).real
    # (4 D(h) - D(2h)) / 3 for the central differences D at steps h and 2h.
    weights = (1.0, -8.0, 0.0, 8.0, -1.0) if n == 1 else (-1.0, 16.0, -30.0, 16.0, -1.0)
    lhs = float(np.dot(weights, values)) / (12.0 * h**n)
    rhs = nu_alpha(z, -float(n), spec)
    description = (
        f"order-{n} central difference of nu at z={z:g} (step {h:g}) vs the "
        f"two-argument nu at alpha={-n}"
    )
    return _finish("1.6", description, lhs, rhs, tol, 1e-5 if n == 1 else 1e-4, "exact", t0)


def check_formal_series_4_21(
    s: float, L: int, spec: QuadSpec = QuadSpec(), tol: float | None = None
) -> IdentityReport:
    """Truncated derivative expansion of a nested nu transform (diagnostic only).

    LHS: integral of exp(-t) * nu(exp(-s*t)).  RHS: the order-L partial sum
    of the expansion whose l-th term is s**l times the l-th moment
    integral of E**l * exp(-s*E) / gamma(E+1).  The expansion is formal:
    term magnitudes eventually grow whenever s times the effective
    exponent variable exceeds 1, so the report documents the partial-sum
    trajectory without a hard verdict.
    """
    t0 = time.perf_counter()
    s = float(s)
    L = _integer(L, "truncation order L")
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"formal series check requires s > 0, got s={s!r}")
    if L < 0:
        raise DomainError(f"truncation order must be >= 0, got L={L}")
    ls = np.arange(L + 1)
    with np.errstate(over="ignore"):
        powers = s**ls
    if not math.isfinite(powers[-1]):
        raise DomainError(f"formal series check requires a finite s**L, got s={s!r}, L={L}")

    # exp(-s*t) <= 1 keeps the inner nu bounded: the scale is infinite.
    lhs = _weighted_lhs(
        _PLAIN, math.inf, spec, lambda t: nu_general(_PLAIN, np.exp(-s * t), spec).real
    )

    def g(E):
        E = np.asarray(E, dtype=float)
        base = -s * E - log_gamma(E + 1.0)
        return np.exp(base[:, None] + ls[None, :] * np.log(E)[:, None])

    def log_top(E):
        return L * math.log(E) - s * E - _log_gamma_scalar(E + 1.0)

    probe_e = locate_peak(log_top, hint=max(1.0, L / (s + 1.0)))
    moments = integrate_vector_semi_infinite(g, probe_e, spec).value
    terms = np.real(moments) * powers
    partial = np.cumsum(terms)
    rhs = float(partial[-1])

    orders = sorted({0, L // 2, L})
    trajectory = ", ".join(f"S{k}={partial[k]:.9g}" for k in orders)
    if L >= 2 and abs(terms[-1]) > abs(terms[-2]):
        tail_note = (
            "term magnitudes grow at the truncation order (the expansion is "
            "formal: terms diverge once s times the effective exponent "
            "variable exceeds 1)"
        )
    else:
        tail_note = "term magnitudes still decrease at the truncation order"
    description = (
        f"truncated derivative expansion at s={s:g}, order L={L}: partial "
        f"sums {trajectory} against the transform value {lhs:.9g}; {tail_note}"
    )
    return _finish(f"4.21-s{s:g}", description, lhs, rhs, tol, 0.0, "formal", t0)


# (id, runner(spec, tol_override) -> IdentityReport), in id order.
_REGISTRY = (
    ("1.6", lambda spec, tol: check_derivative_relation(0.7, 1, spec, tol)),
    ("4.18", lambda spec, tol: check_weighted_nu_integral(_PLAIN, 2.0, spec, tol)),
    ("4.19", lambda spec, tol: check_laplace_nu(2.0, spec, tol)),
    ("4.20", lambda spec, tol: check_eq_4_20(0.5, 3.0, spec, tol)),
    ("4.21-s0.1", lambda spec, tol: check_formal_series_4_21(0.1, 10, spec, tol)),
    ("4.21-s1.5", lambda spec, tol: check_formal_series_4_21(1.5, 20, spec, tol)),
    ("4.22", lambda spec, tol: check_eq_4_22(_PLAIN, 2.0, 1.0, spec, tol)),
    ("4.23", lambda spec, tol: check_complex_gaussian(0.3, 0.5, spec, tol)),
)


def run_suite(
    filter: str | None = None,
    spec: QuadSpec = QuadSpec(),
    tol: float | None = None,
) -> list:
    """Run every registered case whose id contains `filter` (all when None).

    Per-case failures are captured as status-'error' reports; the suite
    itself never raises.  `tol` overrides each exact case's registered
    tolerance (formal cases stay diagnostic).
    """
    reports = []
    for case_id, runner in _REGISTRY:
        if filter is not None and filter not in case_id:
            continue
        t0 = time.perf_counter()
        try:
            reports.append(runner(spec, tol))
        except Exception as exc:  # never abort the suite on one case
            kind = type(exc).__name__ if isinstance(exc, NuFuncError) else "Exception"
            description = f"case raised {kind}: {exc}"
            reports.append(_finish(case_id, description, math.nan, math.nan, tol, math.nan, "error", t0))
    return reports


def suite_passed(reports) -> bool:
    """True when no report fails: every exact case passed, none errored."""
    return all(r.passed for r in reports)


def reports_to_json(reports) -> str:
    """Serialize reports as a JSON array (stable key order, full precision)."""
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
