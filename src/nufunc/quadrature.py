"""Deterministic quadrature over [0, inf) and over the complex plane in polar form.

The central engine is an adaptive composite Gauss-Legendre rule (15-point
panels, bisection) that integrates vector-valued integrands: all components
share one panel tree, each panel is accepted only when the whole-vs-halves
discrepancy fits inside a width-proportional error budget, and the final sum
runs over panels sorted by interval start so results are bit-for-bit
reproducible regardless of evaluation order.

Refinement is breadth-first.  Each level tests every open panel against its
two halves, and the halves of the whole level share integrand calls.  A
first call on one coarse panel gives the integrand's output width; after it
each call carries at most `_CALL_VALUES` values (nodes times width), and at
least one panel.  The bound matters for nested integrands, whose outer nodes
become the components of an inner batch.

Semi-infinite integrals are truncated using an `IntegrandProbe`: the peak of
the log-integrand is bracketed by golden-section search and the domain is cut
where the log-value has dropped 100*ln(10) below the peak, far beneath any
tolerance this library works at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonDecaying, NonFinite, ToleranceNotMet

__all__ = [
    "QuadSpec",
    "IntegrandProbe",
    "IntegrationResult",
    "locate_peak",
    "integrate_semi_infinite",
    "integrate_semi_infinite_detailed",
    "integrate_polar_2d",
]

# Log-drop below the peak at which the integrand is declared negligible.
_LOG_DROP = 100.0 * math.log(10.0)
# Hard ceiling for truncation searches.
_TRUNCATION_CLAMP = 1e6
_MAX_DEPTH = 60
# Values (nodes times output width) one integrand call may carry.  Level-wide
# calls of a nested integrand turn outer nodes into inner batch components,
# so without this bound a call's arrays would grow with the whole level.
_CALL_VALUES = 4096

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance, truncation, and panel policy for the integration engine."""

    rel_tol: float = 1e-10
    abs_floor: float = 1e-300
    max_panels: int = 4000
    angular_points: int = 64

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise ValueError("QuadSpec.rel_tol must be > 0")
        if self.max_panels < 4:
            raise ValueError("QuadSpec.max_panels must be >= 4")
        if self.angular_points < 8 or self.angular_points % 2 != 0:
            raise ValueError("QuadSpec.angular_points must be even and >= 8")
        if not (self.abs_floor >= 0.0):
            raise ValueError("QuadSpec.abs_floor must be >= 0")


@dataclass(frozen=True)
class IntegrandProbe:
    """Where an integrand lives: peak location/height and a truncation point.

    Invariant: the log-integrand at `truncation_point` sits at least
    100*ln(10) below `peak_log_value`, so the discarded tail is negligible
    at any tolerance the engine accepts.
    """

    peak_location: float
    truncation_point: float
    peak_log_value: float


@dataclass(frozen=True)
class IntegrationResult:
    """Value plus the engine's own error accounting (absolute, per component)."""

    value: object
    error_estimate: float
    panel_count: int


def locate_peak(log_integrand, hint) -> IntegrandProbe:
    """Bracket the peak of a unimodal log-integrand and find its truncation point.

    Golden-section search maximizes `log_integrand` starting from `hint`;
    the truncation point is then found by doubling until the log-value falls
    100*ln(10) below the peak and bisecting back to the crossing.  Raises
    NonDecaying when no such point exists below the 1e6 clamp.
    """
    f = log_integrand
    x0 = min(max(float(hint), 1e-6), 1e5)

    # March right while the integrand keeps climbing.
    fx0 = f(x0)
    right, f_right = x0, fx0
    nxt = 2.0 * x0
    while nxt <= _TRUNCATION_CLAMP:
        fn = f(nxt)
        if not (fn > f_right):
            break
        right, f_right = nxt, fn
        nxt *= 2.0
    else:
        raise NonDecaying("log-integrand still increasing at the 1e6 clamp")

    # March left likewise (down to essentially zero).
    left, f_left = x0, fx0
    prev = 0.5 * x0
    while prev >= 1e-12:
        fp = f(prev)
        if not (fp > f_left):
            break
        left, f_left = prev, fp
        prev *= 0.5

    # Best sampled point seeds a golden-section refinement on [a, c].
    if f_right >= f_left:
        b, fb = right, f_right
    else:
        b, fb = left, f_left
    a = max(b * 0.5, 0.0) if b > 1e-12 else 0.0
    c = min(b * 2.0, _TRUNCATION_CLAMP) if b > 1e-12 else 1e-6

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, c
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        # The peak only steers panel placement, so ~4 digits suffice.
        if hi - lo <= 1e-5 * max(1.0, hi):
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    x_peak = 0.5 * (lo + hi)
    f_peak = f(x_peak)
    if fb > f_peak:
        x_peak, f_peak = b, fb

    # Integrands that only decrease have their supremum at the left edge.
    f_edge = f(1e-12)
    if f_edge > f_peak:
        x_peak, f_peak = 0.0, f_edge

    target = f_peak - _LOG_DROP

    def below(t):
        v = f(t)
        return not (v > target)  # NaN counts as below

    lo_t = max(x_peak, 1e-12)
    hi_t = max(2.0 * x_peak, x_peak + 1.0)
    while not below(hi_t):
        lo_t = hi_t
        hi_t *= 2.0
        if hi_t > _TRUNCATION_CLAMP:
            raise NonDecaying(
                "no truncation point below the 1e6 clamp "
                f"(peak log value {f_peak:.6g})"
            )
    for _ in range(80):
        if hi_t - lo_t <= 1e-3 * hi_t:
            break
        mid = 0.5 * (lo_t + hi_t)
        if below(mid):
            hi_t = mid
        else:
            lo_t = mid

    return IntegrandProbe(
        peak_location=float(x_peak),
        truncation_point=float(hi_t),
        peak_log_value=float(f_peak),
    )


def _panel_values(f, a, b, per_call):
    """15-point Gauss-Legendre estimates of the integral of f over each panel
    [a[k], b[k]], from calls of f on the nodes of at most `per_call` panels.

    f maps a node array (n,) to values of shape (n,) or (n, m).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _GL_NODES
    out = []
    for s in range(0, a.size, per_call):
        nodes = x[s : s + per_call]
        y = np.asarray(f(nodes.ravel()))
        y = y.reshape(nodes.shape + y.shape[1:])
        finite = np.isfinite(y).all(axis=tuple(range(1, y.ndim)))
        if not finite.all():
            k = s + int(np.argmin(finite))
            raise NonFinite(
                f"integrand returned non-finite values on [{a[k]:.6g}, {b[k]:.6g}]"
            )
        for k in range(len(y)):
            out.append(half[s + k] * np.tensordot(_GL_WEIGHTS, y[k], axes=(0, 0)))
    return out


def _initial_boundaries(probe: IntegrandProbe, max_panel_width):
    T = probe.truncation_point
    pts = {0.0, T}
    # Geometric ladder toward zero picks up sharply-varying behavior there.
    step = T
    for _ in range(12):
        step *= 0.5
        pts.add(step)
    pk = probe.peak_location
    if 0.0 < pk < T:
        for frac in (0.5, 1.0, 1.5):
            v = pk * frac
            if 0.0 < v < T:
                pts.add(v)
    bounds = sorted(pts)
    if max_panel_width is not None and max_panel_width > 0.0:
        refined = [bounds[0]]
        for right in bounds[1:]:
            left = refined[-1]
            n_cut = int(math.ceil((right - left) / max_panel_width))
            for k in range(1, n_cut):
                refined.append(left + (right - left) * k / n_cut)
            refined.append(right)
        bounds = refined
    return bounds


def _integrate_adaptive(f, probe, spec, max_panel_width=None, shared_scale=False):
    """Core adaptive engine over [0, probe.truncation_point].

    Returns (value, error_estimate_per_component, panel_count).  When
    `shared_scale` is set, every component's error budget is referenced to
    the largest component's coarse scale instead of its own - appropriate
    when the components are phases of one oscillatory family and the
    meaningful accuracy target is absolute on the common envelope.
    """
    bounds = _initial_boundaries(probe, max_panel_width)
    # The first panel alone tells the integrand's output width, which sets
    # how many panels later calls may carry.
    coarse = _panel_values(f, bounds[:1], bounds[1:2], 1)
    per_call = max(_CALL_VALUES // (_GL_NODES.size * max(np.size(coarse[0]), 1)), 1)
    coarse += _panel_values(f, bounds[1:-1], bounds[2:], per_call)
    scale = np.abs(coarse[0])
    for c in coarse[1:]:
        scale = scale + np.abs(c)
    if shared_scale:
        scale = np.maximum(scale, np.max(scale))
    total_budget = np.maximum(spec.rel_tol * scale, spec.abs_floor)
    # Fixed-slice floor: integrands with mild endpoint singularities (e.g. a
    # 1/log factor at zero) have error density far above the local width
    # share; letting each panel spend up to 1/1024 of the global budget keeps
    # the total within ~2x budget while making such panels acceptable.
    budget_floor = total_budget / 1024.0

    T = probe.truncation_point
    accepted = []
    count = len(coarse)
    starved = False
    # Breadth-first: each pass tests every open panel [lo, hi] of one level
    # against its two halves, and all the halves share integrand calls.
    lo, hi, whole = bounds[:-1], bounds[1:], coarse
    depth = 0
    while lo:
        a = np.array(lo)
        b = np.array(hi)
        mid = 0.5 * (a + b)
        halves = _panel_values(
            f, np.stack([a, mid], 1).ravel(), np.stack([mid, b], 1).ravel(), per_call
        )
        next_lo, next_hi, next_whole = [], [], []
        for k, m in enumerate(mid.tolist()):
            left, right = halves[2 * k], halves[2 * k + 1]
            refined = left + right
            err = np.abs(whole[k] - refined)
            budget = np.maximum(total_budget * ((hi[k] - lo[k]) / T), budget_floor)
            within = bool(np.all(err <= budget))
            if within or depth >= _MAX_DEPTH or count >= spec.max_panels:
                starved = starved or not within
                accepted.append((lo[k], refined, err))
            else:
                count += 2
                next_lo += [lo[k], m]
                next_hi += [m, hi[k]]
                next_whole += [left, right]
        lo, hi, whole = next_lo, next_hi, next_whole
        depth += 1

    accepted.sort(key=lambda item: item[0])
    total = accepted[0][1]
    err_total = accepted[0][2]
    for _, v, e in accepted[1:]:
        total = total + v
        err_total = err_total + e

    if starved:
        raise ToleranceNotMet(
            f"panel budget exhausted ({count} panels, max {spec.max_panels})",
            estimate=total,
            error_bound=err_total,
        )
    return total, err_total, len(accepted)


def integrate_semi_infinite_detailed(
    f, probe: IntegrandProbe, spec: QuadSpec, max_panel_width=None
) -> IntegrationResult:
    """As `integrate_semi_infinite`, but returning the error accounting too."""
    value, err, n = _integrate_adaptive(f, probe, spec, max_panel_width)
    if np.ndim(value) == 0:
        return IntegrationResult(complex(value), float(err), n)
    return IntegrationResult(np.asarray(value), float(np.max(err)), n)


def integrate_semi_infinite(f, probe: IntegrandProbe, spec: QuadSpec) -> complex:
    """Integrate f over [0, inf), truncated per `probe`, to spec.rel_tol.

    `f` must accept a numpy array of nodes and return the matching array of
    (possibly complex) values.
    """
    return complex(integrate_semi_infinite_detailed(f, probe, spec).value)


def integrate_vector_semi_infinite(f, probe, spec, max_panel_width=None, shared_scale=True):
    """Vector-valued engine entry: one panel tree serving all components.

    With `shared_scale` (default) every component's budget references the
    largest component's coarse scale - right for phases of one oscillatory
    family.  Without it each component is held to its own relative scale -
    right for batches of same-sign integrands of very different magnitude.
    """
    return _integrate_adaptive(
        f, probe, spec, max_panel_width=max_panel_width, shared_scale=shared_scale
    )


def integrate_polar_2d(g, spec: QuadSpec) -> complex:
    """Integrate g(|z|^2, phi) over the complex plane with measure d^2z/pi.

    d^2z/pi = d(|z|^2) * dphi/(2*pi): a uniform trapezoid rule over
    `spec.angular_points` angles (spectrally accurate for smooth periodic
    integrands) composed with the adaptive radial engine, all angles sharing
    one panel tree.  `g` must be vectorized in its first argument.
    """
    n_phi = spec.angular_points
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi

    def stacked(t):
        t = np.asarray(t, dtype=float)
        cols = [np.asarray(g(t, float(phi))) for phi in phis]
        return np.stack(cols, axis=-1)

    def log_envelope(t):
        row = np.abs(stacked(np.array([t])))[0]
        m = float(np.max(row))
        if m <= 0.0 or not math.isfinite(m):
            return -math.inf
        return math.log(m)

    probe = locate_peak(log_envelope, hint=1.0)
    values, _, _ = _integrate_adaptive(stacked, probe, spec)
    return complex(np.mean(values))
