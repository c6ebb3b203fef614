"""Deterministic quadrature over [0, inf) and over the complex plane in polar form.

The central engine is an adaptive composite Gauss-Kronrod rule (31-point
Kronrod panels with their embedded 15-point Gauss-Legendre rule, bisection)
that integrates vector-valued integrands: all components share one panel
tree, and a panel is accepted when each component's error estimate, the
larger of |K31 - G15| and one ulp of the K31 integral of |f|, fits inside
a width-proportional share of that component's own relative budget.  The
accepted value is K31, and the final sum runs over panels sorted by
interval start so results are bit-for-bit reproducible regardless of
evaluation order.  The scalar and the vector entry return `IntegrationResult`.

The coarse panels hold a static ladder toward the origin, boundaries T/2,
..., T/2^rungs.  The caller sets `rungs`: the default 12 grades toward a
singular origin, such as the 1/ln(1/t) of a nested identity's outer
integrand; the 4.23 check, whose integrand is entire in both exponents,
asks for 6 and makes a third of the inner integrand values.

Refinement is breadth-first.  Each level evaluates every open panel once,
at its 31 nodes, and the whole level shares integrand calls.  A failing
panel bisects, except that a failing panel [0, 2h] splits its left half
into a geometric ladder of rungs [0, h/2^12], [h/2^12, h/2^11], ...,
[h/2, h] (hp-grading toward a singular origin); depth counts halvings, so
no panel is narrower than 2^-60 of its coarse panel.  A panel that still
fails when `QuadSpec.max_panels` or that depth limit stops it makes the
call raise `ToleranceNotMet`, whose message names which of the two did.
A non-finite integrand value, panel sum or total makes it raise `NonFinite`
naming the panel or the total, never return inf or NaN; numpy's overflow
warnings are off inside the engine, so such a call does not warn either.
As the K31 weights are positive, a call's values are scanned only where its
|f| panel sums are non-finite (a value is, or a sum overflowed); an f's
true `nonnegative` attribute (a nu integrand >= 0) skips `np.abs` there.
Each call's output stays within `_CALL_BYTES`, except that a call always
carries at least one panel, so an integrand whose single panel is larger
than the bound gets one panel per call.  The first level is sized by the
caller's output bytes per node (one complex value in the scalar entry, the
nu family's `node_bytes` in the vector entry), or else by one coarse panel
evaluated alone.  Later levels are sized by the bytes the integrand really
made per node (output width times item size).  The bound matters for
nested integrands, whose outer nodes become the components of an inner
batch.  An integrand's node-only term (ln rho for nu) is evaluated once per
level and sliced for each call.

The bookkeeping runs on whole levels as arrays: each call's panel sums are
one stacked (2, 31) weights-times-values product, and the acceptance test,
the panel cap and the final position-ordered sum each run over a level at
once.  The stacked product and the sums over panels (`_fold`: numpy's
reduce adds rows in order over >= 2 columns, a cumulative sum otherwise)
add in the order of a per-panel loop, so results are bit-identical to it.
The loop ends at the first level whose panels all pass, before any split,
ladder or cap bookkeeping, and the position sort runs only when panels were
accepted on more than one level (the coarse level is in order).

Semi-infinite integrals are truncated using an `IntegrandProbe`: the domain
is cut where the log-integrand has dropped 100*ln(10) below its peak, far
beneath any tolerance this library works at.  `locate_peak` finds both points
by golden-section search, doubling and bisection.  The nu family, nu_alpha
included, solves them by Newton's method on closed-form derivatives
(`nu._nu_probe`) and falls back to `locate_peak`; the 4.21 moments, the 4.23
check and the polar route call it directly.  The weighted identities
4.18-4.22 set their probe in closed form (`identities._weighted_lhs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonDecaying, NonFinite, ToleranceNotMet

__all__ = [
    "QuadSpec",
    "IntegrandProbe",
    "IntegrationResult",
    "locate_peak",
    "integrate_semi_infinite_detailed",
    "integrate_vector_semi_infinite",
    "integrate_polar_2d",
]

# Log-drop below the peak at which the integrand is declared negligible.
_LOG_DROP = 100.0 * math.log(10.0)
# Hard ceiling for truncation searches.
_TRUNCATION_CLAMP = 1e6
_MAX_DEPTH = 60
# Floor of every component's error budget, for a component so small that
# rel_tol times it underflows.
_ABS_FLOOR = 1e-300
# Halvings of the geometric ladders toward E = 0: the coarse boundaries hold
# T/2, ..., T/2^12 unless the caller sets `rungs`, and a failing origin
# panel's left half gets 13 rungs.
_LADDER = 12
# Halvings from that left half to each rung, bottom rung first.
_RUNG_DEPTHS = np.minimum(np.arange(_LADDER + 1, 0, -1), _LADDER)
# Bytes of integrand output one call may produce, unless a single panel
# needs more.  Level-wide calls of a nested integrand turn outer nodes into
# inner batch components, so without this bound a call's arrays would grow
# with the whole level.
_CALL_BYTES = 128 * 1024
# Bytes per node of a scalar integrand's output, at most one complex128.
_SCALAR_NODE_BYTES = 16
# Angles of the polar trapezoid rule.
_ANGULAR_POINTS = 64

# The 31-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk31; Piessens et
# al., *QUADPACK*, Springer 1983): the abscissae >= 0, largest first, and
# their Kronrod weights.  Entries 1, 3, ..., 15 are the nodes of the embedded
# 15-point Gauss-Legendre rule, whose weights follow.
_XGK = (
    0.998002298693397060285172840152271, 0.987992518020485428489565718586613,
    0.967739075679139134257347978784337, 0.937273392400705904307758947710209,
    0.897264532344081900882509656454496, 0.848206583410427216200648320774217,
    0.790418501442465932967649294817947, 0.724417731360170047416186054613938,
    0.650996741297416970533735895313275, 0.570972172608538847537226737253911,
    0.485081863640239680693655740232351, 0.394151347077563369897207370981045,
    0.299180007153168812166780024266389, 0.201194093997434522300628303394596,
    0.101142066918717499027074231447392, 0.0,
)
_WGK = (
    0.005377479872923348987792051430128, 0.015007947329316122538374763075807,
    0.025460847326715320186874001019653, 0.035346360791375846222037948478360,
    0.044589751324764876608227299373280, 0.053481524690928087265343147239430,
    0.062009567800670640285139230960803, 0.069854121318728258709520077099147,
    0.076849680757720378894432777482659, 0.083080502823133021038289247286104,
    0.088564443056211770647275443693774, 0.093126598170825321225486872747346,
    0.096642726983623678505179907627589, 0.099173598721791959332393173484603,
    0.100769845523875595044946662617570, 0.101330007014791549017374792767493,
)
_WG = (
    0.030753241996117268354628393577204, 0.070366047488108124709267416450667,
    0.107159220467171935011869546685869, 0.139570677926154314447804794511028,
    0.166269205816993933553200860481209, 0.186161000015562211026800561866423,
    0.198431485327111576456118326443839, 0.202578241925561272880620199967519,
)


def _kronrod_rule():
    """The 31 nodes in ascending order, and the (2, 31) weights: the K31 row,
    then the G15 row, which is 0 at the Kronrod-only nodes."""
    gauss = np.zeros(16)
    gauss[1::2] = _WG
    half = np.array([_WGK, gauss])
    x = np.array(_XGK)
    return np.concatenate([-x[:-1], x[::-1]]), np.concatenate([half[:, :-1], half[:, ::-1]], 1)


_KRONROD_NODES, _KRONROD_WEIGHTS = _kronrod_rule()
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadSpec:
    """Relative tolerance (finite, > 0) and panel budget for the integration engine."""

    rel_tol: float = 1e-10
    max_panels: int = 4000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("QuadSpec.rel_tol must be finite and > 0")
        if self.max_panels < 4:
            raise ValueError("QuadSpec.max_panels must be >= 4")


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
    """Value and absolute error estimate, a complex and a float from the
    scalar entry and one per component from the vector entry, and the
    number of accepted panels."""

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

    def march(x, fx, factor, inside):
        """Step x by `factor` while the integrand keeps climbing: the last
        point, its value, and whether the climb left `inside`."""
        while inside(nxt := x * factor):
            fn = f(nxt)
            if not (fn > fx):
                return x, fx, False
            x, fx = nxt, fn
        return x, fx, True

    # March right, then left (down to essentially zero).
    fx0 = f(x0)
    right, f_right, clamped = march(x0, fx0, 2.0, lambda x: x <= _TRUNCATION_CLAMP)
    if clamped:
        raise NonDecaying("log-integrand still increasing at the 1e6 clamp")
    left, f_left, _ = march(x0, fx0, 0.5, lambda x: x >= 1e-12)

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
    """31-point Kronrod and embedded 15-point Gauss estimates of the integral
    of f over each panel [a[k], b[k]], and the Kronrod estimate of the
    integral of |f|, from calls of f on the nodes of at most `per_call`
    panels.  With `per_call` None the first call carries one panel, and the
    bytes per node of its output size the rest.

    f maps a node array (n,) to values of shape (n,) or (n, m); each result
    has shape (P,) or (P, m) for P panels.  When f has a `node_terms`
    attribute, `f.node_terms(nodes)` gives a tuple of node-only arrays once
    for all nodes, and each call is f(nodes, *terms) with their slices.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _KRONROD_NODES
    node_terms = getattr(f, "node_terms", None)
    terms = () if node_terms is None else node_terms(x.ravel())
    n = _KRONROD_NODES.size
    sums, moduli = [], []
    s = 0
    while s < a.size:
        k = per_call or 1
        nodes = x[s : s + k]
        y = np.asarray(f(nodes.ravel(), *(t[s * n : (s + k) * n] for t in terms)))
        y = y.reshape(nodes.shape + y.shape[1:])
        # A stack of (2, 31) @ (31, m) products adds each panel's terms in
        # the order a per-panel tensordot with the (2, 31) weights does;
        # `y @ w` and einsum do not.  BLAS sums strided operands in another
        # order, hence the C layout.
        shape = y.shape[:1] + (2,) + y.shape[2:]
        y = np.ascontiguousarray(y).reshape(len(y), n, -1)
        sums.append(np.matmul(_KRONROD_WEIGHTS, y).reshape(shape))
        modulus = np.matmul(_KRONROD_WEIGHTS[:1], y if getattr(f, "nonnegative", False) else np.abs(y))
        moduli.append(modulus.reshape(shape[:1] + shape[2:]))
        if not np.isfinite(modulus).all():
            finite = np.isfinite(y).all(axis=(1, 2))
            if not finite.all():
                j = s + int(np.argmin(finite))
                raise NonFinite(f"integrand returned non-finite values on [{a[j]:.6g}, {b[j]:.6g}]")
        if per_call is None:
            per_call = _per_call(max(sums[0][0, 0].nbytes, sums[0].itemsize))
        s += k
    sums, moduli = (np.concatenate(p) if len(p) > 1 else p[0] for p in (sums, moduli))
    half = half.reshape(half.shape + (1,) * (moduli.ndim - 1))
    return half * sums[:, 0], half * sums[:, 1], half * moduli


def _initial_boundaries(probe: IntegrandProbe, max_panel_width, rungs=_LADDER):
    T = probe.truncation_point
    pts = {0.0, T}
    # Geometric ladder toward zero picks up sharply-varying behavior there.
    step = T
    for _ in range(rungs):
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
        # Each gap splits into the fewest equal panels no wider than the cap.
        gaps = [(a, b, math.ceil((b - a) / max_panel_width)) for a, b in zip(bounds, bounds[1:])]
        bounds = [a + (b - a) * k / n for a, b, n in gaps for k in range(n)] + [T]
    return bounds


def _fold(x):
    """Sum over axis 0 in row order, which numpy's reduce keeps over >= 2 columns."""
    return np.add.reduce(x, axis=0) if x.ndim == 2 and x.shape[1] > 1 else x.cumsum(0)[-1].copy()


def _per_call(node_bytes):
    """Panels per integrand call that keep its output within `_CALL_BYTES`."""
    return max(_CALL_BYTES // (_KRONROD_NODES.size * node_bytes), 1)


def _integrate_adaptive(f, probe, spec, max_panel_width=None, node_bytes=None, rungs=_LADDER):
    """Core adaptive engine over [0, probe.truncation_point].

    Returns the `IntegrationResult` of every component at once.
    `node_bytes`, when given, sizes the first level's calls; otherwise a
    call on one coarse panel alone measures it.  `max_panel_width` caps the
    width of every coarse panel.  `rungs` is the number of coarse
    boundaries T/2, ..., T/2^rungs toward the origin.
    """
    bounds = np.array(_initial_boundaries(probe, max_panel_width, rungs))
    lo, hi = bounds[:-1], bounds[1:]
    T = probe.truncation_point
    per_call = None if node_bytes is None else _per_call(node_bytes)
    count = lo.size
    # Whether a failing panel was kept because the cap left no room to
    # split it, and whether one was kept at _MAX_DEPTH.
    capped = deep = False
    # (start, value, error) arrays of the panels each level accepts.
    done = []
    # Halvings from each open panel to its coarse panel.
    depth = np.zeros(lo.size, dtype=int)
    # Overflowing sums are named below, as overflowing integrand values are
    # in `_panel_values`, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        # Breadth-first: each pass evaluates every open panel [lo, hi] of one
        # level, in order of position, and all of them share integrand calls.
        while lo.size:
            value, gauss, modulus = _panel_values(f, lo, hi, per_call)
            # |K31 - G15| estimates the error of the G15 value, which the K31
            # value improves on; the rounding of the sum itself is one ulp of
            # the integral of |f|, which a cancelling integrand's difference
            # can fall short of.
            err = np.maximum(np.abs(value - gauss), _EPS * modulus)
            # err is finite only where the value, G15 and |f| sums all are.
            if not np.isfinite(err).all():
                j = int(np.argmin(np.isfinite(err).reshape(lo.size, -1).all(axis=1)))
                raise NonFinite(f"panel sums are non-finite on [{lo[j]:.6g}, {hi[j]:.6g}]")
            if not done:
                # Later levels carry as many panels as the real output size allows.
                per_call = _per_call(max(value[0].nbytes, value.itemsize))
                scale = _fold(np.abs(value))
                total_budget = np.maximum(spec.rel_tol * scale, _ABS_FLOOR)
                # Fixed-slice floor: a panel may spend 1/1024 of the budget where its
                # width share is less, so panels at a mild endpoint singularity (a
                # 1/log factor at 0) can pass; the estimate stays within (1 + k/1024)
                # budgets for k panels accepted on the floor.
                budget_floor = total_budget / 1024.0
            width = ((hi - lo) / T).reshape((-1,) + (1,) * (err.ndim - 1))
            budget = np.maximum(total_budget * width, budget_floor)
            within = (err <= budget).reshape(lo.size, -1).all(axis=1)
            if within.all():
                # Nothing splits, and the cap and depth flags stand as they are.
                done.append((lo, value, err))
                break
            # Some panel fails.  Failing panels split in order, two new panels
            # each, while the count is under the cap: the first
            # ceil((cap - count) / 2) of them.  A failing origin panel grows a
            # ladder instead when its 12 further panels fit under the cap and
            # its rungs stay within _MAX_DEPTH.
            fail = ~within & (depth < _MAX_DEPTH)
            room = max(-((count - spec.max_panels) // 2), 0)
            ladder = lo[0] == 0.0 and fail[0] and depth[0] + _LADDER < _MAX_DEPTH and room > _LADDER // 2
            split = fail & (np.cumsum(fail) <= room - ladder * (_LADDER // 2))
            count += 2 * int(np.count_nonzero(split)) + ladder * _LADDER
            keep = ~split
            capped = capped or bool((fail & keep).any())
            deep = deep or bool((~within & (depth >= _MAX_DEPTH)).any())
            done.append((lo[keep], value[keep], err[keep]))
            edges = np.stack([lo, 0.5 * (lo + hi), hi], 1)[split]
            lo, hi = edges[:, :2].ravel(), edges[:, 1:].ravel()
            depth = np.repeat(depth[split] + 1, 2)
            if ladder:
                # The origin panel's left half [0, h] becomes the rungs.
                tops = hi[0] * 0.5 ** np.arange(_LADDER, -1, -1)
                lo, hi = np.concatenate([[0.0], tops[:-1], lo[1:]]), np.concatenate([tops, hi[1:]])
                depth = np.concatenate([depth[0] + _RUNG_DEPTHS, depth[1:]])

        # The coarse level is in order of position; several levels are sorted.
        starts, values, errors = done[0]
        if len(done) > 1:
            starts, values, errors = (np.concatenate(parts) for parts in zip(*done))
            order = np.argsort(starts, kind="stable")
            values, errors = values[order], errors[order]
        total, err_total = _fold(values), _fold(errors)
    if not (np.isfinite(total).all() and np.isfinite(err_total).all()):
        raise NonFinite("the summed integral or its error estimate is non-finite")

    if capped or deep:
        causes = ["panel budget exhausted"] if capped else []
        if deep:
            causes.append(f"depth limit of {_MAX_DEPTH} halvings reached")
        raise ToleranceNotMet(
            f"{' and '.join(causes)} ({count} panels, max {spec.max_panels})",
            estimate=total,
            error_bound=err_total,
        )
    return IntegrationResult(total, err_total, starts.size)


def integrate_semi_infinite_detailed(
    f, probe: IntegrandProbe, spec: QuadSpec, rungs=_LADDER
) -> IntegrationResult:
    """Integrate a scalar f over [0, inf), truncated per `probe`, to
    spec.rel_tol.  `f` maps a numpy array of nodes to the matching array of
    (possibly complex) values; `rungs` coarse boundaries halve toward 0.

    Raises DomainError when `f` returns other than one value per node.
    """

    def scalar(x):
        y = np.asarray(f(x))
        if y.shape != x.shape:
            raise DomainError(
                f"a scalar integrand must return one value per node: {x.size} nodes "
                f"gave shape {y.shape}"
            )
        return y

    res = _integrate_adaptive(scalar, probe, spec, node_bytes=_SCALAR_NODE_BYTES, rungs=rungs)
    return IntegrationResult(complex(res.value), float(res.error_estimate), res.panel_count)


def integrate_vector_semi_infinite(f, probe, spec, max_panel_width=None, node_bytes=None, rungs=_LADDER):
    """As the scalar entry, for an f that maps nodes (n,) to values (n, m):
    one panel tree serves every component, each held to its own budget.
    `max_panel_width` caps the coarse panels' width; `node_bytes`, f's
    output bytes per node if known, sizes the first level."""
    return _integrate_adaptive(f, probe, spec, max_panel_width, node_bytes, rungs)


def integrate_polar_2d(g, spec: QuadSpec) -> complex:
    """Integrate g(|z|^2, phi) over the complex plane with measure d^2z/pi.

    d^2z/pi = d(|z|^2) * dphi/(2*pi): a uniform trapezoid rule over
    `_ANGULAR_POINTS` angles (spectrally accurate for smooth periodic
    integrands) composed with the adaptive radial engine, all angles sharing
    one panel tree.  `g` must be vectorized in its first argument.
    """
    n_phi = _ANGULAR_POINTS
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
    return complex(np.mean(_integrate_adaptive(stacked, probe, spec).value))
