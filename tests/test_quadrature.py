"""Unit tests for the adaptive semi-infinite quadrature engine."""

import importlib
import math

import numpy as np
import pytest

from nufunc import nu
from nufunc.errors import NonDecaying, NonFinite, ToleranceNotMet
from nufunc.quadrature import (
    _CALL_VALUES,
    _GL_NODES,
    _GL_WEIGHTS,
    _MAX_DEPTH,
    IntegrandProbe,
    QuadSpec,
    _initial_boundaries,
    _integrate_adaptive,
    integrate_polar_2d,
    integrate_semi_infinite,
    integrate_semi_infinite_detailed,
    integrate_vector_semi_infinite,
    locate_peak,
)

SPEC = QuadSpec()


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_panels=2)
    with pytest.raises(ValueError):
        QuadSpec(angular_points=7)
    with pytest.raises(ValueError):
        QuadSpec(angular_points=6)
    with pytest.raises(ValueError):
        QuadSpec(abs_floor=-1.0)


def test_gamma_reproduction_small_orders():
    # integral of t^k e^-t over [0, inf) = k!
    for k in range(11):
        probe = locate_peak(
            lambda t, k=k: k * math.log(t) - t, hint=max(float(k), 0.5)
        )
        val = integrate_semi_infinite(
            lambda t, k=k: t**k * np.exp(-t), probe, SPEC
        )
        assert val.real == pytest.approx(float(math.factorial(k)), rel=1e-12)
        assert abs(val.imag) < 1e-12


def test_locate_peak_finds_interior_peak():
    probe = locate_peak(lambda t: -10.0 * (math.log(t)) ** 2, hint=5.0)
    assert probe.peak_location == pytest.approx(1.0, abs=1e-3)
    assert probe.truncation_point > probe.peak_location
    # log value at truncation must sit ~100*ln(10) below the peak
    drop = probe.peak_log_value - (-10.0 * math.log(probe.truncation_point) ** 2)
    assert drop == pytest.approx(100.0 * math.log(10.0), rel=0.05)


def test_locate_peak_monotone_decreasing_integrand():
    probe = locate_peak(lambda t: -3.0 * t, hint=1.0)
    assert probe.peak_location == 0.0
    assert probe.truncation_point == pytest.approx(100.0 * math.log(10.0) / 3.0, rel=0.01)


def test_locate_peak_raises_on_nondecaying():
    with pytest.raises(NonDecaying):
        locate_peak(lambda t: t, hint=1.0)


def test_error_estimate_and_panel_count_reported():
    probe = locate_peak(lambda t: -t, hint=1.0)
    res = integrate_semi_infinite_detailed(lambda t: np.exp(-t), probe, SPEC)
    assert complex(res.value).real == pytest.approx(1.0, rel=1e-12)
    assert res.error_estimate >= 0.0
    assert res.panel_count >= 1


def test_nonfinite_integrand_is_reported():
    probe = IntegrandProbe(peak_location=1.0, truncation_point=10.0, peak_log_value=0.0)

    def bad(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(-t) / (t - t)

    with pytest.raises(NonFinite):
        integrate_semi_infinite(bad, probe, SPEC)


def test_tolerance_not_met_carries_estimate():
    probe = IntegrandProbe(peak_location=1.0, truncation_point=60.0, peak_log_value=0.0)
    tight = QuadSpec(max_panels=8)
    with pytest.raises(ToleranceNotMet) as exc_info:
        integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(11.0 * t), probe, tight)
    assert exc_info.value.estimate is not None
    assert exc_info.value.error_bound is not None


def test_oscillatory_integrand_with_panel_cap():
    # integral of e^-t cos(w t) = 1/(1+w^2)
    w = 7.0
    probe = IntegrandProbe(peak_location=0.0, truncation_point=300.0, peak_log_value=0.0)
    val = integrate_semi_infinite_detailed(
        lambda t: np.exp(-t) * np.cos(w * t), probe, SPEC, max_panel_width=6.0 / w
    )
    assert complex(val.value).real == pytest.approx(1.0 / (1.0 + w * w), rel=1e-10)


def test_vector_engine_componentwise():
    probe = locate_peak(lambda t: -t, hint=1.0)

    def f(t):
        return np.stack([np.exp(-t), 2.0 * np.exp(-t), t * np.exp(-t)], axis=-1)

    vals, errs, n = integrate_vector_semi_infinite(f, probe, SPEC, shared_scale=False)
    assert np.allclose(np.real(vals), [1.0, 2.0, 1.0], rtol=1e-11)
    assert np.all(np.asarray(errs) >= 0.0)
    assert n >= 1


def test_vector_engine_per_component_scale():
    # Without shared scale, a tiny component is still resolved to its own
    # relative accuracy.
    probe = locate_peak(lambda t: -t, hint=1.0)

    def f(t):
        return np.stack([np.exp(-t), 1e-8 * t * np.exp(-t)], axis=-1)

    vals, _, _ = integrate_vector_semi_infinite(f, probe, SPEC, shared_scale=False)
    assert np.real(vals[1]) == pytest.approx(1e-8, rel=1e-9)


def test_polar_2d_gaussian_mass():
    # g independent of phi: integral of e^-t over t = |z|^2 is exactly 1.
    val = integrate_polar_2d(lambda t, phi: np.exp(-t), SPEC)
    assert val.real == pytest.approx(1.0, rel=1e-10)
    assert abs(val.imag) < 1e-12


def test_polar_2d_pure_phase_averages_to_zero():
    val = integrate_polar_2d(lambda t, phi: np.exp(-t) * np.exp(1j * phi), SPEC)
    assert abs(val) < 1e-12


def test_polar_2d_radial_phase_coupling():
    # g = e^-t * t * cos(phi)^2; angular mean of cos^2 is 1/2, radial moment is 1.
    val = integrate_polar_2d(
        lambda t, phi: np.exp(-t) * t * math.cos(phi) ** 2, SPEC
    )
    assert val.real == pytest.approx(0.5, rel=1e-10)


def _log_singular(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 1.0, -np.log(t), (t - 1.0) * np.exp(1.0 - t))


def test_endpoint_log_singularity_is_absorbed():
    # d/dt of t*(1 - ln t) = -ln t: infinite derivative at 0 exercises the
    # fixed-slice budget floor; integral of -ln t over [0,1] = 1, and beyond
    # 1 the test integrand is cut smoothly by e^(1-t).
    probe = IntegrandProbe(peak_location=0.0, truncation_point=250.0, peak_log_value=0.0)
    val = integrate_semi_infinite(_log_singular, probe, SPEC)
    assert val.real == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Breadth-first engine against the depth-first reference
# ---------------------------------------------------------------------------


def _reference_adaptive(f, probe, spec, max_panel_width=None, shared_scale=False):
    """The depth-first engine: one integrand call per panel, recursing on
    each panel's halves before moving to the next.  Kept as the reference
    the breadth-first engine must reproduce bit for bit."""

    def panel_value(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        y = np.asarray(f(mid + half * _GL_NODES))
        assert np.all(np.isfinite(y))
        return half * np.tensordot(_GL_WEIGHTS, y, axes=(0, 0))

    bounds = _initial_boundaries(probe, max_panel_width)
    coarse = [panel_value(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    scale = np.abs(coarse[0])
    for c in coarse[1:]:
        scale = scale + np.abs(c)
    if shared_scale:
        scale = np.maximum(scale, np.max(scale))
    total_budget = np.maximum(spec.rel_tol * scale, spec.abs_floor)
    budget_floor = total_budget / 1024.0
    T = probe.truncation_point
    accepted = []
    state = {"count": len(coarse), "starved": False}

    def recurse(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left = panel_value(a, mid)
        right = panel_value(mid, b)
        refined = left + right
        err = np.abs(whole - refined)
        budget = np.maximum(total_budget * ((b - a) / T), budget_floor)
        within = bool(np.all(err <= budget))
        if within or depth >= _MAX_DEPTH or state["count"] >= spec.max_panels:
            state["starved"] |= not within
            accepted.append((a, refined, err))
            return
        state["count"] += 2
        recurse(a, mid, left, depth + 1)
        recurse(mid, b, right, depth + 1)

    for (a, b), whole in zip(zip(bounds[:-1], bounds[1:]), coarse):
        recurse(a, b, whole, 0)
    assert not state["starved"]
    accepted.sort(key=lambda item: item[0])
    total, err_total = accepted[0][1], accepted[0][2]
    for _, v, e in accepted[1:]:
        total = total + v
        err_total = err_total + e
    return total, err_total, len(accepted)


def _bump(t):
    # Panels around the bump are accepted at several levels, so the sum
    # order depends on sorting them by position.
    return np.exp(-t) + np.exp(-(((t - 1.7) / 0.2) ** 2))


def _nu_engine_call(w):
    """The integrand, probe and panel cap that nu(w) hands the engine."""
    nu_module = importlib.import_module("nufunc.nu")
    seen = []

    def capture(f, probe, spec, max_panel_width=None):
        seen.append((f, probe, max_panel_width))
        return integrate_semi_infinite_detailed(f, probe, spec, max_panel_width)

    mp = pytest.MonkeyPatch()
    mp.setattr(nu_module, "integrate_semi_infinite_detailed", capture)
    try:
        nu(w, SPEC)
    finally:
        mp.undo()
    (call,) = seen
    return call


def _three_components(t):
    return np.stack([np.exp(-t), 1e-6 * t * np.exp(-t), np.exp(-3.0 * t) * np.sin(t)], axis=-1)


_EXP_PROBE = IntegrandProbe(
    peak_location=0.0, truncation_point=100.0 * math.log(10.0), peak_log_value=0.0
)
_OSC_PROBE = IntegrandProbe(peak_location=0.0, truncation_point=300.0, peak_log_value=0.0)

# name -> () -> (integrand, probe, max_panel_width, shared_scale)
_ENGINE_CASES = {
    "exp": lambda: (lambda t: np.exp(-t), _EXP_PROBE, None, False),
    "vector": lambda: (_three_components, _EXP_PROBE, None, False),
    "vector-shared": lambda: (_three_components, _EXP_PROBE, None, True),
    "oscillatory-capped": lambda: (
        lambda t: np.exp(-t) * np.cos(7.0 * t), _OSC_PROBE, 6.0 / 7.0, False
    ),
    "log-singular": lambda: (
        _log_singular, IntegrandProbe(0.0, truncation_point=250.0, peak_log_value=0.0), None, False
    ),
    "bump": lambda: (_bump, _EXP_PROBE, None, False),
    "nu(1)": lambda: _nu_engine_call(1.0) + (False,),
    "nu(2+3j)": lambda: _nu_engine_call(2.0 + 3.0j) + (False,),
}


@pytest.mark.parametrize("name", list(_ENGINE_CASES))
def test_breadth_first_engine_matches_depth_first_reference(name):
    f, probe, width, shared = _ENGINE_CASES[name]()
    got = _integrate_adaptive(f, probe, SPEC, max_panel_width=width, shared_scale=shared)
    ref = _reference_adaptive(f, probe, SPEC, max_panel_width=width, shared_scale=shared)
    for g, r in zip(got[:2], ref[:2]):
        assert np.asarray(g).dtype == np.asarray(r).dtype
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()
    assert got[2] == ref[2]


def test_wide_integrand_calls_respect_the_value_bound():
    nodes = []
    rates = 1.0 + np.arange(64) / 8.0

    def f(t):
        nodes.append(t.size)
        return np.exp(-t[:, None] * rates) * np.cos(t)[:, None]

    vals, _, _ = integrate_vector_semi_infinite(f, _EXP_PROBE, SPEC, shared_scale=False)
    exact = rates / (rates**2 + 1.0)
    assert np.allclose(np.real(vals), exact, rtol=1e-10)
    per_call = _CALL_VALUES // (15 * 64)
    assert nodes[0] == 15
    assert len(nodes) > 2 and max(nodes[1:]) <= 15 * per_call


def test_nu_of_one_makes_few_integrand_calls():
    f, probe, width = _nu_engine_call(1.0)
    calls = []

    def counted(E):
        calls.append(E.size)
        return f(E)

    _integrate_adaptive(counted, probe, SPEC, max_panel_width=width)
    assert len(calls) <= 6
