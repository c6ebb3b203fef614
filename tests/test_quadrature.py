"""Unit tests for the adaptive semi-infinite quadrature engine."""

import importlib
import math

import numpy as np
import pytest

from nufunc import HyperParams, StructureFn, nu, nu_alpha, overlap_continuous
from nufunc.cli import main as cli_main
from nufunc.errors import DomainError, NonDecaying, NonFinite, ToleranceNotMet
from nufunc.quadrature import (
    _ABS_FLOOR,
    _CALL_BYTES,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    _LADDER,
    _MAX_DEPTH,
    IntegrandProbe,
    QuadSpec,
    _fold,
    _initial_boundaries,
    _integrate_adaptive,
    _panel_values,
    _per_call,
    integrate_polar_2d,
    integrate_semi_infinite_detailed,
    integrate_vector_semi_infinite,
    locate_peak,
)

SPEC = QuadSpec()
EPS = float(np.finfo(float).eps)


def test_quadspec_validation():
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^QuadSpec.rel_tol must be finite and > 0$"):
            QuadSpec(rel_tol=tol)
    with pytest.raises(ValueError):
        QuadSpec(max_panels=2)


# ---------------------------------------------------------------------------
# The 31-point Kronrod rule and its embedded 15-point Gauss rule
# ---------------------------------------------------------------------------


def test_kronrod_rule_embeds_the_15_point_gauss_rule():
    gauss = _KRONROD_WEIGHTS[1] != 0.0
    assert np.count_nonzero(gauss) == 15 and np.all(gauss[1::2]) and not np.any(gauss[::2])
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert np.all(np.abs(_KRONROD_NODES[gauss] - nodes) <= 2 * np.spacing(np.abs(nodes)))
    # leggauss's own weights are up to 38 ulps from the correctly rounded
    # 50-digit ones, which the rule holds; exactness below pins them closer.
    assert np.all(np.abs(_KRONROD_WEIGHTS[1, gauss] - weights) <= 40 * np.spacing(weights))
    assert _KRONROD_WEIGHTS[1, 15] == 0.2025782419255613 and _KRONROD_NODES[15] == 0.0
    # Symmetric about the centre, ascending.
    assert np.all(np.diff(_KRONROD_NODES) > 0.0)
    assert np.array_equal(_KRONROD_NODES, -_KRONROD_NODES[::-1])
    assert np.array_equal(_KRONROD_WEIGHTS, _KRONROD_WEIGHTS[:, ::-1])


@pytest.mark.parametrize("row, degree", [(0, 46), (1, 29)])
def test_kronrod_rows_integrate_polynomials_to_their_degree(row, degree):
    weights = _KRONROD_WEIGHTS[row]
    assert math.fsum(weights) == 2.0
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ _KRONROD_NODES**k - exact) <= 4 * EPS


def test_gamma_reproduction_small_orders():
    # integral of t^k e^-t over [0, inf) = k!
    for k in range(11):
        probe = locate_peak(
            lambda t, k=k: k * math.log(t) - t, hint=max(float(k), 0.5)
        )
        val = integrate_semi_infinite_detailed(
            lambda t, k=k: t**k * np.exp(-t), probe, SPEC
        ).value
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
        integrate_semi_infinite_detailed(bad, probe, SPEC)


def test_tolerance_not_met_carries_estimate():
    probe = IntegrandProbe(peak_location=1.0, truncation_point=60.0, peak_log_value=0.0)
    tight = QuadSpec(max_panels=8)
    with pytest.raises(ToleranceNotMet) as exc_info:
        integrate_semi_infinite_detailed(lambda t: np.exp(-t) * np.cos(11.0 * t), probe, tight)
    assert exc_info.value.estimate is not None
    assert exc_info.value.error_bound is not None


def test_oscillatory_integrand_with_panel_cap():
    # integral of e^-t cos(w t) = 1/(1+w^2)
    w = 7.0
    probe = IntegrandProbe(peak_location=0.0, truncation_point=300.0, peak_log_value=0.0)
    val = integrate_vector_semi_infinite(lambda t: np.exp(-t) * np.cos(w * t), probe, SPEC, 6.0 / w)
    assert complex(val.value).real == pytest.approx(1.0 / (1.0 + w * w), rel=1e-10)


def test_vector_engine_componentwise():
    probe = locate_peak(lambda t: -t, hint=1.0)

    def f(t):
        return np.stack([np.exp(-t), 2.0 * np.exp(-t), t * np.exp(-t)], axis=-1)

    res = integrate_vector_semi_infinite(f, probe, SPEC)
    assert np.allclose(np.real(res.value), [1.0, 2.0, 1.0], rtol=1e-11)
    assert np.all(res.error_estimate >= 0.0)
    assert res.panel_count >= 1


def test_vector_engine_per_component_scale():
    # A tiny component is still resolved to its own relative accuracy.
    probe = locate_peak(lambda t: -t, hint=1.0)

    def f(t):
        return np.stack([np.exp(-t), 1e-8 * t * np.exp(-t)], axis=-1)

    vals = integrate_vector_semi_infinite(f, probe, SPEC).value
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
    # origin ladder and the fixed-slice budget floor; integral of -ln t over
    # [0,1] = 1, and beyond 1 the test integrand is cut smoothly by e^(1-t).
    probe = IntegrandProbe(peak_location=0.0, truncation_point=250.0, peak_log_value=0.0)
    calls = []

    def counted(t):
        calls.append(t.size)
        return _log_singular(t)

    res = integrate_semi_infinite_detailed(counted, probe, SPEC)
    assert complex(res.value).real == pytest.approx(2.0, rel=1e-9)
    assert abs(res.value - 2.0) <= res.error_estimate
    # One level per halving toward 0 would take 30 calls.
    assert len(calls) <= 20


# ---------------------------------------------------------------------------
# Breadth-first engine against the depth-first reference
# ---------------------------------------------------------------------------


def _reference_adaptive(f, probe, spec, max_panel_width=None, rungs=_LADDER):
    """The depth-first engine: one integrand call per panel at its 31
    Kronrod nodes, recursing on a failing panel's halves before moving to
    the next, and on the rungs of a failing origin panel's ladder.  Kept as
    the reference the breadth-first engine must reproduce bit for bit."""

    def panel(a, b):
        """The panel's K31 value and its error, max(|K31 - G15|, eps * K31(|f|))."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        y = np.asarray(f(mid + half * _KRONROD_NODES))
        assert np.all(np.isfinite(y))
        kronrod, gauss = half * np.tensordot(_KRONROD_WEIGHTS, y, axes=(1, 0))
        modulus = half * np.tensordot(_KRONROD_WEIGHTS[0], np.abs(y), axes=(0, 0))
        return kronrod, np.maximum(np.abs(kronrod - gauss), EPS * modulus)

    bounds = _initial_boundaries(probe, max_panel_width, rungs)
    coarse = [panel(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    scale = np.abs(coarse[0][0])
    for c, _ in coarse[1:]:
        scale = scale + np.abs(c)
    total_budget = np.maximum(spec.rel_tol * scale, _ABS_FLOOR)
    budget_floor = total_budget / 1024.0
    T = probe.truncation_point
    accepted = []
    state = {"count": len(coarse), "starved": False}

    def recurse(a, b, value, err, depth):
        budget = np.maximum(total_budget * ((b - a) / T), budget_floor)
        within = bool(np.all(err <= budget))
        if within or depth >= _MAX_DEPTH or state["count"] >= spec.max_panels:
            state["starved"] |= not within
            accepted.append((a, value, err))
            return
        mid = 0.5 * (a + b)
        if a == 0.0 and depth + _LADDER < _MAX_DEPTH:
            # The left half [0, mid] becomes rungs [0, mid/2^12], ..., [mid/2, mid].
            state["count"] += 2 + _LADDER
            edges = [0.0] + [mid * 0.5**k for k in range(_LADDER, -1, -1)]
            for k, (ra, rb) in enumerate(zip(edges[:-1], edges[1:])):
                recurse(ra, rb, *panel(ra, rb), depth + 1 + min(_LADDER + 1 - k, _LADDER))
        else:
            state["count"] += 2
            recurse(a, mid, *panel(a, mid), depth + 1)
        recurse(mid, b, *panel(mid, b), depth + 1)

    for (a, b), (value, err) in zip(zip(bounds[:-1], bounds[1:]), coarse):
        recurse(a, b, value, err, 0)
    assert not state["starved"]
    accepted.sort(key=lambda item: item[0])
    total, err_total = accepted[0][1], accepted[0][2]
    for _, v, e in accepted[1:]:
        total = total + v
        err_total = err_total + e
    return total, err_total, len(accepted)


def _inverse_log(t):
    # 1/ln(1/t) near 0, as nu(t) is: its derivative 1/(t ln(t)^2) is
    # unbounded at 0, and beyond 1 it is cut smoothly by e^(1-t).
    t = np.asarray(t, dtype=float)
    return np.where(t < 1.0, 1.0 / (1.0 - np.log(t)), np.exp(1.0 - t))


def _bump(t):
    # Panels around the bump are accepted at several levels, so the sum
    # order depends on sorting them by position.
    return np.exp(-t) + np.exp(-(((t - 1.7) / 0.2) ** 2))


def _single_engine_call(evaluate):
    """The one-row integrand, probe and panel width cap that a single
    evaluator call hands the engine."""
    nu_module = importlib.import_module("nufunc.nu")
    seen = []

    def capture(f, probe, spec, max_panel_width=None, node_bytes=None):
        seen.append((f, probe, max_panel_width))
        return integrate_vector_semi_infinite(f, probe, spec, max_panel_width, node_bytes)

    mp = pytest.MonkeyPatch()
    mp.setattr(nu_module, "integrate_vector_semi_infinite", capture)
    try:
        evaluate()
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

# name -> () -> (integrand, probe, max_panel_width)
_ENGINE_CASES = {
    "exp": lambda: (lambda t: np.exp(-t), _EXP_PROBE, None),
    "vector": lambda: (_three_components, _EXP_PROBE, None),
    # A sign-changing integrand on width-capped panels.
    "oscillatory-capped": lambda: (lambda t: np.exp(-t) * np.cos(7.0 * t), _OSC_PROBE, 6.0 / 7.0),
    "log-singular": lambda: (
        _log_singular, IntegrandProbe(0.0, truncation_point=250.0, peak_log_value=0.0), None
    ),
    "bump": lambda: (_bump, _EXP_PROBE, None),
    "inverse-log-short-ladder": lambda: (
        _inverse_log, IntegrandProbe(0.0, truncation_point=250.0, peak_log_value=0.0), None
    ),
}
# Cases run on fewer coarse rungs toward 0 than the engine's default: the
# failing origin panel [0, 250/8] grows the dynamic ladder on top of them.
_CASE_RUNGS = {"inverse-log-short-ladder": 3}
# Single evaluator calls whose engine call is a case.  nu_alpha(2, -1.5),
# whose integrand changes sign at E = 0.5, is accepted uncapped on its 16
# coarse panels.
_SINGLE_CALLS = {
    "nu(1)": lambda: nu(1.0, SPEC),
    "nu(2+3j)": lambda: nu(2.0 + 3.0j, SPEC),
    "nu_alpha(2, -1.5)": lambda: nu_alpha(2.0, -1.5, SPEC),
}
_ENGINE_CASES.update(
    {name: (lambda call=call: _single_engine_call(call)) for name, call in _SINGLE_CALLS.items()}
)


@pytest.mark.parametrize("name", list(_ENGINE_CASES))
def test_breadth_first_engine_matches_depth_first_reference(name):
    f, probe, width = _ENGINE_CASES[name]()
    rungs = _CASE_RUNGS.get(name, _LADDER)
    got = _integrate_adaptive(f, probe, SPEC, max_panel_width=width, rungs=rungs)
    ref = _reference_adaptive(f, probe, SPEC, max_panel_width=width, rungs=rungs)
    for g, r in zip((got.value, got.error_estimate), ref[:2]):
        assert np.asarray(g).dtype == np.asarray(r).dtype
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()
    assert got.panel_count == ref[2]
    if name in _SINGLE_CALLS:
        # The single evaluator returns the reference's one row.
        value = _SINGLE_CALLS[name]()
        assert np.complex128(value).tobytes() == np.complex128(ref[0][0]).tobytes()
    if np.ndim(ref[0]) == 0 and width is None:
        # The scalar entry (which has no panel cap) sizes its first calls
        # differently, not its sums.
        res = integrate_semi_infinite_detailed(f, probe, SPEC, rungs=rungs)
        assert np.complex128(res.value).tobytes() == np.complex128(ref[0]).tobytes()
        assert np.float64(res.error_estimate).tobytes() == np.float64(ref[1]).tobytes()
        assert res.panel_count == ref[2]


def _wide_integrand_calls(width, complex_values):
    """Integrate `width` damped cosines, or damped complex phasors, against
    their closed forms; return the node count of each integrand call."""
    nodes = []
    rates = 1.0 + np.arange(width) / 8.0

    def f(t):
        nodes.append(t.size)
        wave = np.exp(1j * t) if complex_values else np.cos(t)
        return np.exp(-t[:, None] * rates) * wave[:, None]

    vals = integrate_vector_semi_infinite(f, _EXP_PROBE, SPEC).value
    exact = 1.0 / (rates - 1j) if complex_values else rates / (rates**2 + 1.0)
    assert np.allclose(vals, exact, rtol=1e-10)
    return nodes


def test_wide_integrand_calls_respect_the_byte_bound():
    nodes = _wide_integrand_calls(64, False)
    per_call = _CALL_BYTES // (31 * 64 * 8)
    assert nodes[0] == 31
    # Full calls reach the bound's panel count, and none goes past it.
    assert len(nodes) > 2 and max(nodes[1:]) == 31 * per_call


def test_complex_integrand_calls_carry_half_the_panels():
    real = max(_wide_integrand_calls(64, False)) // 31
    cplx = max(_wide_integrand_calls(64, True)) // 31
    assert real > 1 and cplx == real // 2


def test_panel_over_the_byte_bound_gets_one_panel_per_call():
    # 31 nodes of 1200 float64 values exceed the bound on their own.
    width = 1200
    assert 31 * width * 8 > _CALL_BYTES
    nodes = _wide_integrand_calls(width, False)
    assert len(nodes) > 2 and set(nodes) == {31}


def _integrand_calls_per_level(call):
    """Run `call`; return the integrand calls of each level of its ν engine runs."""
    quad_module = importlib.import_module("nufunc.quadrature")
    levels = []

    def counted_level(f, a, b, per_call):
        calls = []
        levels.append(calls)

        def g(E, *terms):
            calls.append(E.size)
            return f(E, *terms)

        g.node_terms = f.node_terms
        return _panel_values(g, a, b, per_call)

    mp = pytest.MonkeyPatch()
    mp.setattr(quad_module, "_panel_values", counted_level)
    try:
        call()
    finally:
        mp.undo()
    return levels


def test_nu_of_one_makes_few_integrand_calls(capsys):
    # Every coarse panel of nu(1) passes its test, and they share one call.
    assert [len(calls) for calls in _integrand_calls_per_level(lambda: nu(1.0, SPEC))] == [1]
    # A batched tree's first level is sized by its rows' bytes (16 for a
    # complex row, 8 for a real one), with no one-panel measuring call:
    # each call carries as many panels as the byte bound allows, so a 3-row
    # overlap makes one call and a 60-row real table two full calls for
    # its 16 coarse panels.
    plain = StructureFn(HyperParams(0, 0))
    for call, node_bytes, n_calls in (
        (lambda: overlap_continuous(plain, 0.5, 0.2 + 0.1j, SPEC), 16 * 3, 1),
        (lambda: cli_main(["table", "nu", "--grid", "0.1:10:60:log"]), 8 * 60, 2),
    ):
        first = _integrand_calls_per_level(call)[0]
        full = _KRONROD_NODES.size * _per_call(node_bytes)
        assert len(first) == n_calls and first[:-1] == [full] * (n_calls - 1) and first[-1] <= full
    assert len(capsys.readouterr().out.splitlines()) == 61


def test_scalar_entry_rejects_wide_integrands():
    with pytest.raises(DomainError, match="one value per node"):
        integrate_semi_infinite_detailed(_three_components, _EXP_PROBE, SPEC)


# Panel 1's left half, at its centre node (its midpoint), and the whole last
# coarse panel hold non-finite values.
_NAN_BOUNDS = _initial_boundaries(_EXP_PROBE, None)
_NAN_HALF_CENTRE = 0.5 * (_NAN_BOUNDS[1] + 0.5 * (_NAN_BOUNDS[1] + _NAN_BOUNDS[2]))


def _nan_on_a_half_and_a_coarse_panel(width):
    def f(t):
        y = np.exp(-t[:, None] * (1.0 + np.arange(width or 1)))
        y[(t == _NAN_HALF_CENTRE) | (t > _NAN_BOUNDS[-2])] = np.nan
        return y[:, 0] if width is None else y

    return f


@pytest.mark.parametrize("width", [None, 64])
def test_nonfinite_names_the_coarse_panel_before_an_earlier_half(width):
    # The first level holds the coarse panels alone, so the last coarse panel
    # is reported, also when width 64 spreads the first level over many calls.
    entry = integrate_semi_infinite_detailed if width is None else integrate_vector_semi_infinite
    message = rf"on \[{_NAN_BOUNDS[-2]:.6g}, {_NAN_BOUNDS[-1]:.6g}\]"
    with pytest.raises(NonFinite, match=message):
        entry(_nan_on_a_half_and_a_coarse_panel(width), _EXP_PROBE, SPEC)


# ---------------------------------------------------------------------------
# Stacked panel sums and the level-wide panel cap
# ---------------------------------------------------------------------------


def _columns(width, complex_values):
    """An integrand with `width` components, or a scalar one for None."""
    rates = 0.3 + np.arange(width or 1) / 7.0

    def f(t):
        y = np.exp(-t[:, None] * rates) * np.cos(t[:, None] * (1.0 + rates))
        if complex_values:
            y = y + 1j * np.sin(t[:, None] * rates) / (1.0 + t[:, None])
        return y[:, 0] if width is None else y

    return f


@pytest.mark.parametrize("width", [None, 1, 3, 106])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("per_call", [1, 4, 7, 50])
def test_panel_values_match_per_panel_tensordot(width, complex_values, per_call):
    # 23 panels: per_call 4 and 7 leave a short last chunk.
    a = np.cumsum(np.linspace(0.05, 1.3, 23)) - 0.05
    b = a + np.linspace(0.04, 0.9, 23)
    f = _columns(width, complex_values)
    integrands = [f]
    if not complex_values:
        # A non-negative integrand that says so skips np.abs, with the same bits.
        def declared(t):
            return np.abs(f(t))

        declared.nonnegative = True
        integrands.append(declared)
    for fn in integrands:
        got = _panel_values(fn, a, b, per_call)
        ref = []
        for ak, bk in zip(a, b):
            mid, half = 0.5 * (ak + bk), 0.5 * (bk - ak)
            y = fn(mid + half * _KRONROD_NODES)
            kronrod, gauss = half * np.tensordot(_KRONROD_WEIGHTS, y, axes=(1, 0))
            ref.append((kronrod, gauss, half * np.tensordot(_KRONROD_WEIGHTS[0], np.abs(y), axes=(0, 0))))
        for g, r in zip(got, map(np.array, zip(*ref))):
            assert g.shape == r.shape == ((23,) if width is None else (23, width))
            assert g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("complex_values", [False, True])
def test_fold_adds_rows_in_order_as_the_cumulative_sum(complex_values):
    # np.add.reduce sums one column pairwise, so 1-D and one-column arrays
    # keep the cumulative form; wider arrays take the reduce.
    rng = np.random.default_rng(7)
    for rows in (1, 2, 5, 31, 44, 257, 2000):
        for shape in ((rows,), (rows, 1), (rows, 2), (rows, 3), (rows, 64), (rows, 434)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            if complex_values:
                x = x + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            got, ref = _fold(x), np.cumsum(x, axis=0)[-1]
            assert np.shape(got) == ref.shape and got.dtype == ref.dtype
            assert np.asarray(got).tobytes() == ref.tobytes(), shape


def test_overflowing_panel_sum_of_finite_values_names_the_sums():
    # Every value is finite, but a panel's |f| sum passes the largest double.
    def f(t):
        return np.full(t.shape, 1e308)

    with pytest.raises(NonFinite, match="panel sums are non-finite"):
        integrate_semi_infinite_detailed(f, _EXP_PROBE, SPEC)


def test_nonfinite_names_first_bad_panel_of_a_later_chunk():
    a = np.arange(10.0)
    b = a + 1.0

    def f(t):
        # Panels 6 and 9 hold non-finite values; panel 6 is the third of
        # the second chunk of four.
        return np.where((t > 6.0) & (t < 7.0) | (t > 9.0), np.nan, np.exp(-t))

    with pytest.raises(NonFinite, match=r"on \[6, 7\]"):
        _panel_values(f, a, b, 4)


def _three_rates(t):
    return np.stack(
        [np.exp(-t) * np.cos(11.0 * t), np.exp(-t) * np.sin(5.0 * t), np.exp(-2.0 * t)], axis=-1
    )


_STARVE_PROBE = IntegrandProbe(peak_location=1.0, truncation_point=60.0, peak_log_value=0.0)

# name -> (integrand, probe, max_panels, message, estimate, error bound).
# Figures of the per-panel engine.  A cap of 8 stops every split, as the 16
# coarse panels already exceed it; a cap of 21 lets the first three failing
# panels of the first level split; t^-0.5 stops at _MAX_DEPTH instead, after
# four ladders (13 halvings each) and eight bisections toward 0.  The
# log-singular integrand's 13 coarse panels leave a cap of 20 no room for a
# ladder, so its origin panel bisects, with the figures of an engine without
# ladders; a cap of 26 fits one ladder of 14 panels.  With a second
# singularity at 1/3, the origin reaches _MAX_DEPTH while the bisections
# toward 1/3 go on until a cap of 120 stops them, so both causes are named.
_STARVED_CASES = {
    "scalar-cap-8": (
        lambda t: np.exp(-t) * np.cos(11.0 * t), _STARVE_PROBE, 8,
        "panel budget exhausted (16 panels, max 8)",
        0.008196771642483829, 0.00020553760990300478,
    ),
    "vector-cap-8": (
        _three_rates, _STARVE_PROBE, 8,
        "panel budget exhausted (16 panels, max 8)",
        [0.008196771642483823, 0.19230769230767272, 0.5],
        [0.00020553760990300488, 5.00612385498928e-08, 1.119421812745096e-16],
    ),
    "scalar-cap-21": (
        lambda t: np.exp(-t) * np.cos(11.0 * t), _STARVE_PROBE, 21,
        "panel budget exhausted (22 panels, max 21)",
        0.008196721312426367, 6.857416446649617e-08,
    ),
    "vector-cap-21": (
        _three_rates, _STARVE_PROBE, 21,
        "panel budget exhausted (22 panels, max 21)",
        [0.008196721312426361, 0.19230769230769318, 0.5],
        [6.857416446646409e-08, 4.7715512252712834e-12, 1.1194215982103897e-16],
    ),
    "depth-cap": (
        lambda t: t**-0.5, IntegrandProbe(0.0, 1.0, 0.0), 4000,
        "depth limit of 60 halvings reached (85 panels, max 4000)",
        1.9999999999996794, 4.972713157876563e-13,
    ),
    "depth-and-cap": (
        lambda t: t**-0.5 + np.abs(t - 1.0 / 3.0) ** -0.5, IntegrandProbe(0.0, 1.0, 0.0), 120,
        "panel budget exhausted and depth limit of 60 halvings reached (121 panels, max 120)",
        4.787458117318279, 8.249784861242124e-05,
    ),
    "ladder-over-cap": (
        _log_singular, IntegrandProbe(0.0, 250.0, 0.0), 20,
        "panel budget exhausted (21 panels, max 20)",
        1.9999957394076024, 4.750211390533847e-05,
    ),
    "ladder-under-cap": (
        _log_singular, IntegrandProbe(0.0, 250.0, 0.0), 26,
        "panel budget exhausted (27 panels, max 26)",
        2.0000173430348838, 3.834968582329207e-05,
    ),
}


@pytest.mark.parametrize("name", list(_STARVED_CASES))
def test_starved_engine_reports_pinned_figures(name):
    f, probe, cap, message, estimate, error_bound = _STARVED_CASES[name]
    with pytest.raises(ToleranceNotMet) as exc_info:
        _integrate_adaptive(f, probe, QuadSpec(max_panels=cap))
    exc = exc_info.value
    assert str(exc) == message
    assert np.asarray(exc.estimate).dtype == np.float64
    assert np.asarray(exc.estimate).tolist() == estimate
    assert np.asarray(exc.error_bound).tolist() == error_bound
