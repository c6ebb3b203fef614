"""Unit tests for the nu-function family evaluators."""

import cmath
import importlib
import json
import math
import pathlib
import random
import warnings

import numpy as np
import pytest

from nufunc.coherent import (
    cs_coefficient_continuous,
    cs_coefficient_discrete,
    dc_limit_check,
    overlap_continuous,
    poisson_density_discrete,
    transition_density,
)
from nufunc.doot import exp_argument_matrix_elements
from nufunc.errors import (
    DivergentFamily,
    DomainError,
    NoConvergence,
    NonFinite,
    NuFuncError,
    ToleranceNotMet,
)
from nufunc.identities import check_complex_gaussian, check_derivative_relation, check_laplace_nu
from nufunc.nu import (
    HyperParams,
    StructureFn,
    convergence_domain,
    nu,
    nu_alpha,
    nu_alpha_detailed,
    nu_alpha_positive_batch,
    nu_complex_grid,
    nu_general,
    nu_general_detailed,
    nu_general_log,
    nu_on_circle,
    nu_positive_batch,
    pfq_series,
    pfq_series_log,
    rho_continuous,
    rho_discrete,
)
from nufunc.quadrature import QuadSpec, locate_peak
from nufunc.special import log_gamma, reciprocal_gamma_log_signed

# The package's `nu` function shadows the `nufunc.nu` module attribute.
NU_MODULE = importlib.import_module("nufunc.nu")
SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
EPS = float(np.finfo(float).eps)

# Frozen oracle values computed independently with 50-digit arithmetic.
NU_ORACLE = {
    0.15: 0.544602064339404,
    0.25: 0.708817738236737,
    0.5: 1.13446173872999,
    0.7: 1.52987455104958,
    1.0: 2.26653450769985,
    1.5: 4.06570955787085,
}


def test_nu_matches_frozen_oracle():
    for w, ref in NU_ORACLE.items():
        assert nu(w, SPEC).real == pytest.approx(ref, rel=1e-12)


def test_nu_at_zero_is_zero():
    assert nu(0.0, SPEC) == 0j
    assert nu_general(PLAIN, 0j, SPEC) == 0j


def test_nu_complex_conjugate_symmetry():
    w = 0.6 + 0.45j
    assert nu(w.conjugate(), SPEC) == pytest.approx(
        nu(w, SPEC).conjugate(), rel=1e-13
    )


def test_nu_alpha_frozen_oracle_and_reduction():
    assert nu_alpha(1.0, 1.0, SPEC) == pytest.approx(1.18139184334238, rel=1e-12)
    for w in (0.3, 1.0, 2.5):
        assert nu_alpha(w, 0.0, SPEC) == pytest.approx(nu(w, SPEC).real, rel=1e-12)


def test_nu_alpha_shift_derivative_property():
    # d/dz nu(z, alpha) = nu(z, alpha - 1), including through the
    # sign-changing region alpha <= -1.
    h = 1e-4
    z = 1.0
    diff = (nu_alpha(z + h, -0.5, SPEC) - nu_alpha(z - h, -0.5, SPEC)) / (2.0 * h)
    assert diff == pytest.approx(nu_alpha(z, -1.5, SPEC), rel=1e-5)


def test_nu_alpha_domain():
    with pytest.raises(DomainError):
        nu_alpha(0.0, 0.5, SPEC)
    with pytest.raises(DomainError):
        nu_alpha(-1.0, 0.5, SPEC)


def test_convergence_classification():
    assert convergence_domain(StructureFn(HyperParams(0, 0))) == "entire"
    assert convergence_domain(StructureFn(HyperParams(1, 2, (1.0,), (2.0, 3.0)))) == "entire"
    assert convergence_domain(StructureFn(HyperParams(1, 0, (2.0,)))) == "unit_disc"
    assert convergence_domain(StructureFn(HyperParams(2, 0, (1.0, 1.0)))) == "divergent"


def test_divergent_family_rejected():
    sf = StructureFn(HyperParams(2, 0, (1.0, 1.0)))
    with pytest.raises(DivergentFamily):
        nu_general(sf, 0.5, SPEC)


def test_unit_disc_family_boundary():
    sf = StructureFn(HyperParams(1, 0, (2.0,)))
    with pytest.raises(DomainError):
        nu_general(sf, 1.0, SPEC)
    with pytest.raises(DomainError):
        nu_general(sf, 1.2, SPEC)


def test_unit_disc_family_closed_form():
    # For p=1, q=0, a=(2,) the structure function is 1/(E+1), so
    # nu(w) = integral of (E+1) w^E dE = 1/ln(1/w)^2 + 1/ln(1/w).
    sf = StructureFn(HyperParams(1, 0, (2.0,)))
    for w in (0.2, 0.5, 0.8):
        L = -math.log(w)
        expected = 1.0 / (L * L) + 1.0 / L
        assert nu_general(sf, w, SPEC).real == pytest.approx(expected, rel=1e-11)


def test_general_family_value_against_brute_force():
    # (1,1) family on a log-spaced trapezoid oracle.
    sf = StructureFn(HyperParams(1, 1, (1.0,), (2.0,)))
    w = 1.3
    E = np.linspace(1e-9, 80.0, 400001)
    integrand = np.exp(E * math.log(w) - sf.log_rho_continuous(E))
    ref = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(E)))
    assert nu_general(sf, w, SPEC).real == pytest.approx(ref, rel=1e-7)


@pytest.mark.parametrize(
    "params, w",
    [
        (HyperParams(1, 1, (1.5,), (2.0,)), 3.0),
        (HyperParams(1, 2, (0.5,), (2.0, 3.5)), 40.0),
        (HyperParams(2, 1, (1.0, 1.5), (2.0,)), 0.5),
        (HyperParams(0, 0), 0.0),
    ],
)
def test_pfq_series_log_matches_log_of_the_series(params, w):
    assert pfq_series_log(params, w) == pytest.approx(math.log(pfq_series(params, w).real), rel=1e-14)


def test_structure_function_discrete_continuous_agreement():
    sf = StructureFn(HyperParams(1, 1, (1.5,), (2.5,)))
    for n in range(8):
        assert rho_discrete(sf, n) == pytest.approx(rho_continuous(sf, float(n)), abs=1e-10)


def test_structure_function_rejects_arguments_outside_its_domain():
    with pytest.raises(DomainError, match="^rho_discrete requires n >= 0, got -1$"):
        rho_discrete(PLAIN, -1)
    for E in (-1.0, math.inf):
        with pytest.raises(DomainError, match=f"^rho_continuous requires E >= 0, got {E!r}$"):
            rho_continuous(PLAIN, E)


# Plain, (1,1), (1,2) and (2,1) families; b = 0.7 puts the (1,2) family's
# Gamma arguments on both sides of 1.
_RHO_FAMILIES = [
    HyperParams(0, 0),
    HyperParams(1, 1, (1.0,), (2.0,)),
    HyperParams(1, 2, (1.5,), (0.7, 2.5)),
    HyperParams(2, 1, (0.5, 3.25), (1.75,)),
]


@pytest.mark.parametrize("params", _RHO_FAMILIES, ids=lambda p: f"{p.p}{p.q}")
@pytest.mark.parametrize("shape", [(401,), (20, 15)])
def test_log_rho_continuous_matches_per_term_reference(params, shape):
    E = np.random.default_rng(7).uniform(0.0, 40.0, shape)
    E.flat[:5] = [0.0, 1e-9, 0.1, 0.3, 0.29999]
    ref = log_gamma(E + 1.0)
    for bj in params.b:
        ref = ref + (log_gamma(bj + E) - log_gamma(bj))
    for ai in params.a:
        ref = ref - (log_gamma(ai + E) - log_gamma(ai))
    got = StructureFn(params).log_rho_continuous(E)
    assert got.shape == shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("params", _RHO_FAMILIES, ids=lambda p: f"{p.p}{p.q}")
def test_log_rho_scalar_matches_per_term_reference(params):
    sf = StructureFn(params)
    for E in (0.0, 0.1, 0.3, 1.0, 2.5, 17.25, 150.0):
        ref = math.lgamma(E + 1.0)
        for bj in params.b:
            ref += math.lgamma(bj + E) - math.lgamma(bj)
        for ai in params.a:
            ref -= math.lgamma(ai + E) - math.lgamma(ai)
        assert sf.log_rho_scalar(E) == ref


def test_hyperparams_validation():
    with pytest.raises(DomainError, match="^HyperParams requires p >= 0 and q >= 0"):
        HyperParams(-1, 0)
    with pytest.raises(DomainError):
        HyperParams(1, 0, (), ())
    with pytest.raises(DomainError):
        HyperParams(1, 0, (-1.0,), ())
    with pytest.raises(DomainError):
        HyperParams(0, 1, (), (0.0,))
    # Entries whose ln Gamma would overflow, which StructureFn could not build.
    for v in (1e306, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^HyperParams entries must lie in \(0, 2.5e\+305\], got "):
            HyperParams(1, 1, (1.0,), (v,))
    StructureFn(HyperParams(1, 1, (2.5e305,), (1.0,)))


def test_pfq_exponential_family():
    for w in np.linspace(0.0, 5.0, 11):
        assert pfq_series(HyperParams(0, 0), w).real == pytest.approx(
            math.exp(w), rel=1e-12
        )


def test_pfq_exponential_family_up_to_the_float_limit():
    # The terms pass the largest double before the sum does.
    for w in (707.56, 709.0, 709.7):
        assert pfq_series(HyperParams(0, 0), w).real == pytest.approx(math.exp(w), rel=1e-14)


def test_pfq_confluent_closed_form():
    params = HyperParams(1, 1, (1.0,), (2.0,))
    for w in (1.3, 2.0, -3.0):
        expected = (math.exp(w) - 1.0) / w
        assert pfq_series(params, w).real == pytest.approx(expected, rel=1e-12)


def test_series_that_needs_more_terms_than_its_cap_raises():
    # 1/(1 - w) on (1,0; 1; ): at w = 0.9999 the terms fall below 1e-16 of
    # the sum only after about 276 000 terms.
    params = HyperParams(1, 0, (1.0,), ())
    with pytest.raises(NoConvergence, match=r"^series did not converge within 10000 terms at \|w\|=0.9999"):
        pfq_series(params, 0.9999)
    with pytest.raises(NoConvergence, match=r"^series did not converge within 10000 terms at \|w\|=0.9999"):
        pfq_series_log(params, 0.9999)


def test_pfq_series_log_large_argument():
    assert pfq_series_log(HyperParams(0, 0), 800.0) == pytest.approx(800.0, rel=1e-12)


def test_nu_general_log_matches_linear_scale():
    assert nu_general_log(PLAIN, 2.0, SPEC) == pytest.approx(
        math.log(nu(2.0, SPEC).real), rel=1e-12
    )
    # Far beyond linear range: nu(w) = e^w minus a tail of order 1e-5, so the
    # log sits 1e-265 under w and rounds to w itself.
    val = nu_general_log(PLAIN, 600.0, SPEC)
    assert 600.0 - 1e-12 <= val <= 600.0


def test_positive_batch_matches_scalar():
    ws = np.array([0.1, 1.0, 10.0, 50.0])
    batch = nu_positive_batch(PLAIN, ws, SPEC)
    for w, v in zip(ws, batch):
        assert v == pytest.approx(nu(float(w), SPEC).real, rel=1e-11)


@pytest.mark.parametrize("w, alpha", [(2.0, -1.5), (2.936, -2.0), (2.0, -0.6), (1.5, -3.7)])
def test_nu_alpha_resolves_sign_lobes_without_a_panel_cap(w, alpha):
    # 1/Gamma(alpha+E+1) changes sign for E < -alpha-1, and the K31 panels
    # resolve its lobes uncapped: each call is accepted on its 16 coarse panels.
    res = nu_alpha_detailed(w, alpha, SPEC)
    assert res.panel_count <= 16
    assert abs(res.value - nu_alpha_detailed(w, alpha, QuadSpec(rel_tol=1e-13)).value) <= res.error_estimate


def test_alpha_batch_matches_scalar():
    ws = np.array([0.2, 1.0, 3.0])
    for alpha in (1.0, -0.25):
        batch = nu_alpha_positive_batch(ws, alpha, SPEC)
        for w, v in zip(ws, batch):
            assert v == pytest.approx(nu_alpha(float(w), alpha, SPEC), rel=1e-10)
    # An empty batch is an empty answer, as for the family evaluators.
    empty = nu_alpha_detailed([], 1.0, SPEC)
    assert empty.value.shape == empty.error_estimate.shape == (0,) and empty.panel_count == 0
    assert nu_alpha_positive_batch([], 1.0, SPEC).shape == (0,)
    assert nu_positive_batch(PLAIN, [], SPEC).shape == (0,)


def _agrees(value, error, ref):
    """A batched row against a one-argument call: within the larger error
    estimate plus 4 ulps of the value."""
    return abs(value - ref.value) <= max(error, ref.error_estimate) + 4.0 * EPS * abs(ref.value)


BATCH_GRIDS = [
    (HyperParams(0, 0), np.geomspace(0.08, 12.0, 30)),
    (HyperParams(0, 0), np.linspace(-6.0, 6.0, 13)),
    (HyperParams(0, 0), np.array([0.5 + 0.5j, -1.0 + 2.0j, 0.0, 3.0 - 0.1j])),
    (HyperParams(1, 1, (1.5,), (2.0,)), np.geomspace(0.05, 20.0, 20)),
    (HyperParams(1, 2, (1.5,), (2.0, 0.7)), np.linspace(0.1, 12.0, 12)),
    (HyperParams(2, 1, (1.5, 0.8), (2.0,)), np.linspace(-0.9, 0.9, 10)),
]


@pytest.mark.parametrize(
    "params, ws", BATCH_GRIDS, ids=["plain", "plain_signed", "plain_complex", "11", "12", "21"]
)
def test_general_batch_rows_agree_with_one_argument_calls(params, ws):
    sf = StructureFn(params)
    res = nu_general_detailed(sf, ws, SPEC)
    assert res.value.shape == res.error_estimate.shape == ws.shape
    # Real exponents unless an argument is complex or negative.
    assert np.isrealobj(res.value) == (np.isrealobj(ws) and bool(np.all(ws >= 0.0)))
    for w, v, e in zip(ws, res.value, res.error_estimate):
        if w == 0:
            assert v == 0 and e == 0
        else:
            assert _agrees(v, e, nu_general_detailed(sf, w, SPEC))


def _outcome(call, *args):
    """repr of a call's (value, error estimate), or its error's type and
    text: equal reprs are equal bits."""
    try:
        res = call(*args)
    except NuFuncError as exc:
        return type(exc), str(exc)
    if isinstance(res.value, np.ndarray):  # the one-row call
        assert res.value.shape == res.error_estimate.shape == (1,)
        return repr((complex(res.value[0]), float(res.error_estimate[0])))
    assert type(res.value) is complex and type(res.error_estimate) is float
    return repr((res.value, res.error_estimate))


ONE_ROW_FAMILIES = [
    StructureFn(HyperParams(0, 0)),
    StructureFn(HyperParams(1, 1, (1.5,), (2.0,))),
    StructureFn(HyperParams(1, 2, (1.5,), (2.0, 0.7))),
    StructureFn(HyperParams(2, 1, (1.5, 0.8), (2.0,))),
]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_single_call_is_the_one_row_call():
    # A scalar argument gets exactly the one-row array's value and error
    # estimate, or raises the same error with the same text.  300 draws over
    # four families: real positive, negative and complex arguments, inside
    # the unit disc for the (2,1) family.
    rng = random.Random(5)
    for i in range(300):
        sf = ONE_ROW_FAMILIES[i % 4]
        kind = rng.choice(("positive", "negative", "complex"))
        if i % 4 == 3:
            r = rng.uniform(0.01, 0.95)
        else:
            r = _log_uniform(rng, 0.01, 500.0 if kind == "positive" else 30.0)
        if kind == "complex":
            w = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        else:
            w = r if kind == "positive" else -r
        assert _outcome(nu_general_detailed, sf, w, SPEC) == _outcome(
            nu_general_detailed, sf, np.array([w]), SPEC
        ), (sf.params, w)


def test_single_alpha_call_is_the_one_row_call():
    rng = random.Random(5)
    for i in range(300):
        alpha = (1.2, -0.3, -1.5, -2.0)[i % 4]
        w = _log_uniform(rng, 0.05, 50.0)
        assert _outcome(nu_alpha_detailed, w, alpha, SPEC) == _outcome(
            nu_alpha_detailed, np.array([w]), alpha, SPEC
        ), (w, alpha)


@pytest.mark.parametrize("alpha", [1.2, -0.3, -1.5, -2.0])
def test_alpha_batch_rows_agree_with_one_argument_calls(alpha):
    ws = np.geomspace(0.4, 3.5, 12)
    res = nu_alpha_detailed(ws, alpha, SPEC)
    assert np.isrealobj(res.value) and res.error_estimate.shape == ws.shape
    for w, v, e in zip(ws, res.value, res.error_estimate):
        assert _agrees(v, e, nu_alpha_detailed(w, alpha, SPEC))


# name -> (call, owner and name of its node-only term, engine levels, and
# whether every integrand call carries one panel).  31 nodes of 720 float64
# components exceed the 128 KiB call bound, so each call of a 720-argument
# batch carries one panel; a single argument's level is one call.
HOISTED_TERMS = {
    "nu": (
        lambda: nu_general_detailed(PLAIN, np.geomspace(1e-3, 300.0, 720), SPEC),
        StructureFn, "log_rho_continuous", 2, True,
    ),
    # 1/Gamma(E - 0.5) changes sign at E = 0.5; the coarse panels pass at once.
    "nu_alpha": (
        lambda: nu_alpha_detailed(np.geomspace(1.5, 2.5, 720), -1.5, SPEC),
        NU_MODULE, "reciprocal_gamma_log_signed", 1, True,
    ),
    # The single evaluators run one row; at w = 500 four panels fail.
    "nu_general_detailed": (
        lambda: nu_general_detailed(PLAIN, 500.0, SPEC),
        StructureFn, "log_rho_continuous", 2, False,
    ),
    "nu_general_log": (
        lambda: nu_general_log(PLAIN, 500.0, SPEC),
        StructureFn, "log_rho_continuous", 2, False,
    ),
    "nu_alpha_detailed": (
        lambda: nu_alpha_detailed(2.0, -1.5, SPEC),
        NU_MODULE, "reciprocal_gamma_log_signed", 1, False,
    ),
}


@pytest.mark.parametrize("name", list(HOISTED_TERMS))
def test_batched_integrand_evaluates_its_node_term_once_per_level(name, monkeypatch):
    call, owner, attr, n_levels, one_panel_calls = HOISTED_TERMS[name]
    quad = importlib.import_module("nufunc.quadrature")
    term, panel_values, engine = getattr(owner, attr), quad._panel_values, quad.integrate_vector_semi_infinite
    term_nodes, levels, engine_calls = [], [], []

    def counted_term(*args):
        if np.ndim(args[-1]):  # the probe's scalar calls aside
            term_nodes.append(np.size(args[-1]))
        return term(*args)

    def counted_level(f, a, b, per_call):
        calls = []
        levels.append(calls)

        def g(E, *terms):
            calls.append(E.size)
            return f(E, *terms)

        g.node_terms = f.node_terms
        return panel_values(g, a, b, per_call)

    def captured_engine(f, probe, spec, max_panel_width=None, node_bytes=None):
        out = engine(f, probe, spec, max_panel_width, node_bytes)
        engine_calls.append(((f, probe, SPEC, max_panel_width), out))
        return out

    monkeypatch.setattr(owner, attr, counted_term)
    monkeypatch.setattr(quad, "_panel_values", counted_level)
    monkeypatch.setattr(NU_MODULE, "integrate_vector_semi_infinite", captured_engine)
    call()
    monkeypatch.undo()
    assert len(levels) == n_levels
    if one_panel_calls:
        assert all(set(calls) == {31} for calls in levels)
    else:
        assert all(len(calls) == 1 for calls in levels)
    # One term evaluation per level, over all of the level's nodes.
    assert term_nodes == [sum(calls) for calls in levels]
    # A one-argument integrand without the hook, as a tracer's wrapper is,
    # gets the same bits from a term evaluated per call.
    ((f, *args), res), = engine_calls
    plain = engine(lambda E: f(E), *args)
    assert plain.value.tobytes() == res.value.tobytes()
    assert plain.error_estimate.tobytes() == res.error_estimate.tobytes()
    assert plain.panel_count == res.panel_count


def _captured_integrand(call, monkeypatch):
    """The integrand that `call` hands the engine, and the result."""
    engine, seen = NU_MODULE.integrate_vector_semi_infinite, []

    def captured(f, *args, **kwargs):
        seen.append(f)
        return engine(f, *args, **kwargs)

    monkeypatch.setattr(NU_MODULE, "integrate_vector_semi_infinite", captured)
    out = call()
    monkeypatch.undo()
    (f,) = seen
    return f, out


@pytest.mark.parametrize("ws", [[1e-30, 5.0], [1e-30 * cmath.exp(1j), 5.0]], ids=["real", "complex"])
def test_nu_integrand_flushes_exponents_below_ln_dbl_min(ws, monkeypatch):
    f, _ = _captured_integrand(lambda: nu_general_detailed(PLAIN, np.array(ws), SPEC), monkeypatch)
    c = np.log(np.abs(ws)) + 1j * np.angle(ws) if np.iscomplexobj(ws) else np.log(ws)
    # exp of a real exponent is non-negative, and only then does f say so.
    assert f.nonnegative == (not np.iscomplexobj(ws))
    E = np.linspace(0.0, 40.0, 31 * 7)
    x = E[:, None] * c - PLAIN.log_rho_continuous(E)[:, None]
    low = x.real < math.log(np.finfo(float).tiny)
    assert 0 < np.count_nonzero(low) < x.size
    # With the nodes alone, as a tracer's wrapper calls it, and with the hook.
    for y in (f(E), f(E, *f.node_terms(E))):
        assert y.dtype == x.dtype
        assert y[~low].tobytes() == np.exp(x[~low]).tobytes()
        assert y[low].tobytes() == np.zeros(np.count_nonzero(low), x.dtype).tobytes()


@pytest.mark.parametrize("alpha", [0.5, -0.9, -1.0, -1.5])
def test_nu_alpha_integrand_is_non_negative_only_above_minus_one(alpha, monkeypatch):
    # Above -1 every sign of 1/Gamma(alpha+E+1) is +1, so skipping the sign
    # changes no bit; at and below -1 the sign is applied.
    f, _ = _captured_integrand(lambda: nu_alpha_detailed(2.0, alpha, SPEC), monkeypatch)
    assert f.nonnegative == (alpha > -1.0)
    E = np.linspace(0.0, 30.0, 31 * 3)
    log_abs, sign = reciprocal_gamma_log_signed(alpha + E + 1.0)
    x = (alpha + E)[:, None] * np.log([2.0]) + log_abs[:, None]
    ref = np.where(x < math.log(np.finfo(float).tiny), 0.0, np.exp(x)) * sign[:, None]
    assert f(E).tobytes() == f(E, log_abs, sign).tobytes() == ref.tobytes()


@pytest.mark.parametrize("w", [-50.0, -20.0])
def test_nu_that_misses_its_tolerance_raises(w):
    # The integrand cancels: |value| is far below the integral of |f|, to
    # which the engine holds the error.  nu(-50) is -0.1532 + 0.0929i.
    # The message names the argument as passed.
    with pytest.raises(ToleranceNotMet, match=f"at w = {w:g} misses rel_tol 1e-10") as exc:
        nu(w, SPEC)
    est, bound = exc.value.estimate, exc.value.error_bound
    assert est.shape == bound.shape == (1,)
    assert bound[0] > SPEC.rel_tol * abs(est[0])


def test_overlap_whose_normalizer_misses_its_tolerance_raises():
    with pytest.raises(ToleranceNotMet, match=r"at w = -36\+3j") as exc:
        overlap_continuous(PLAIN, 6.0, -6.0 + 0.5j, SPEC)
    assert exc.value.estimate.shape == exc.value.error_bound.shape == (3,)


def test_nu_alpha_that_misses_its_tolerance_raises():
    # nu_alpha(w, -1.5) changes sign near w = 0.106112, where its value is
    # a small remainder of the integral of |f|.
    with pytest.raises(ToleranceNotMet, match=r"nu_alpha \(alpha = -1.5\) at w = 0.106112 misses"):
        nu_alpha_detailed(0.10611229234938868, -1.5, SPEC)
    assert nu_alpha(0.09, -1.5, SPEC) < 0.0 < nu_alpha(0.12, -1.5, SPEC)


def test_nu_of_minus_ten_still_meets_its_tolerance():
    res = nu_general_detailed(PLAIN, -10.0, SPEC)
    assert 0.0 < res.error_estimate <= SPEC.rel_tol * abs(res.value)
    assert abs(res.value - (-0.18358635434990248 + 0.15648098140274772j)) <= 1e-10


def _error_text(call, *args):
    with pytest.raises(DomainError) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


def test_batches_raise_the_first_bad_rows_error():
    disc = StructureFn(HyperParams(2, 1, (1.5, 0.8), (2.0,)))
    ws = np.array([0.5, -0.9, -1.25, 3.0])
    assert _error_text(nu_general_detailed, disc, ws, SPEC) == _error_text(
        nu_general_detailed, disc, -1.25, SPEC
    ) == (DomainError, "family (p=2, q=1) converges only for |w| < 1; got |w| = 1.25")
    divergent = StructureFn(HyperParams(2, 0, (1.0, 1.0)))
    with pytest.raises(DivergentFamily):
        nu_general_detailed(divergent, np.array([0.0, 0.5]), SPEC)
    # A non-finite argument is named before the family.
    assert _error_text(nu_general_detailed, divergent, np.array([0.5, math.nan]), SPEC) == (
        DomainError, "nu_general requires a finite argument, got nan"
    )
    # The first bad argument is reported; alpha only when every argument is good.
    for ws, alpha, first_bad in [
        ([1.0, 0.0, -1.0], 1.0, (0.0, 1.0)),
        ([2.0, math.inf], 1.0, (math.inf, 1.0)),
        ([1.0, 0.0], math.nan, (0.0, math.nan)),
        ([0.0, 1.0], math.nan, (0.0, math.nan)),
        ([1.0, 2.0], math.nan, (1.0, math.nan)),
    ]:
        assert _error_text(nu_alpha_detailed, np.array(ws), alpha, SPEC) == _error_text(
            nu_alpha_detailed, *first_bad, SPEC
        )
    assert _error_text(nu_alpha_detailed, [1.0, 0.0], math.nan, SPEC) == (
        DomainError, "nu_alpha requires w > 0, got 0.0"
    )
    assert _error_text(nu_alpha_detailed, [1.0, 2.0], math.nan, SPEC) == (
        DomainError, "nu_alpha requires finite alpha, got nan"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_arguments_are_named_before_the_probe(bad):
    disc = StructureFn(HyperParams(2, 1, (1.5, 0.8), (2.0,)))
    # One text, whatever the shape of the argument.
    for sf in (PLAIN, disc):
        for arg in (bad, np.array([bad]), np.array([0.5, bad, 2.0])):
            with pytest.raises(DomainError) as exc:
                nu_general_detailed(sf, arg, SPEC)
            assert str(exc.value) == f"nu_general requires a finite argument, got {bad}"
    with pytest.raises(DomainError) as exc:
        nu_complex_grid(PLAIN, [1.0], [0.5, math.nan], SPEC)
    assert str(exc.value) == "nu_general requires a finite argument, got (nan+nanj)"
    # The series, the coherent kernels built on it and the planar check
    # name the argument too, where they used to sum 10 000 terms or return NaN.
    with pytest.raises(DomainError, match=r"^pfq_series requires a finite argument, got"):
        pfq_series(PLAIN.params, bad)
    with pytest.raises(DomainError, match=r"^pfq_series requires a finite argument, got"):
        cs_coefficient_discrete(PLAIN, bad, 1)
    with pytest.raises(DomainError, match=r"planar Gaussian check requires \|x\| <= 1"):
        check_complex_gaussian(bad, 0.5, SPEC)
    if not isinstance(bad, complex):
        with pytest.raises(DomainError, match=r"nu_general_log requires finite w > 0, got"):
            nu_general_log(PLAIN, bad, SPEC)
        with pytest.raises(DomainError, match=r"pfq_series_log requires finite w >= 0, got"):
            pfq_series_log(PLAIN.params, bad)
        with pytest.raises(DomainError):
            dc_limit_check(PLAIN, bad, SPEC)
        with pytest.raises(DomainError, match=r"squared modulus must be finite and >= 0"):
            poisson_density_discrete(bad, 1)
    if bad == math.inf:
        # A finite argument whose sum overflows is named with the sum's log;
        # one whose terms peak past the clamp is named before any term is
        # summed.  The coefficient, at most 1, is finite where its
        # normalizer overflows.
        with pytest.raises(NonFinite) as exc:
            pfq_series(PLAIN.params, 900.0)
        assert str(exc.value) == "series sum overflows at |w|=900: ln|sum| = 900"
        for w in (1e20, -1e20):
            with pytest.raises(NoConvergence) as exc:
                pfq_series(PLAIN.params, w)
            assert str(exc.value) == "series terms peak past the 1e6 clamp near n = 1e+20 at |w|=1e+20"
        assert 0.0 < abs(cs_coefficient_discrete(PLAIN, 30.0, 3)) < 1e-190


# name -> a call whose integrand, panel sums, total or closed-form argument
# overflows.  The overlap and the density are bounded, so they should return
# values one day.  4.19 names its inner overflow before integrating.
OVERFLOWING_CALLS = {
    "nu(720)": lambda: nu(720.0, SPEC),
    "nu(709.9)": lambda: nu(709.9, SPEC),
    "nu(713.5)": lambda: nu(713.5, SPEC),
    "nu_alpha(720, 0.5)": lambda: nu_alpha(720.0, 0.5, SPEC),
    "nu_alpha(711, 0.5)": lambda: nu_alpha(711.0, 0.5, SPEC),
    "overlap(27, 26.5)": lambda: overlap_continuous(PLAIN, 27.0, 26.5, SPEC),
    "overlap(26.67, 26.6)": lambda: overlap_continuous(PLAIN, 26.67, 26.6, SPEC),
    "density(800, 790)": lambda: transition_density(PLAIN, 800.0, 790.0, SPEC),
    "density(711, 700)": lambda: transition_density(PLAIN, 711.0, 700.0, SPEC),
    "cs_coefficient_continuous(27, 1)": lambda: cs_coefficient_continuous(PLAIN, 27.0, 1.0, SPEC),
    "cs_coefficient_continuous(26.67, 1)": lambda: cs_coefficient_continuous(
        PLAIN, 26.67, 1.0, SPEC
    ),
    "1.6 at z=800": lambda: check_derivative_relation(800.0, 1, SPEC),
    "4.19 at s=1.331": lambda: check_laplace_nu(1.331, SPEC),
    "4.19 at s=1.3": lambda: check_laplace_nu(1.3, SPEC),
    "4.19 at s=1.05": lambda: check_laplace_nu(1.05, SPEC),
    "exp_argument(27, 27)": lambda: exp_argument_matrix_elements(PLAIN, 27.0, 27.0, SPEC),
    "exp_argument(27, 26.9)": lambda: exp_argument_matrix_elements(PLAIN, 27.0, 26.9, SPEC),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_CALLS))
def test_overflow_raises_non_finite_without_a_warning(name):
    expected = DomainError if name.startswith("4.19") else NonFinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected) as exc:
            OVERFLOWING_CALLS[name]()
    if name.startswith("exp_argument"):
        assert str(exc.value) == "e^(|z|^2) overflows at label (27+0j): |z|^2 = 729"
    if name == "nu(713.5)":
        # Named at the first level, not after the whole panel budget.
        assert str(exc.value).startswith("panel sums are non-finite on [")
    if name == "nu(709.9)":
        # Every panel is finite; their sum is not.
        assert str(exc.value) == "the summed integral or its error estimate is non-finite"


def test_nu_on_circle_matches_pointwise():
    phases = np.array([0.0, 0.9, -0.9, 2.5, math.pi, 4.0])
    vals = nu_on_circle(0.8, phases, PLAIN, SPEC)
    for phi, v in zip(phases, vals):
        w = 0.8 * complex(math.cos(phi), math.sin(phi))
        assert v == pytest.approx(nu(w, SPEC), rel=1e-9, abs=1e-11)
    # Conjugate phases give conjugate values exactly.
    assert vals[2] == pytest.approx(vals[1].conjugate(), rel=1e-13)


def test_nu_complex_grid_matches_pointwise():
    moduli = np.array([0.0, 0.3, 0.9])
    phases = np.array([0.5, 2.0, 4.0])
    grid = nu_complex_grid(PLAIN, moduli, phases, SPEC)
    assert np.all(grid[0] == 0.0)
    for j, r in enumerate(moduli[1:], start=1):
        for k, phi in enumerate(phases):
            w = r * complex(math.cos(phi), math.sin(phi))
            assert grid[j, k] == pytest.approx(nu(w, SPEC), rel=1e-8, abs=1e-10)


def test_nu_complex_grid_validation():
    with pytest.raises(DomainError):
        nu_complex_grid(PLAIN, np.array([-0.1]), np.array([0.0]), SPEC)
    with pytest.raises(DomainError):
        nu_complex_grid(PLAIN, np.array([[0.5]]), np.array([0.0]), SPEC)


def test_detailed_result_error_accounting():
    res = nu_general_detailed(PLAIN, 1.0, SPEC)
    assert complex(res.value).real == pytest.approx(2.26653450769985, rel=1e-12)
    assert 0.0 <= res.error_estimate < 1e-9
    assert res.panel_count >= 1


def _count_fallbacks(monkeypatch):
    """Record the calls of the nu probe's fallback, `locate_peak`."""
    calls = []

    def counted(*args):
        calls.append(args)
        return locate_peak(*args)

    monkeypatch.setattr(NU_MODULE, "locate_peak", counted)
    return calls


def _count_log_rho(monkeypatch):
    """Record the arguments of every `StructureFn.log_rho_scalar` call."""
    scalar = StructureFn.log_rho_scalar
    calls = []

    def counted(sf, E):
        calls.append(E)
        return scalar(sf, E)

    monkeypatch.setattr(StructureFn, "log_rho_scalar", counted)
    return calls


# (family, largest ln|w|, whether the probe falls back: never or sometimes).
# g is convex near E = 0 for (1,1; 0.01; 1), and everywhere for the
# unit-disc (2,1) family, whose truncation point is solved from the left.
PROBE_FAMILIES = [
    (HyperParams(0, 0), math.log(600.0), False),
    (HyperParams(1, 1, (1.5,), (2.0,)), math.log(600.0), False),
    (HyperParams(1, 2, (1.5,), (2.0, 0.7)), math.log(600.0), False),
    (HyperParams(2, 1, (1.5, 0.8), (2.0,)), math.log(0.9), False),
    (HyperParams(1, 1, (0.01,), (1.0,)), math.log(600.0), True),
]


@pytest.mark.parametrize(
    "params, top, falls_back", PROBE_FAMILIES, ids=["plain", "11", "12", "21", "convex_near_0"]
)
def test_nu_probe_invariant_and_agreement_with_locate_peak(params, top, falls_back, monkeypatch):
    sf = StructureFn(params)
    fallbacks = _count_fallbacks(monkeypatch)
    for log_r in np.linspace(math.log(1e-3), top, 25):
        log_r = float(log_r)

        def g(E, log_r=log_r):
            E = max(E, 0.0)
            return E * log_r - sf.log_rho_scalar(E)

        before = len(fallbacks)
        probe = NU_MODULE._nu_probe(sf, log_r)
        peak, T, g_peak = probe.peak_location, probe.truncation_point, probe.peak_log_value
        assert g(T) <= g_peak - 100.0 * math.log(10.0)
        # Newton's peak is a root of g'; the fallback's is good to ~1e-5 in E
        # and puts an edge peak's value at g(1e-12).
        slack = 1e-9 if len(fallbacks) > before else 1e-12
        sampled = max(g(E) for E in np.linspace(0.0, T, 200))
        assert sampled <= g_peak + slack * max(abs(g_peak), 1.0)
        hint = NU_MODULE._peak_hint(log_r / max(1 + params.q - params.p, 1))
        ref = locate_peak(g, hint)
        assert abs(peak - ref.peak_location) <= max(1e-4 * ref.peak_location, 1e-6)
        assert T == pytest.approx(ref.truncation_point, rel=1e-2)
    if falls_back is not None:
        assert bool(fallbacks) == falls_back


def test_nu_probe_gives_up_early_on_a_convex_tail(monkeypatch):
    # g is concave at 0 but convex for large E, so from the right Newton's
    # truncation steps overshoot the root; the probe must notice at once.
    sf = StructureFn(HyperParams(2, 1, (1.4, 1.4), (2.0,)))
    calls, at_fallback = _count_log_rho(monkeypatch), []

    def fallback(*args):
        at_fallback.append(len(calls))
        return locate_peak(*args)

    monkeypatch.setattr(NU_MODULE, "locate_peak", fallback)
    probe = NU_MODULE._nu_probe(sf, math.log(0.5))
    assert at_fallback and at_fallback[0] <= 4
    assert probe.peak_location == 0.0


def test_nu_probe_needs_no_generic_search(monkeypatch):
    # A machine-independent guard on the probe's cost: the generic search
    # made 45-48 log-rho evaluations for each of these.
    fallbacks = _count_fallbacks(monkeypatch)
    calls = _count_log_rho(monkeypatch)
    for w in (1.0, 30.0, 2.0 + 3.0j):
        calls.clear()
        nu(w, SPEC)
        assert not fallbacks and len(calls) <= 10


@pytest.mark.parametrize(
    "alpha", [-3.7, -2.9, -2.0, -1.5, -1.0, -0.6, -0.5, -0.2, 0.0, 0.3, 1.8, 5.0, 10.0]
)
def test_nu_alpha_takes_the_nu_probe(alpha, monkeypatch):
    # Right of max(0, -alpha - 1/2) the nu_alpha log-modulus is a shifted
    # (1,1; 1; b) family's, so the Newton probe serves it; the generic search
    # made 45-57 evaluations per call.
    fallbacks = _count_fallbacks(monkeypatch)
    calls = _count_log_rho(monkeypatch)
    probes = []
    engine = NU_MODULE.integrate_vector_semi_infinite

    def captured(f, probe, *args, **kwargs):
        probes.append(probe)
        return engine(f, probe, *args, **kwargs)

    monkeypatch.setattr(NU_MODULE, "integrate_vector_semi_infinite", captured)
    for w in (0.01, 0.5, 2.0, 20.0, 300.0):
        probes.clear()
        calls.clear()
        nu_alpha_detailed(w, alpha, SPEC)
        assert not fallbacks and len(calls) <= 10
        T, peak = probes[0].truncation_point, probes[0].peak_log_value
        log_abs, _ = reciprocal_gamma_log_signed(np.array([alpha + T + 1.0]))
        assert (alpha + T) * math.log(w) + log_abs[0] <= peak - 100.0 * math.log(10.0)


def test_nu_probe_solves_a_convex_falling_log_integrand_from_the_left(monkeypatch):
    # For (2,1) and |w| < 1, g is convex and falls from its peak at E = 0; the
    # generic search made 52-67 log-rho evaluations here.
    sf = StructureFn(HyperParams(2, 1, (1.5, 0.8), (2.0,)))
    fallbacks = _count_fallbacks(monkeypatch)
    calls = _count_log_rho(monkeypatch)
    for w in (0.05, 0.3, 0.55, 0.9):
        log_r = math.log(w)
        calls.clear()
        probe = NU_MODULE._nu_probe(sf, log_r)
        evaluated = list(calls)
        assert not fallbacks and len(evaluated) <= 10
        T = probe.truncation_point
        assert probe.peak_location == 0.0 and probe.peak_log_value == -sf.log_rho_scalar(0.0)
        # The returned T was evaluated, and there it sits below the target.
        assert T in evaluated
        assert T * log_r - sf.log_rho_scalar(T) <= probe.peak_log_value - 100.0 * math.log(10.0)
        grid = np.linspace(0.0, T, 200)
        assert np.all(grid * log_r - sf.log_rho_continuous(grid) <= probe.peak_log_value + 1e-12)

        def g(E):
            E = max(E, 0.0)
            return E * log_r - sf.log_rho_scalar(E)

        assert T == pytest.approx(locate_peak(g, 0.5).truncation_point, rel=1e-2)


# ---------------------------------------------------------------------------
# Committed reference table (50-digit values; no mpmath at test time)
# ---------------------------------------------------------------------------

REFERENCE = json.loads((pathlib.Path(__file__).parent / "data" / "nu_reference.json").read_text())
REFERENCE_ROWS = REFERENCE["rows"]


def _reference_call(row):
    """The evaluator's IntegrationResult and the reference value of one row."""
    w = complex(*row["w"])
    if row["family"] == "alpha":
        res = nu_alpha_detailed(w.real, row["alpha"], SPEC)
    else:
        a, b = row["a"], row["b"]
        sf = StructureFn(HyperParams(len(a), len(b), a, b))
        res = nu_general_detailed(sf, w, SPEC)
    return res, complex(*map(float, row["value"]))


@pytest.mark.parametrize(
    "row", REFERENCE_ROWS, ids=lambda r: f"{r['family']}-{r['alpha']}-{complex(*r['w'])}"
)
def test_reference_table_row_meets_its_bound(row):
    res, ref = _reference_call(row)
    assert abs(complex(res.value) - ref) <= row["rel_bound"] * abs(ref)


@pytest.mark.parametrize(
    "row", REFERENCE["log_rows"], ids=lambda r: f"{r['family']}-{r['a']}-{r['b']}-{r['w']}"
)
def test_reference_table_log_row_meets_its_bound(row):
    a, b = row["a"], row["b"]
    sf = StructureFn(HyperParams(len(a), len(b), a, b))
    got = nu_general_log(sf, row["w"], SPEC)
    assert abs(got - float(row["log_value"])) <= row["abs_bound"]


def test_reference_table_est_err_bounds_the_error_on_13_rows():
    # The 15-point whole-vs-halves test covered 12 of the 18 rows.  The rows
    # left out miss by the integrand's own rounding, which est_err does not
    # count yet.
    covered = 0
    for row in REFERENCE_ROWS:
        res, ref = _reference_call(row)
        covered += abs(complex(res.value) - ref) <= res.error_estimate
    assert covered >= 13
