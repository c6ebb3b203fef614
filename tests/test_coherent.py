"""Tests for coherent-state coefficients, overlaps, and transition densities."""

import cmath
import importlib
import math

import numpy as np
import pytest

from nufunc import (
    DomainError,
    HyperParams,
    NonDecaying,
    QuadSpec,
    StructureFn,
    cs_coefficient_continuous,
    cs_coefficient_discrete,
    dc_limit_check,
    integrate_semi_infinite_detailed,
    kp_coefficient,
    locate_peak,
    nu_general_detailed,
    nu_general_log,
    overlap_continuous,
    poisson_density_discrete,
    rho_discrete,
    transition_density,
)
from nufunc.coherent import _overlap_detailed

SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
CONFLUENT = StructureFn(HyperParams(1, 1, a=(1.0,), b=(2.0,)))
F11 = StructureFn(HyperParams(1, 1, a=(1.5,), b=(2.0,)))


# ---------------------------------------------------------------------------
# discrete coefficients
# ---------------------------------------------------------------------------


def test_discrete_coefficients_normalize():
    # sum over n of |c_n|^2 telescopes to 1 by construction of the normalizer
    for sf in (PLAIN, CONFLUENT):
        z = 0.6 + 0.3j
        total = sum(abs(cs_coefficient_discrete(sf, z, n)) ** 2 for n in range(120))
        assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_discrete_coefficient_phase():
    z = 0.5 * cmath.exp(1j * 0.7)
    c3 = cs_coefficient_discrete(PLAIN, z, 3)
    # phase of c_n is n times the phase of z
    assert math.isclose(cmath.phase(c3), 3 * 0.7, rel_tol=1e-12)


def test_discrete_coefficient_plain_matches_poisson_amplitude():
    # for the plain family, |c_n|^2 is the Poisson(|z|^2) mass at n
    # (30, 3) and (26.7, 700): the series normalizer passes the largest double.
    for z, n in [(0.9 - 0.4j, 0), (0.9 - 0.4j, 1), (0.9 - 0.4j, 4), (30.0, 3), (26.7, 700)]:
        c = cs_coefficient_discrete(PLAIN, z, n)
        assert math.isclose(abs(c) ** 2, poisson_density_discrete(abs(z) ** 2, n), rel_tol=1e-12)


def test_discrete_coefficient_rejects_negative_index():
    with pytest.raises(DomainError):
        cs_coefficient_discrete(PLAIN, 0.5, -1)
    # A non-integral index is named, not truncated to the integer below it.
    for n in (2.5, math.nan, math.inf):
        for coefficient in (cs_coefficient_discrete, kp_coefficient):
            with pytest.raises(DomainError, match="^basis index must be an integer"):
                coefficient(PLAIN, 0.5, n)
        with pytest.raises(DomainError, match="^index n must be an integer"):
            rho_discrete(PLAIN, n)
    assert cs_coefficient_discrete(PLAIN, 0.5, 2.0) == cs_coefficient_discrete(PLAIN, 0.5, 2)


def test_discrete_coefficients_past_the_float_range_of_z_to_the_n():
    # z^n and n! overflow, c_n does not: 0.14121954115855585 from 40-digit
    # mpmath, and about 2.7e-2267 at (2, 2000), which underflows to 0.
    for coefficient in (cs_coefficient_discrete, kp_coefficient):
        assert abs(coefficient(PLAIN, 20.0, 400) - 0.14121954115855585) < 1e-12
        assert coefficient(PLAIN, 2.0, 2000) == 0.0
    # At z = 0 the state is the ground state.
    assert cs_coefficient_discrete(CONFLUENT, 0.0, 0) == 1.0
    assert cs_coefficient_discrete(CONFLUENT, 0.0, 3) == 0.0


# (p, q) of a family whose series diverges everywhere, and of one that
# converges only for |z|^2 < 1; kp_coefficient swaps the roles of a and b.
_SERIES_DOMAIN_CASES = {
    "cs": (cs_coefficient_discrete, HyperParams(2, 0, a=(1.0, 1.5)), HyperParams(1, 0, a=(1.5,))),
    "kp": (kp_coefficient, HyperParams(0, 2, b=(1.0, 1.5)), HyperParams(0, 1, b=(1.5,))),
}


@pytest.mark.parametrize("name", list(_SERIES_DOMAIN_CASES))
def test_discrete_coefficients_reject_arguments_outside_the_series_domain(name):
    coefficient, divergent, disc = _SERIES_DOMAIN_CASES[name]
    with pytest.raises(DomainError):
        coefficient(StructureFn(divergent), 0.3, 2)
    for z in (1.0, -1.0j, 0.8 + 0.7j):
        with pytest.raises(DomainError):
            coefficient(StructureFn(disc), z, 2)
    # Inside the unit disc: the series normalizer (1 - |z|^2)^-1.5.
    z = 0.6 + 0.3j
    c0 = coefficient(StructureFn(disc), z, 0)
    assert math.isclose(abs(c0) ** 2, (1.0 - abs(z) ** 2) ** 1.5, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# continuous coefficients and densities
# ---------------------------------------------------------------------------


def test_continuous_density_integrates_to_one():
    for sf, z in ((PLAIN, 0.8 + 0.1j), (CONFLUENT, 0.5 - 0.5j)):
        u = abs(z) ** 2

        def dens(E, sf=sf):
            return transition_density(sf, u, E, SPEC)

        log_u = math.log(u)

        def log_dens(E, sf=sf):
            return math.log(max(transition_density(sf, u, float(E), SPEC), 1e-300))

        probe = locate_peak(log_dens, max(u, 0.5))
        total = integrate_semi_infinite_detailed(dens, probe, SPEC).value
        assert math.isclose(abs(total), 1.0, rel_tol=1e-7)


def test_continuous_coefficient_squared_is_density():
    z = 0.7 + 0.2j
    u = abs(z) ** 2
    for E in (0.3, 1.0, 2.5):
        c = cs_coefficient_continuous(PLAIN, z, E, spec=SPEC)
        d = transition_density(PLAIN, u, E, SPEC)
        assert math.isclose(abs(c) ** 2, d, rel_tol=1e-10)


def test_continuous_coefficient_rejects_bad_exponent():
    with pytest.raises(DomainError):
        cs_coefficient_continuous(PLAIN, 0.5, -0.5, spec=SPEC)


def test_transition_density_array_equals_scalar_calls():
    E = np.array([0.0, 0.3, 1.0, 2.5, 7.25, 40.0])
    for sf, u in ((PLAIN, 0.65), (CONFLUENT, 3.0)):
        batch = transition_density(sf, u, E, SPEC)
        assert batch.shape == E.shape
        scalar = [transition_density(sf, u, float(e), SPEC) for e in E]
        assert batch.tolist() == scalar
    with pytest.raises(DomainError):
        transition_density(PLAIN, 1.0, np.array([0.5, -1.0]), SPEC)


def test_transition_density_rejects_nonpositive_intensity():
    with pytest.raises(DomainError):
        transition_density(PLAIN, 0.0, 1.0, SPEC)
    with pytest.raises(DomainError):
        transition_density(PLAIN, -1.0, 1.0, SPEC)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


def test_overlap_self_is_exactly_one():
    z = 0.4 + 0.9j
    assert overlap_continuous(PLAIN, z, z, SPEC) == 1.0 + 0.0j


def test_overlap_is_hermitian():
    # Bit for bit: swapping the labels conjugates every normalizer exponent
    # and permutes the two real ones on the same panel tree.
    rng = np.random.default_rng(11)
    pairs = [(0.5 + 0.3j, 0.8 - 0.2j)]
    pairs += [tuple(complex(*rng.uniform(-2.5, 2.5, 2)) for _ in range(2)) for _ in range(12)]
    for sf in (PLAIN, CONFLUENT):
        for z1, z2 in pairs:
            o12 = overlap_continuous(sf, z1, z2, SPEC)
            assert o12 == overlap_continuous(sf, z2, z1, SPEC).conjugate()


def test_overlap_bounded_by_one():
    # Cauchy-Schwarz: |<z1|z2>| <= 1 for normalized states
    rng = np.random.default_rng(7)
    for _ in range(5):
        z1 = complex(rng.uniform(0.1, 1.2), rng.uniform(-1.0, 1.0))
        z2 = complex(rng.uniform(0.1, 1.2), rng.uniform(-1.0, 1.0))
        val = overlap_continuous(CONFLUENT, z1, z2, SPEC)
        assert abs(val) <= 1.0 + 1e-10


def test_overlap_of_large_labels_does_not_overflow():
    # |z|^2 + |z'|^2 > 709.8: the normalizers' product overflows a double,
    # while for the plain family |<z|z'>| ~ exp(-|z - z'|^2 / 2).
    near = overlap_continuous(PLAIN, 19.0, 18.9, SPEC)
    assert near == pytest.approx(0.99501247919, rel=1e-9)
    off = overlap_continuous(PLAIN, 20.0, 19.0 + 1.0j, SPEC)
    assert abs(off) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_overlap_rejects_zero_label():
    with pytest.raises(DomainError):
        overlap_continuous(PLAIN, 0.0, 0.5, SPEC)


def _three_tree_overlap(sf, z, z2):
    """The overlap and its error estimate from three separate nu calls."""
    num = nu_general_detailed(sf, z.conjugate() * z2, SPEC)
    den1 = nu_general_detailed(sf, abs(z) ** 2, SPEC)
    den2 = nu_general_detailed(sf, abs(z2) ** 2, SPEC)
    n1, n2 = den1.value.real, den2.value.real
    value = num.value / (math.sqrt(n1) * math.sqrt(n2))
    est = num.error_estimate / (math.sqrt(n1) * math.sqrt(n2)) + abs(value) * 0.5 * (
        den1.error_estimate / n1 + den2.error_estimate / n2
    )
    return value, est


@pytest.mark.parametrize(
    "sf, z, z2",
    [
        (PLAIN, 1.0 + 0.0j, -0.8 + 0.0j),  # conj(z)*z2 on the negative real axis
        (PLAIN, 0.7j, 0.4 + 0.0j),  # purely imaginary label
        (PLAIN, 19.0 + 0.0j, 18.9 + 0.0j),
        (PLAIN, 20.0 + 0.0j, 19.0 + 1.0j),
        (F11, 1.1 + 0.4j, -0.6 + 0.9j),
        (F11, 2.0 + 0.0j, 0.3 - 1.2j),
    ],
)
def test_one_tree_overlap_matches_three_separate_normalizers(sf, z, z2):
    value, est = _overlap_detailed(sf, z, z2, SPEC)
    ref, ref_est = _three_tree_overlap(sf, z, z2)
    assert abs(value - ref) <= 10.0 * (est + ref_est)
    assert overlap_continuous(sf, z, z2, SPEC) == value


def _first_error_text(calls):
    for call in calls:
        try:
            call()
        except DomainError as exc:
            return str(exc)
    raise AssertionError("no call raised")


@pytest.mark.parametrize("z, z2", [(0.8, 1.3j), (1.2, 0.5), (0.5, -1.2j), (0.5j, 1.5)])
def test_overlap_unit_disc_error_names_the_first_bad_normalizer(z, z2):
    # The message is the one the first of nu(conj(z)*z2), nu(|z|^2),
    # nu(|z2|^2) to leave the unit disc raises on its own.
    disc = StructureFn(HyperParams(2, 1, a=(1.5, 0.8), b=(2.0,)))
    z, z2 = complex(z), complex(z2)
    expect = _first_error_text(
        [lambda w=w: nu_general_detailed(disc, w, SPEC)
         for w in (z.conjugate() * z2, abs(z) ** 2, abs(z2) ** 2)]
    )
    assert "|w| < 1; got |w| = " in expect
    with pytest.raises(DomainError) as exc:
        overlap_continuous(disc, z, z2, SPEC)
    assert str(exc.value) == expect


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_overlap_rejects_non_finite_labels(bad):
    for z, z2 in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(DomainError, match="^nu_general requires a finite argument, got"):
            overlap_continuous(PLAIN, z, z2, SPEC)


# ---------------------------------------------------------------------------
# reversed-family coefficients
# ---------------------------------------------------------------------------


def test_kp_coefficient_swaps_parameter_roles():
    sf = StructureFn(HyperParams(1, 1, a=(1.5,), b=(2.5,)))
    swapped = StructureFn(HyperParams(1, 1, a=(2.5,), b=(1.5,)))
    z = 0.4 + 0.1j
    for n in (0, 2, 5):
        assert kp_coefficient(sf, z, n) == cs_coefficient_discrete(swapped, z, n)


# ---------------------------------------------------------------------------
# Poisson reference weights
# ---------------------------------------------------------------------------


def test_poisson_density_values_and_sum():
    u = 3.0
    # direct formula check at a few n
    for n in (0, 1, 5):
        expect = math.exp(-u) * u**n / math.factorial(n)
        assert math.isclose(poisson_density_discrete(u, n), expect, rel_tol=1e-14)
    total = sum(poisson_density_discrete(u, n) for n in range(80))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_poisson_density_rejects_bad_input():
    with pytest.raises(DomainError):
        poisson_density_discrete(-1.0, 2)
    with pytest.raises(DomainError):
        poisson_density_discrete(2.0, -1)
    for n in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="^count must be an integer"):
            poisson_density_discrete(1.0, n)
    assert poisson_density_discrete(1.0, 2.0) == poisson_density_discrete(1.0, 2)


# ---------------------------------------------------------------------------
# series-vs-integral normalizer comparison
# ---------------------------------------------------------------------------


def test_dc_limit_fields_and_small_argument():
    out = dc_limit_check(PLAIN, 0.5, SPEC)
    assert set(out) == {"w", "series", "integral", "series_log", "integral_log", "ratio"}
    assert out["w"] == 0.5
    assert out["series"] > 0.0 and out["integral"] > 0.0
    # at small argument the discrete sum dominates the continuous integral,
    # so the ratio is far from 1
    assert out["ratio"] < 0.9


def test_dc_limit_ratio_tends_to_one():
    out = dc_limit_check(PLAIN, 100.0, SPEC)
    assert abs(out["ratio"] - 1.0) <= 1e-3
    # log fields agree with the linear ones where both are representable
    assert math.isclose(math.exp(out["series_log"] - out["integral_log"]),
                        out["ratio"], rel_tol=1e-12)


def test_dc_limit_large_argument_uses_log_fields():
    out = dc_limit_check(PLAIN, 800.0, SPEC)
    # both normalizers overflow linear doubles here; the log fields carry them
    assert math.isinf(out["series"]) and math.isinf(out["integral"])
    assert math.isclose(out["series_log"], 800.0, rel_tol=1e-12)
    assert abs(out["ratio"] - 1.0) <= 1e-6
    # e^709.5 = 1.35e308 still fits a double, so both linear fields are finite.
    out = dc_limit_check(PLAIN, 709.5, SPEC)
    for key in ("series", "integral"):
        assert math.isclose(out[key], math.exp(709.5), rel_tol=1e-12)
        assert out[key] == math.exp(out[key + "_log"])


def test_log_normalizers_have_stated_argument_limits():
    # The integral's peak sits near E = w, so past the 1e6 truncation clamp
    # nu_general_log raises.  The series peaks near n = w, and its term cap
    # grows with that peak, so the comparison holds past 10 000 terms.
    assert math.isclose(nu_general_log(PLAIN, 9.5e5, SPEC), 9.5e5, rel_tol=1e-12)
    with pytest.raises(NonDecaying):
        nu_general_log(PLAIN, 1e6, SPEC)
    for w in (1e4, 1e5):
        out = dc_limit_check(PLAIN, w, SPEC)
        assert math.isclose(out["series_log"], w, rel_tol=1e-12)
        assert abs(out["ratio"] - 1.0) <= 1e-6


def test_dc_limit_evaluates_the_integral_before_the_series(monkeypatch):
    # Past the integral's limit the check raises at once, without summing
    # the series' million terms.
    coherent = importlib.import_module("nufunc.coherent")

    def series_log(*args):
        raise AssertionError("pfq_series_log was called")

    monkeypatch.setattr(coherent, "pfq_series_log", series_log)
    with pytest.raises(NonDecaying):
        dc_limit_check(PLAIN, 9.9e5, SPEC)


def test_dc_limit_rejects_non_entire_family():
    unit_disc = StructureFn(HyperParams(1, 0, a=(2.0,)))
    with pytest.raises(DomainError):
        dc_limit_check(unit_disc, 0.5, SPEC)


def test_dc_limit_zero_argument():
    out = dc_limit_check(PLAIN, 0.0, SPEC)
    assert out["series"] == 1.0
    assert out["ratio"] == 0.0
