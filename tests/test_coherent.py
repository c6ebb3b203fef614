"""Tests for coherent-state coefficients, overlaps, and transition densities."""

import cmath
import math

import numpy as np
import pytest

from nufunc import (
    DomainError,
    HyperParams,
    QuadSpec,
    StructureFn,
    cs_coefficient_continuous,
    cs_coefficient_discrete,
    dc_limit_check,
    integrate_semi_infinite,
    kp_coefficient,
    locate_peak,
    overlap_continuous,
    poisson_density_discrete,
    transition_density,
)

SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
CONFLUENT = StructureFn(HyperParams(1, 1, a=(1.0,), b=(2.0,)))


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
    z = 0.9 - 0.4j
    u = abs(z) ** 2
    for n in (0, 1, 4):
        c = cs_coefficient_discrete(PLAIN, z, n)
        assert math.isclose(abs(c) ** 2, poisson_density_discrete(u, n), rel_tol=1e-12)


def test_discrete_coefficient_rejects_negative_index():
    with pytest.raises(DomainError):
        cs_coefficient_discrete(PLAIN, 0.5, -1)


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
        total = integrate_semi_infinite(dens, probe, SPEC)
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
    z1 = 0.5 + 0.3j
    z2 = 0.8 - 0.2j
    o12 = overlap_continuous(PLAIN, z1, z2, SPEC)
    o21 = overlap_continuous(PLAIN, z2, z1, SPEC)
    assert abs(o12 - o21.conjugate()) <= 1e-12 * abs(o12)


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


def test_dc_limit_rejects_non_entire_family():
    unit_disc = StructureFn(HyperParams(1, 0, a=(2.0,)))
    with pytest.raises(DomainError):
        dc_limit_check(unit_disc, 0.5, SPEC)


def test_dc_limit_zero_argument():
    out = dc_limit_check(PLAIN, 0.0, SPEC)
    assert out["series"] == 1.0
    assert out["ratio"] == 0.0
