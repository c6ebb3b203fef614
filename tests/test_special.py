"""Unit tests for the scalar special-function kernel."""

import math

import numpy as np
import pytest
from scipy import special as sp

from nufunc.errors import DomainError
from nufunc.special import (
    LogSigned,
    complex_pow,
    digamma,
    digamma_inverse,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
    reciprocal_gamma_log_signed,
)


def test_log_gamma_reference_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(4.0) == pytest.approx(math.log(6.0), rel=1e-14)
    # Fixed ratio frozen from 50-digit arithmetic.
    assert math.exp(log_gamma(4.0) - log_gamma(2.5)) == pytest.approx(
        4.5135166683820502, rel=1e-13
    )


def test_log_gamma_matches_reference_library_on_grid():
    x = np.concatenate(
        [np.linspace(0.05, 2.0, 40), np.linspace(2.0, 50.0, 49), [1e3, 1e6]]
    )
    assert np.allclose(log_gamma(x), sp.gammaln(x), rtol=1e-12, atol=1e-12)


def test_log_gamma_mixed_branches_match_each_part_alone():
    # Nodes below and above 1 take different Horner branches; a mixed array
    # must give, bit for bit, what each part gives alone.
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.uniform(1e-8, 1.0, 500), rng.uniform(1.0, 1e6, 500), [1.0, np.nextafter(1.0, 0.0)]]
    )
    rng.shuffle(x)
    small = x < 1.0
    mixed = log_gamma(x)
    assert mixed[small].tobytes() == log_gamma(x[small]).tobytes()
    assert mixed[~small].tobytes() == log_gamma(x[~small]).tobytes()


def test_log_gamma_rejects_nonpositive_and_nonfinite():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        log_gamma(float("nan"))


def test_digamma_reference_points():
    euler_gamma = 0.5772156649015329
    assert digamma(1.0) == pytest.approx(-euler_gamma, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-1.963510026021424, rel=1e-13)
    x = np.linspace(0.1, 40.0, 80)
    assert np.allclose(digamma(x), sp.digamma(x), rtol=1e-11, atol=1e-12)


def test_digamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(np.array([2.0, -0.5]))


def test_digamma_inverse_roundtrip():
    for t in np.linspace(-3.0, 6.0, 19):
        y = digamma_inverse(t)
        assert digamma(y) == pytest.approx(t, abs=1e-7)


def test_reciprocal_gamma_zeros_at_nonpositive_integers():
    for n in (0.0, -1.0, -2.0, -7.0, -30.0):
        assert reciprocal_gamma(n) == 0.0


def test_reciprocal_gamma_negative_axis_values():
    # 1/Gamma(-0.5) = -1/(2 sqrt(pi))
    assert reciprocal_gamma(-0.5) == pytest.approx(
        -1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
    )
    x = np.linspace(-7.9, 7.9, 159)
    assert np.allclose(reciprocal_gamma(x), sp.rgamma(x), rtol=1e-11, atol=1e-12)


def test_reciprocal_gamma_log_signed_consistency():
    x = np.linspace(-6.3, 6.3, 127)
    log_abs, sign = reciprocal_gamma_log_signed(x)
    recon = np.where(sign == 0.0, 0.0, sign * np.exp(log_abs))
    assert np.allclose(recon, reciprocal_gamma(x), rtol=1e-12, atol=1e-300)
    # Sign alternates between consecutive negative-integer poles.
    la, s = reciprocal_gamma_log_signed(np.array([-0.5, -1.5, -2.5, -3.5]))
    assert list(s) == [-1.0, 1.0, -1.0, 1.0]
    la0, s0 = reciprocal_gamma_log_signed(np.array([-3.0]))
    assert s0[0] == 0.0 and la0[0] == -math.inf


def test_pochhammer_values_and_domain():
    assert pochhammer(2.0, 3.0).value() == pytest.approx(24.0, rel=1e-13)
    assert pochhammer(0.5, 1.5).value() == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-13
    )
    assert pochhammer(3.0, 0.0).value() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        pochhammer(-1.0, 2.0)
    with pytest.raises(DomainError):
        pochhammer(1.0, -0.5)


def test_complex_pow_principal_branch():
    assert complex_pow(2.0, 3.0) == pytest.approx(8.0 + 0j, rel=1e-14)
    assert complex_pow(-1.0, 0.5) == pytest.approx(1j, rel=1e-14)
    assert complex_pow(-2.0, 0.5) == pytest.approx(1j * math.sqrt(2.0), rel=1e-14)
    w = 0.7 + 0.4j
    assert complex_pow(w.conjugate(), 1.7) == pytest.approx(
        complex_pow(w, 1.7).conjugate(), rel=1e-14
    )
    assert complex_pow(0.0, 1.5) == 0j
    with pytest.raises(DomainError):
        complex_pow(0.0, -1.0)


def test_log_signed_roundtrip():
    # Round-tripping through log space costs ~|log| * eps in relative terms.
    for v in (3.5, -0.25, 1e-200, -1e200):
        ls = LogSigned.from_value(v)
        assert ls.value() == pytest.approx(v, rel=1e-13)
    z = LogSigned.from_value(0.0)
    assert z.sign == 0.0 and z.log_abs == -math.inf and z.value() == 0.0
