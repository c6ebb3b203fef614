"""Unit tests for the scalar special-function kernel."""

import math

import numpy as np
import pytest
from scipy import special as sp

from nufunc.errors import DomainError, NonFinite
from nufunc.special import (
    _polygamma_scalar,
    complex_pow,
    digamma_inverse,
    log_gamma,
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
    # A stack of rows, as ln rho makes, gives the same bits.
    assert log_gamma(x.reshape(2, -1)).tobytes() == mixed.tobytes()


def test_log_gamma_rejects_nonpositive_and_nonfinite():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        log_gamma(float("nan"))
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        arr = np.array([3.0, bad, 0.5])
        with pytest.raises(DomainError, match=r"^log_gamma requires x > 0, got array\("):
            log_gamma(arr)
    assert log_gamma(np.array([])).tolist() == []
    # The largest accepted argument, just below the overflow of ln Gamma.
    assert log_gamma(2.5e305) == log_gamma(np.array([2.5e305]))[0] < math.inf


def _digamma(x):
    return _polygamma_scalar(x)[0]


def test_digamma_reference_points():
    euler_gamma = 0.5772156649015329
    assert _digamma(1.0) == pytest.approx(-euler_gamma, abs=1e-13)
    assert _digamma(0.5) == pytest.approx(-1.963510026021424, rel=1e-13)
    x = np.linspace(0.1, 40.0, 80)
    psi = np.array([_digamma(v) for v in x.tolist()])
    assert np.allclose(psi, sp.digamma(x), rtol=1e-11, atol=1e-12)


def test_digamma_rejects_nonpositive():
    for x in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^polygamma requires x > 0"):
            _polygamma_scalar(x)


def test_digamma_inverse_roundtrip():
    for t in np.linspace(-20.0, 20.0, 81):
        y = digamma_inverse(t)
        assert _digamma(y) == pytest.approx(t, abs=1e-12)
    # The ends of the accepted range: the largest float and 1e-150.
    largest = np.finfo(float).max
    assert digamma_inverse(math.log(largest)) == pytest.approx(largest, rel=1e-13)
    assert digamma_inverse(-1e150) == pytest.approx(1e-150, rel=1e-15)


def test_trigamma_matches_reference_library_on_log_grid():
    for x in np.geomspace(1e-3, 1e6, 181):
        assert _polygamma_scalar(float(x))[1] == pytest.approx(sp.polygamma(1, x), rel=1e-12)


def test_trigamma_rejects_nonpositive_and_nonfinite():
    for x in (0.0, -0.5, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^polygamma requires x > 0"):
            _polygamma_scalar(x)


def _reciprocal_gamma(x):
    """1/Gamma(x) rebuilt from its log-modulus and sign."""
    log_abs, sign = reciprocal_gamma_log_signed(x)
    return np.where(sign == 0.0, 0.0, sign * np.exp(log_abs))


def test_reciprocal_gamma_zeros_at_nonpositive_integers():
    for n in (0.0, -1.0, -2.0, -7.0, -30.0):
        assert sp.rgamma(n) == 0.0
        assert reciprocal_gamma_log_signed(n) == (-math.inf, 0.0)


def test_reciprocal_gamma_negative_axis_values():
    # 1/Gamma(-0.5) = -1/(2 sqrt(pi))
    assert _reciprocal_gamma(-0.5) == pytest.approx(
        -1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
    )
    x = np.linspace(-7.9, 7.9, 159)
    assert np.allclose(_reciprocal_gamma(x), sp.rgamma(x), rtol=1e-11, atol=1e-12)


def test_reciprocal_gamma_log_signed_consistency():
    x = np.linspace(-6.3, 6.3, 127)
    assert np.allclose(_reciprocal_gamma(x), sp.rgamma(x), rtol=1e-12, atol=1e-300)
    # Sign alternates between consecutive negative-integer poles.
    la, s = reciprocal_gamma_log_signed(np.array([-0.5, -1.5, -2.5, -3.5]))
    assert list(s) == [-1.0, 1.0, -1.0, 1.0]
    la0, s0 = reciprocal_gamma_log_signed(np.array([-3.0]))
    assert s0[0] == 0.0 and la0[0] == -math.inf
    # Every float below -2**53 is an integer, a zero of 1/Gamma.
    la, s = reciprocal_gamma_log_signed(np.array([-1e308, -2.0**53]))
    assert la.tolist() == [-math.inf, -math.inf] and s.tolist() == [0.0, 0.0]


def test_reciprocal_gamma_log_signed_underflows_above_the_log_gamma_cap():
    # Past 2.5e305, 1/Gamma underflows to +0: log magnitude -inf, sign +1.
    la, s = reciprocal_gamma_log_signed(np.array([1e308, 2.5e305, 3e305, -1e308, -2.5]))
    assert la[[0, 2, 3]].tolist() == [-math.inf] * 3 and s.tolist() == [1.0, 1.0, 1.0, 0.0, -1.0]
    assert la[1] == -log_gamma(2.5e305) and la[4] == reciprocal_gamma_log_signed(-2.5)[0]
    assert reciprocal_gamma_log_signed(1e308) == (-math.inf, 1.0)


def test_reciprocal_gamma_log_signed_scalar_branch_matches_array():
    # Scalars take their own branch; it returns floats equal bit for bit to
    # the array path, on both sides of zero and at the zeros of 1/Gamma.
    # The C library's log and numpy's differ in the last bit on about 0.1% of
    # arguments, so a few thousand points are needed to tell them apart.
    rng = np.random.default_rng(11)
    x = np.concatenate(
        [
            rng.uniform(1e-6, 250.0, 4000),
            rng.uniform(-40.0, 0.0, 4000),
            -np.arange(1.0, 41.0),
            [0.0, 1.0, 2.0, 0.5, -0.5, 1e-300],
        ]
    )
    log_abs, sign = reciprocal_gamma_log_signed(x)
    for i, xi in enumerate(x.tolist()):
        la, s = reciprocal_gamma_log_signed(xi)
        assert type(la) is float and type(s) is float
        assert np.float64(la).tobytes() == log_abs[i].tobytes()
        assert np.float64(s).tobytes() == sign[i].tobytes()
    for n in [0.0] + (-np.arange(1.0, 41.0)).tolist():
        la, s = reciprocal_gamma_log_signed(n)
        assert la == -math.inf and np.float64(s).tobytes() == np.float64(0.0).tobytes()
    with pytest.raises(DomainError):
        reciprocal_gamma_log_signed(float("inf"))


def test_reciprocal_gamma_log_signed_mixed_array_matches_each_side_alone():
    # Each element runs only its own branch, so a mixed array must give, bit
    # for bit, what its positive and non-positive parts give alone.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(1e-3, 300.0, 300), rng.uniform(-30.0, 0.0, 300), [-4.0, 0.0]])
    rng.shuffle(x)
    pos = x > 0.0
    mixed = reciprocal_gamma_log_signed(x)
    for part in (pos, ~pos):
        alone = reciprocal_gamma_log_signed(x[part])
        for m, a in zip(mixed, alone):
            assert m[part].tobytes() == a.tobytes()


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


@pytest.mark.parametrize(
    "fn, args, error, message",
    [
        (log_gamma, (1e308,), DomainError, r"^log_gamma requires x <= 2.5e\+305, got 1e\+308$"),
        (log_gamma, (np.array([1e308]),), DomainError, r"^log_gamma requires x <= 2.5e\+305, got array\("),
        (digamma_inverse, (800.0,), DomainError, r"^digamma_inverse requires .*, got 800.0$"),
        (digamma_inverse, (-math.inf,), DomainError, r"^digamma_inverse requires .*, got -inf$"),
        (digamma_inverse, (-1e300,), DomainError, r"^digamma_inverse requires .*, got -1e\+300$"),
        (digamma_inverse, (math.nan,), DomainError, r"^digamma_inverse requires .*, got nan$"),
        (
            reciprocal_gamma_log_signed, (np.array([-np.inf]),),
            DomainError,
            r"^reciprocal_gamma_log_signed requires finite x, got array\(\[-inf",
        ),
        (
            reciprocal_gamma_log_signed, (np.array([np.nan, 1.0]),),
            DomainError,
            r"^reciprocal_gamma_log_signed requires finite x, got array\(\[nan",
        ),
        (
            reciprocal_gamma_log_signed, (math.nan,),
            DomainError,
            r"^reciprocal_gamma_log_signed requires finite x",
        ),
        (
            complex_pow, (complex("inf"), 1.0),
            DomainError,
            r"^complex_pow requires finite w and E, got w = \(inf",
        ),
        (complex_pow, (2.0, math.nan), DomainError, r"^complex_pow requires finite w and E, .*E = nan$"),
        (complex_pow, (1e308, 2.0), NonFinite, r"^complex_pow\(\(1e\+308\+0j\), 2.0\) overflows$"),
        (complex_pow, (1e300 + 1e300j, 1e308), NonFinite, r"overflows$"),
    ],
)
def test_extreme_arguments_raise_a_library_error_naming_them(fn, args, error, message):
    # Neither a bare OverflowError nor a RuntimeWarning, nor a value that is not finite.
    with pytest.raises(error, match=message):
        fn(*args)
