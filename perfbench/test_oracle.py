"""Tests of the benchmark's oracle against known values and against
independent routes.  Run: python3 -m pytest perfbench/test_oracle.py"""

import math

from scipy import integrate, special

import oracle

PLAIN = (0, 0, (), ())


def test_nu_at_one():
    assert abs(oracle.nu(PLAIN, 1.0) - 2.2665345076998) < 1e-12


def test_laplace_closed_form_matches_direct_quadrature_at_s_2():
    s = 2.0
    direct, _ = integrate.quad(lambda t: math.exp(-s * t) * oracle.nu(PLAIN, t).real,
                               0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=200)
    assert abs(oracle.laplace_nu(s) - 1.0 / (2.0 * math.log(2.0))) < 1e-15
    assert abs(direct - oracle.laplace_nu(s)) < 1e-10


def test_planar_residuals():
    for (x, y), residual in (((0.3, 0.5), 0.19536), ((0.5, 0.5), 0.15390)):
        rhs = oracle.nu(PLAIN, x * y).real
        assert abs(abs(oracle.planar_gaussian(x, y) - rhs) / rhs - residual) < 5e-5


def test_planar_left_sides():
    assert abs(oracle.planar_gaussian(0.3, 0.5) - 0.438211) < 1e-6
    assert abs(oracle.planar_gaussian(0.5, 0.5) - 0.599731) < 1e-6


def test_nu_alpha_zero_shift_is_nu():
    for w in (0.5, 2.0):
        assert abs(oracle.nu_alpha(w, 0.0) - oracle.nu(PLAIN, w).real) < 1e-12 * oracle.nu_alpha(w, 0.0)


def test_nu_alpha_minus_one_is_derivative_of_nu():
    z, h = 0.7, 1e-4
    diff = (oracle.nu(PLAIN, z + h).real - oracle.nu(PLAIN, z - h).real) / (2 * h)
    assert abs(diff - oracle.nu_alpha(z, -1.0)) < 1e-7


def test_overlap_survives_large_labels():
    assert abs(oracle.overlap(PLAIN, 19.0, 18.9) - 0.99501) < 1e-5
    assert abs(abs(oracle.overlap(PLAIN, 20.0, 19.0 + 1.0j)) - 0.3676) < 1e-3
    assert oracle.overlap(PLAIN, 1 + 1j, 1 + 1j) == 1.0


def test_density_integrates_to_one():
    zsq = 5.0
    total, _ = integrate.quad(lambda E: oracle.density(PLAIN, zsq, E), 0.0, 60.0, limit=200)
    assert abs(total - 1.0) < 1e-10


def test_pfq_single_pair_is_kummer():
    # sum w^n (a)_n / ((b)_n n!) by direct summation
    a, b, w = 1.5, 2.0, 3.0
    direct = math.fsum(math.exp(n * math.log(w) + special.gammaln(a + n) - special.gammaln(a)
                                - special.gammaln(b + n) + special.gammaln(b) - math.lgamma(n + 1))
                       for n in range(1, 200)) + 1.0
    assert abs(oracle.pfq((1, 1, (a,), (b,)), w) - direct) < 1e-12 * direct


def test_nested_transform_matches_swapped_order():
    # integral of e^{-t} nu(e^{-st}) dt = integral of 1 / ((1 + sE) G(E+1)) dE
    for s in (0.1, 1.5):
        swapped, _ = integrate.quad(lambda E: math.exp(-special.gammaln(E + 1.0)) / (1.0 + s * E),
                                    0.0, 60.0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(oracle.nested_transform(s) - swapped) < 1e-11


def test_shifted_family_plain_closed_form():
    C, alpha = 2.0, 1.0
    assert abs(oracle.shifted_family(PLAIN, C, alpha) - C**-alpha / math.log(C)) < 1e-13
