"""Tests for the closed-form identity registry and its report plumbing."""

import cmath
import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, special

from nufunc import (
    DomainError,
    HyperParams,
    IdentityReport,
    QuadSpec,
    StructureFn,
    ToleranceNotMet,
    UnsupportedFamily,
    check_complex_gaussian,
    check_derivative_relation,
    check_eq_4_20,
    check_eq_4_22,
    check_formal_series_4_21,
    check_laplace_nu,
    check_weighted_nu_integral,
    nu,
    reports_to_json,
    run_suite,
    suite_passed,
)
from nufunc import identities
from nufunc.identities import _REGISTRY, _angular_kernel, _sinc_kernel

SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
CONFLUENT = StructureFn(HyperParams(1, 1, a=(1.0,), b=(2.0,)))

REPORT_KEYS = {
    "id",
    "description",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "abs_err",
    "rel_err",
    "tol",
    "pass",
    "status",
    "runtime_ms",
}


# ---------------------------------------------------------------------------
# individual checks at cheap parameters
# ---------------------------------------------------------------------------


def test_laplace_transform_check_passes():
    r = check_laplace_nu(2.0)
    assert r.id == "4.19" and r.status == "exact"
    assert r.passed and r.rel_err <= 1e-8


def test_laplace_transform_check_rejects_small_s():
    # the transform changes sign structure at s = 1 and diverges below it
    for s in (1.0, 0.5, 0.0):
        with pytest.raises(DomainError):
            check_laplace_nu(s)
    # Near s = 1 the outer truncation sends the inner nu past its linear
    # range; that is named as 4.18 names it, up to s = 1 + 236.26/700.
    for s in (1.05, 1.3, 1.331, 1.3375):
        with pytest.raises(DomainError, match=rf"^s {s!r} is too close to 1: the inner argument"):
            check_laplace_nu(s)
    assert check_laplace_nu(1.3376).passed


def test_weighted_integral_check_passes_both_families():
    for sf in (PLAIN, CONFLUENT):
        r = check_weighted_nu_integral(sf, 2.0)
        assert r.id == "4.18" and r.passed


def test_weighted_integral_check_rejects_x_at_or_below_one():
    with pytest.raises(DomainError):
        check_weighted_nu_integral(PLAIN, 1.0)
    with pytest.raises(DomainError):
        check_weighted_nu_integral(PLAIN, 0.5)


@pytest.mark.parametrize("params", [HyperParams(0, 1, (), (2.0,)), HyperParams(1, 1, (2.0,), (3.0,))])
def test_weighted_integral_check_rejects_a_family_without_an_elementary_weight(params):
    with pytest.raises(UnsupportedFamily, match="^weighted integrals support only the bare family"):
        check_weighted_nu_integral(StructureFn(params), 2.0)


def test_log_shifted_weight_check_passes():
    r = check_eq_4_20(0.5, 3.0)
    assert r.id == "4.20" and r.passed
    # the report must surface the normalization choice that makes the
    # identity hold, and carry both candidate left-hand values
    assert "normaliz" in r.description
    assert "unnormalized" in r.description


def test_log_shifted_weight_check_domain_errors():
    with pytest.raises(DomainError, match=r"^power weight requires b > -1, got b=-1.0"):
        check_eq_4_20(-1.0, 3.0)
    with pytest.raises(DomainError, match=r"^power-weighted integral requires x > 1, got x=1.0"):
        check_eq_4_20(0.5, 1.0)


def test_log_shifted_weight_reduces_to_weighted_integral_at_b_zero():
    # with a trivial shift the weight is elementary, so the two checks
    # compute the same integral
    r_log = check_eq_4_20(0.0, 2.0)
    r_wt = check_weighted_nu_integral(PLAIN, 2.0)
    assert abs(r_log.lhs - r_wt.lhs) <= 1e-10 * abs(r_wt.lhs)
    assert abs(r_log.rhs - r_wt.rhs) <= 1e-12 * abs(r_wt.rhs)


def test_shift_parameter_check_passes_both_families():
    for sf in (PLAIN, CONFLUENT):
        r = check_eq_4_22(sf, 2.0, 1.0)
        assert r.id == "4.22" and r.passed


def test_shift_parameter_check_at_zero_shift_matches_weighted_integral():
    # alpha = 0 must reproduce the elementary-weight check to much better
    # than the identity tolerance
    r0 = check_eq_4_22(PLAIN, 2.0, 0.0)
    rw = check_weighted_nu_integral(PLAIN, 2.0)
    assert abs(r0.lhs - rw.lhs) <= 1e-10 * max(abs(rw.lhs), 1.0)
    assert abs(r0.rhs - rw.rhs) <= 1e-10 * max(abs(rw.rhs), 1.0)


# (C, alpha) pairs of the shift-parameter check: shifts on both sides of 0.
_SHIFT_CASES = ((2.05, 1.0), (2.5, 0.5), (2.0, 0.0), (2.0, -0.5), (3.0, 2.0))


@pytest.mark.parametrize("C, alpha", _SHIFT_CASES)
def test_shift_parameter_rhs_of_the_plain_family_is_closed_form(C, alpha):
    # The shifted family of the plain one has rho = 1, so the right side is
    # C**(-alpha) times the integral of C**(-E), which is 1 / ln C.
    r = check_eq_4_22(PLAIN, C, alpha)
    assert r.rhs.imag == 0.0
    assert r.rhs.real == pytest.approx(C**-alpha / math.log(C), rel=1e-14)


@pytest.mark.parametrize("b", [2.0, 1.5])
@pytest.mark.parametrize("C, alpha", _SHIFT_CASES)
def test_shift_parameter_rhs_matches_the_pochhammer_ratio_integral(b, C, alpha):
    # The right side as C**(-alpha) Gamma(b+alpha)/Gamma(1+alpha) times the
    # integral of C**(-E) (b+alpha)_E / (1+alpha)_E, summed by QUADPACK.
    sf = StructureFn(HyperParams(1, 1, (1.0,), (b,)))
    sb, sa = b + alpha, 1.0 + alpha

    def h(E):
        return math.exp(
            -E * math.log(C)
            + special.gammaln(sb + E) - special.gammaln(sb)
            - special.gammaln(sa + E) + special.gammaln(sa)
        )

    inner = integrate.quad(h, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    expected = C**-alpha * math.exp(special.gammaln(sb) - special.gammaln(sa)) * inner
    r = check_eq_4_22(sf, C, alpha)
    assert r.passed
    assert r.rhs.real == pytest.approx(expected, rel=1e-12)


def test_shift_parameter_check_names_the_depth_limit_near_alpha_minus_one():
    # nu(t/C, alpha) ~ t**alpha near t = 0; at alpha = -0.9 the origin
    # panels still fail after the 60 halvings the engine allows.
    with pytest.raises(ToleranceNotMet, match=r"^depth limit of 60 halvings reached \("):
        check_eq_4_22(PLAIN, 2.0, -0.9)


def test_shift_parameter_check_domain_errors():
    with pytest.raises(DomainError):
        check_eq_4_22(PLAIN, 1.0, 1.0)  # needs C > 1
    with pytest.raises(DomainError):
        check_eq_4_22(PLAIN, 2.0, -1.5)  # shift pushes the exponent below -1
    with pytest.raises(DomainError):
        check_eq_4_22(CONFLUENT, 2.0, -1.0)  # shifted family entry hits zero
    with pytest.raises(DomainError, match="^finite alpha required, got nan"):
        check_eq_4_22(PLAIN, 2.0, math.nan)


def test_planar_gaussian_check_zero_argument_shortcut():
    r = check_complex_gaussian(0.0, 0.5)
    assert r.lhs == 0.0
    assert r.passed  # both sides are the nu value at 0 ... lhs 0, rhs nu(0)=0


def test_planar_gaussian_check_rejects_large_modulus():
    with pytest.raises(DomainError):
        check_complex_gaussian(1.5, 0.5)


@pytest.mark.parametrize("x, y", [(5e-324, 5e-324), (1e-200, -1e-200), (1e-170j, 1e-170)])
def test_planar_gaussian_check_rejects_an_underflowed_product(x, y):
    # nu(x*y) ~ 1/ln(1/|xy|) is about 1e-3 here, and nu(0) = 0 is not it.
    assert x * y == 0.0
    message = f"underflows to 0 at x={complex(x)!r}, y={complex(y)!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        check_complex_gaussian(x, y)


def _phase_average(g, E, F):
    # (1/2pi) * integral over phi of the principal phases of (x z)^E and
    # (y conj z)^F, with arg x = arg y = g/2, split at both branch points.
    th = 0.5 * g

    def phase(phi):
        u = cmath.phase(cmath.exp(1j * (th + phi)))
        v = cmath.phase(cmath.exp(1j * (th - phi)))
        return cmath.exp(1j * (E * u + F * v))

    cuts = {float(np.mod(math.pi - th, 2 * math.pi)), float(np.mod(th - math.pi, 2 * math.pi))}
    points = sorted(cuts - {0.0})
    parts = [
        integrate.quad(lambda p: part(phase(p)), 0.0, 2 * math.pi, points=points,
                       epsabs=1e-13, epsrel=0.0, limit=200)[0]
        for part in (lambda c: c.real, lambda c: c.imag)
    ]
    return complex(*parts) / (2 * math.pi)


def test_angular_kernel_matches_phase_average():
    F = 0.7
    for g in (0.0, 0.6, -0.6, math.pi / 2, -math.pi / 2, math.pi):
        for d in (0.0, 1e-9, 1.4, 4.9):
            k = complex(_angular_kernel(g, F + d, F))
            assert abs(k - _phase_average(g, F + d, F)) <= 1e-13, (g, d)


def test_sinc_kernel_is_the_real_part_of_the_angular_kernel_at_zero():
    # The separable kernel takes sin pi(E - F) from per-node sines and
    # cosines, so it matches the angular kernel's real part to 2e-14, not
    # bit for bit; at E = F both are exactly 1.
    F = np.linspace(0.0, 30.0, 301)
    for d in (0.0, 1e-9, 1.4, 4.9):
        full = _angular_kernel(0.0, F + d, F)
        real = _sinc_kernel(F + d, F)
        assert real.dtype == np.float64
        assert np.max(np.abs(real - full.real)) <= 2e-14, d
        assert not full.imag.any()
        if d == 0.0:
            assert (real == 1.0).all() and (full.real == 1.0).all()


# Left sides of 4.23 on twelve coarse rungs toward E = 0: the two real
# labels with the np.sinc kernel, before the separable one; the rest across
# the label domain (negative and complex labels take the angular kernel,
# |x| = |y| = 1 the widest truncation point).
_PINNED_LEFT_SIDES = {
    (0.3, 0.5): 0.438211140525897,
    (0.5, 0.5): 0.5997314478387921,
    (0.9, 0.2): 0.4934124430866123,
    (-0.3, 0.5): -0.055487273247467855,
    (-0.4, -0.6): 0.5841714430920293,
    (0.3 + 0.2j, 0.5): 0.4208827011765063 + 0.15428752157004463j,
    (0.2j, 0.6j): -0.038577954940653796,
    (1.0, 1.0): 2.154908901992299,
    (-1.0, 1j): -0.13803338176304294 - 0.9864224493372004j,
    (1e-8, 0.5): 0.02682065017211103,
    (1e-8, 1e-8): 0.002995134887539597,
    (0.3 + 0.4j, 0.6 - 0.2j): 0.583098826089751 + 0.2779299341704132j,
}


def test_planar_left_side_keeps_its_value_under_the_separable_kernel():
    for (x, y), before in _PINNED_LEFT_SIDES.items():
        lhs = check_complex_gaussian(x, y).lhs
        assert abs(lhs - before) <= 1e-13 * abs(before), (x, y)
        if isinstance(before, float):
            assert lhs.imag == 0.0, (x, y)


def test_planar_left_side_makes_few_integrand_values(monkeypatch):
    # Outer nodes, and inner values (F nodes times outer-node columns), of
    # the registered case.  Its integrand is entire in E and F, so six
    # coarse rungs toward 0 serve where twelve made 403 and 187 395.
    counts = {"outer": 0, "inner": 0}

    def count(name, key):
        entry = getattr(identities, name)

        def run(f, *args, **kwargs):
            def g(x):
                y = f(x)
                counts[key] += y.size
                return y

            return entry(g, *args, **kwargs)

        monkeypatch.setattr(identities, name, run)

    count("integrate_semi_infinite_detailed", "outer")
    count("integrate_vector_semi_infinite", "inner")
    lhs = check_complex_gaussian(0.3, 0.5).lhs
    assert lhs == 0.43821114052589694
    assert counts["outer"] <= 217 and counts["inner"] <= 65_000, counts


def test_sinc_kernel_is_within_2e_14_of_np_sinc():
    E = np.linspace(0.0, 100.0, 4001)
    for d in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.4, 4.9, 60.0):
        for e, f in ((E[E >= d], E[E >= d] - d), (E, E + d)):
            k = _sinc_kernel(e, f)
            assert np.max(np.abs(k - np.sinc(e - f))) <= 2e-14, d
            if d == 0.0:
                assert (k == 1.0).all()
    # Outer nodes against a column of inner nodes, as the 4.23 integrand
    # calls it, across the guard.
    F = (E[::40] + np.array([[0.0], [0.019], [0.021], [7e-5]])).reshape(-1, 1)
    assert np.max(np.abs(_sinc_kernel(E, F) - np.sinc(E - F))) <= 2e-14


def _reduction_dblquad(x, y):
    lx, ly = math.log(x), math.log(y)

    def f(F, E):
        return math.exp(
            E * lx + F * ly + special.gammaln(1.0 + 0.5 * (E + F))
            - special.gammaln(1.0 + E) - special.gammaln(1.0 + F)
        ) * np.sinc(E - F)

    return integrate.dblquad(f, 0.0, 60.0, 0.0, 60.0, epsabs=1e-11, epsrel=1e-10)[0]


def test_planar_gaussian_lhs_matches_real_reduction():
    for x, y in ((0.3, 0.5), (0.5, 0.5)):
        r = check_complex_gaussian(x, y)
        assert r.lhs.imag == 0.0
        assert r.lhs.real == pytest.approx(_reduction_dblquad(x, y), rel=1e-8)
        assert not r.passed  # the identity's own residual, far above 1e-4


def test_planar_gaussian_lhs_label_symmetries():
    x, y = 0.3 + 0.2j, 0.5
    lhs = check_complex_gaussian(x, y).lhs
    assert check_complex_gaussian(y, x).lhs == pytest.approx(lhs, rel=1e-12)
    conj = check_complex_gaussian(x.conjugate(), y.conjugate()).lhs
    assert conj == pytest.approx(lhs.conjugate(), rel=1e-12)


def test_derivative_relation_first_and_second():
    r1 = check_derivative_relation(0.7, 1)
    assert r1.passed and r1.id == "1.6"
    r2 = check_derivative_relation(0.7, 2)
    assert r2.passed


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z", [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.7, 1.4, 5.0, 50.0, 300.0, 650.0])
def test_derivative_relation_holds_across_its_domain(z, n):
    # Near z = 0, nu behaves like 1/ln(1/z); fixed steps of 1e-4 and 1e-3
    # missed the registered tolerances there by up to 0.13.
    r = check_derivative_relation(z, n)
    assert r.passed and r.tol == (1e-5 if n == 1 else 1e-4)


def test_derivative_relation_rejects_unsupported_order():
    with pytest.raises(DomainError):
        check_derivative_relation(0.7, 3)
    with pytest.raises(DomainError):
        check_derivative_relation(-1.0, 1)
    # A non-integral order is named, not truncated to the integer below it.
    for n in (1.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="^derivative order n must be an integer"):
            check_derivative_relation(0.7, n)


def test_formal_series_zero_order_partial_sum():
    # the order-0 partial sum is the zeroth moment, which equals
    # nu evaluated at exp(-s)
    s = 0.4
    r = check_formal_series_4_21(s, 0)
    expect = nu(math.exp(-s), SPEC).real
    assert abs(r.rhs - expect) <= 1e-9 * abs(expect)
    assert r.status == "formal" and r.passed


def test_formal_series_documents_divergence():
    r = check_formal_series_4_21(1.5, 20)
    assert r.status == "formal"
    assert r.passed  # formal rows never gate the suite
    assert "diverge" in r.description
    # the partial sum wanders far from the integral: that is the point
    assert abs(r.rhs - r.lhs) > 1.0


def test_formal_series_rejects_s_at_zero():
    with pytest.raises(DomainError, match=r"^formal series check requires s > 0, got s=0.0"):
        check_formal_series_4_21(0.0, 10)


@pytest.mark.parametrize("s, L", [(1e300, 3), (1e160, 2), (1e103, 3)])
def test_formal_series_rejects_an_overflowing_power_of_s(s, L):
    message = f"formal series check requires a finite s**L, got s={s!r}, L={L}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_formal_series_4_21(s, L)


def test_formal_series_rejects_bad_truncation_order():
    for L in (2.7, math.nan, math.inf):
        with pytest.raises(DomainError, match="^truncation order L must be an integer"):
            check_formal_series_4_21(0.1, L)
    with pytest.raises(DomainError, match="^truncation order must be >= 0"):
        check_formal_series_4_21(0.1, -1)
    by_float, by_int = check_formal_series_4_21(0.1, 2.0), check_formal_series_4_21(0.1, 2)
    assert (by_float.lhs, by_float.rhs, by_float.description) == (by_int.lhs, by_int.rhs, by_int.description)


def test_formal_series_small_s_terms_still_decreasing():
    r = check_formal_series_4_21(0.1, 10)
    assert "decrease" in r.description
    assert abs(r.rhs - r.lhs) < 0.5


# ---------------------------------------------------------------------------
# registry and suite runner
# ---------------------------------------------------------------------------


def test_registry_has_unique_sorted_ids():
    ids = [case_id for case_id, _ in _REGISTRY]
    assert len(ids) >= 7
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


def test_run_suite_full_and_filtered():
    reports = run_suite(filter="4.19")
    assert len(reports) == 1 and reports[0].id == "4.19"
    reports = run_suite(filter="4.21")
    assert len(reports) == 2
    assert all(r.status == "formal" for r in reports)
    assert suite_passed(reports)


def test_run_suite_filter_with_no_match():
    assert run_suite(filter="no-such-id") == []


def test_run_suite_captures_case_errors():
    # a starved panel budget cannot meet the default tolerance; the suite
    # must convert the failure into an error report instead of raising
    reports = run_suite(filter="4.19", spec=QuadSpec(max_panels=4))
    assert len(reports) == 1
    r = reports[0]
    assert r.status == "error"
    assert not r.passed
    assert math.isnan(r.lhs.real) and math.isnan(r.rhs.real)
    assert not suite_passed(reports)


def test_run_suite_tol_override():
    # an absurdly tight tolerance flips exact identities to failing
    reports = run_suite(filter="4.18", tol=1e-16)
    assert len(reports) == 1
    assert not reports[0].passed
    assert reports[0].tol == 1e-16


def test_exact_identity_survives_tighter_quadrature():
    # tightening the quadrature tolerance must not flip a passing identity
    loose = check_laplace_nu(2.0, spec=QuadSpec())
    tight = check_laplace_nu(2.0, spec=QuadSpec(rel_tol=1e-11))
    assert loose.passed and tight.passed
    assert tight.rel_err <= 10 * max(loose.rel_err, 1e-15)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_json_schema():
    reports = run_suite(filter="4.19")
    data = json.loads(reports_to_json(reports))
    assert isinstance(data, list) and len(data) == 1
    row = data[0]
    assert set(row) == REPORT_KEYS
    assert row["pass"] is True
    assert row["status"] == "exact"
    assert isinstance(row["runtime_ms"], float)


def test_report_json_deterministic_modulo_runtime():
    r1 = run_suite(filter="4.18")
    r2 = run_suite(filter="4.18")
    d1 = json.loads(reports_to_json(r1))[0]
    d2 = json.loads(reports_to_json(r2))[0]
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert d1 == d2


def test_error_report_serializes_with_nan_fields():
    reports = run_suite(filter="4.19", spec=QuadSpec(max_panels=4))
    payload = reports_to_json(reports)
    data = json.loads(payload)
    assert data[0]["status"] == "error"
    assert data[0]["pass"] is False
    # NaN must serialize as JSON-parseable (json module emits NaN literals
    # readable by json.loads)
    assert math.isnan(data[0]["lhs_re"])


def test_identity_report_is_plain_dataclass():
    r = check_laplace_nu(2.0)
    assert isinstance(r, IdentityReport)
    assert r.runtime_ms >= 0.0
