"""Acceptance suite: one test per acceptance criterion, each printing a
single ``criterion NN PASS/FAIL`` line before asserting.

Every criterion is checked at its stated tolerance.  Nothing here is
weakened to force a green run: a criterion that the mathematics cannot
satisfy prints FAIL with the measured numbers and fails honestly.
"""

import cmath
import math

import numpy as np
from scipy.integrate import simpson

from nufunc import (
    HyperParams,
    MatrixElementQuery,
    Power,
    Product,
    QuadSpec,
    Scalar,
    StructureFn,
    Sum,
    SymbolMinus,
    SymbolPlus,
    check_complex_gaussian,
    check_derivative_relation,
    check_eq_4_20,
    check_formal_series_4_21,
    check_laplace_nu,
    check_weighted_nu_integral,
    dc_limit_check,
    displacement_expectation,
    integrate_semi_infinite,
    locate_peak,
    nu,
    nu_general,
    overlap_continuous,
    pfq_series,
    poisson_density_discrete,
    scalarize,
    transition_density,
)

SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
CONFLUENT = StructureFn(HyperParams(1, 1, a=(1.0,), b=(2.0,)))
LOWER_ONLY = StructureFn(HyperParams(0, 1, b=(1.5,)))


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_laplace_transform():
    worst_rel = 0.0
    worst_ms = 0.0
    for s in (2.0, math.e, 5.0):
        r = check_laplace_nu(s)
        worst_rel = max(worst_rel, r.rel_err)
        worst_ms = max(worst_ms, r.runtime_ms)
    ok = worst_rel <= 1e-6 and worst_ms < 5000.0
    _line(1, ok, f"id 4.19 at s in {{2, e, 5}}: worst rel err "
                 f"{worst_rel:.3e} (tol 1e-6), slowest case {worst_ms:.0f} ms (< 5000)")
    assert ok


def test_criterion_02_elementary_weight_integral():
    worst_rel = 0.0
    for x in (2.0, math.e, 10.0):
        r = check_weighted_nu_integral(PLAIN, x)
        worst_rel = max(worst_rel, r.rel_err)
    ok = worst_rel <= 1e-6
    _line(2, ok, f"id 4.18 at x in {{2, e, 10}}: worst rel err "
                 f"{worst_rel:.3e} (tol 1e-6)")
    assert ok


def test_criterion_03_log_shifted_weight():
    worst_rel = 0.0
    states_normalization = True
    rhs_ok = True
    for b, x in ((0.5, 3.0), (1.0, math.e), (2.0, 2.0)):
        r = check_eq_4_20(b, x)
        worst_rel = max(worst_rel, r.rel_err)
        states_normalization &= ("normaliz" in r.description)
        expect_rhs = math.gamma(b + 1.0) / math.log(x)
        rhs_ok &= abs(r.rhs.real - expect_rhs) <= 1e-12 * expect_rhs
    ok = worst_rel <= 1e-6 and states_normalization and rhs_ok
    _line(3, ok, f"id 4.20 at (b,x) in {{(0.5,3),(1,e),(2,2)}}: worst rel err "
                 f"{worst_rel:.3e} (tol 1e-6); report states the satisfying "
                 f"normalization: {states_normalization}")
    assert ok


def test_criterion_04_planar_gaussian_product():
    results = []
    for x, y in ((0.3, 0.5), (0.5, 0.5)):
        r = check_complex_gaussian(x, y)
        results.append((x, y, r))
    worst_rel = max(r.rel_err for _, _, r in results)
    worst_ms = max(r.runtime_ms for _, _, r in results)
    ok = worst_rel <= 1e-4 and worst_ms < 30000.0
    detail = "; ".join(
        f"(x,y)=({x:g},{y:g}) rel err {r.rel_err:.4f} in {r.runtime_ms / 1000:.1f} s"
        for x, y, r in results
    )
    _line(4, ok, f"id 4.23 (tol 1e-4, < 30 s per case): {detail} — the "
                 f"continuous-power angular kernel has unit mass but nonzero "
                 f"width, so the two sides genuinely differ at this scale")
    assert ok


def test_criterion_05_derivative_relation():
    worst = []
    for z in (0.7, 1.5):
        for n, tol in ((1, 1e-5), (2, 1e-4)):
            r = check_derivative_relation(z, n)
            worst.append((z, n, r.rel_err, tol, r.rel_err <= tol))
    ok = all(w[4] for w in worst)
    detail = ", ".join(f"z={z:g} n={n}: {rel:.2e} (tol {tol:g})"
                       for z, n, rel, tol, _ in worst)
    _line(5, ok, f"id 1.6 derivative checks: {detail}")
    assert ok


def test_criterion_06_displacement_expectation_constant():
    moduli = (0.2, 0.6, 1.0, 1.5, 2.0)
    phases = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)
    worst = 0.0
    for sf, label in ((PLAIN, "(0,0)"), (CONFLUENT, "(1,1,a=[1],b=[2])")):
        ref = nu_general(sf, 1.0 + 0.0j, SPEC)
        for m in moduli:
            for ph in phases:
                z = m * cmath.exp(1j * ph)
                val = displacement_expectation(sf, z, SPEC)
                worst = max(worst, abs(val - ref) / abs(ref))
    ok = worst <= 1e-9
    _line(6, ok, f"displacement expectation over 25-point label grid, "
                 f"families (0,0) and (1,1,a=[1],b=[2]): worst deviation from "
                 f"the family nu at 1 is {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_07_density_normalization():
    cases = ((PLAIN, 1.5), (CONFLUENT, 0.8), (LOWER_ONLY, 2.0))
    worst_int = 0.0
    for sf, u in cases:
        def dens(E, sf=sf, u=u):
            return transition_density(sf, u, E, SPEC)

        def log_dens(E, sf=sf, u=u):
            return math.log(max(transition_density(sf, u, float(E), SPEC), 1e-300))

        probe = locate_peak(log_dens, max(u, 0.5))
        total = abs(integrate_semi_infinite(dens, probe, SPEC))
        worst_int = max(worst_int, abs(total - 1.0))
    poisson_total = sum(poisson_density_discrete(3.0, n) for n in range(80))
    poisson_dev = abs(poisson_total - 1.0)
    ok = worst_int <= 1e-8 and poisson_dev <= 1e-12
    _line(7, ok, f"transition-density integral over three families: worst "
                 f"|integral - 1| = {worst_int:.3e} (tol 1e-8); discrete "
                 f"Poisson sum deviation {poisson_dev:.3e} (tol 1e-12)")
    assert ok


def test_criterion_08_series_and_limit_ratio():
    worst_rel = 0.0
    for w in np.linspace(0.0, 5.0, 11):
        got = pfq_series(PLAIN.params, float(w))
        expect = math.exp(float(w))
        worst_rel = max(worst_rel, abs(got - expect) / expect)
    out = dc_limit_check(PLAIN, 100.0, SPEC)
    ratio_dev = abs(out["ratio"] - 1.0)
    ok = worst_rel <= 1e-12 and ratio_dev <= 1e-3
    _line(8, ok, f"plain-family series equals exp(w) on [0,5] to worst rel "
                 f"{worst_rel:.3e} (tol 1e-12); normalizer ratio at w=100 "
                 f"deviates from 1 by {ratio_dev:.3e} (tol 1e-3, log-scaled)")
    assert ok


def test_criterion_09_brute_force_oracle():
    # independent oracle: composite Simpson with step 1e-4 on [0, 60];
    # the tail beyond 60 is below 1/60! and cannot affect 1e-8
    h = 1e-4
    E = np.arange(0.0, 60.0 + h / 2, h)
    try:
        from scipy.special import gammaln
        integrand = np.exp(-gammaln(E + 1.0))
    except ImportError:  # pragma: no cover - scipy is a test dependency
        integrand = np.exp(-np.vectorize(math.lgamma)(E + 1.0))
    oracle = float(simpson(integrand, dx=h))
    got = nu(1.0, SPEC).real
    rel = abs(got - oracle) / oracle
    ok = rel <= 1e-8
    _line(9, ok, f"nu at 1 = {got:.15f} vs Simpson oracle {oracle:.15f} "
                 f"(step 1e-4, cutoff 60): rel err {rel:.3e} (tol 1e-8)")
    assert ok


def test_criterion_10_property_suites():
    rng = np.random.default_rng(20260819)

    # Cauchy-Schwarz bound on 200 random label pairs
    cs_failures = 0
    worst_overlap = 0.0
    for _ in range(200):
        r1, r2 = rng.uniform(0.05, 1.4, size=2)
        t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
        z1 = r1 * cmath.exp(1j * t1)
        z2 = r2 * cmath.exp(1j * t2)
        mag = abs(overlap_continuous(PLAIN, z1, z2, SPEC))
        worst_overlap = max(worst_overlap, mag)
        if mag > 1.0 + 1e-10:
            cs_failures += 1

    # ladder-symbol polynomial soundness on 100 random polynomials
    poly_failures = 0
    worst_poly = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if abs(z) < 0.05:
            z += 0.5
        n_terms = int(rng.integers(1, 7))
        terms = []
        expected = 0j
        for _ in range(n_terms):
            c = complex(rng.standard_normal(), rng.standard_normal())
            j = int(rng.integers(0, 4))
            k = int(rng.integers(0, 4))
            terms.append(
                Product((Scalar(c), Power(SymbolPlus(), float(j)),
                         Power(SymbolMinus(), float(k))))
            )
            expected += c * z.conjugate() ** float(j) * z ** float(k)
        expr = Sum(tuple(terms))
        got = scalarize(MatrixElementQuery(z, z, expr), PLAIN, SPEC)
        err = abs(got - expected) / max(abs(expected), 1.0)
        worst_poly = max(worst_poly, err)
        if err > 1e-12:
            poly_failures += 1

    # factorial reproduction by the quadrature engine
    gamma_failures = 0
    worst_gamma = 0.0
    for k in range(11):
        def f(t, k=k):
            t = np.asarray(t, dtype=float)
            return t**k * np.exp(-t)

        def log_f(t, k=k):
            return k * math.log(t) - t if t > 0 else -t

        probe = locate_peak(log_f, max(float(k), 0.5))
        got = abs(integrate_semi_infinite(f, probe, SPEC))
        rel = abs(got - math.factorial(k)) / math.factorial(k)
        worst_gamma = max(worst_gamma, rel)
        if rel > 1e-10:
            gamma_failures += 1

    failures = cs_failures + poly_failures + gamma_failures
    ok = failures == 0
    _line(10, ok, f"property suites: overlap bound on 200 pairs "
                  f"({cs_failures} failures, max |overlap| {worst_overlap:.12f}), "
                  f"100 ladder polynomials ({poly_failures} failures, worst "
                  f"rel {worst_poly:.2e}), factorial reproduction k<=10 "
                  f"({gamma_failures} failures, worst rel {worst_gamma:.2e})")
    assert ok


def test_criterion_11_formal_series_diagnostic():
    r_small = check_formal_series_4_21(0.1, 10)
    r_large = check_formal_series_4_21(1.5, 20)
    generated = (
        r_small.status == "formal"
        and r_large.status == "formal"
        and r_small.passed
        and r_large.passed
    )
    documented = "diverge" in r_large.description
    ok = generated and documented
    _line(11, ok, f"formal-series reports generated for s in {{0.1, 1.5}} "
                  f"without suite failure; divergence of the s=1.5 partial "
                  f"sums documented in the report: {documented}")
    assert ok
