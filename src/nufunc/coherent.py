"""Coherent-state kernels built on the generalized nu-function family.

Provides the basis coefficients of hypergeometric coherent states in both
the discrete (sum over n, normalized by the pFq series) and continuous
(integral over E, normalized by nu) representations, their overlaps, the
energy-transition density, the Poisson density of the plain family, the
dual coefficients with numerator/denominator parameter roles swapped, and
a diagnostic comparing the series and integral normalizers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .nu import (
    HyperParams,
    StructureFn,
    convergence_domain,
    nu_general,
    nu_general_detailed,
    nu_general_log,
    pfq_series,
    pfq_series_log,
    rho_continuous,
    rho_discrete,
)
from .quadrature import QuadSpec
from .special import complex_pow, log_gamma


def _require_series_domain(sf: StructureFn, z_mod_sq: float) -> None:
    dom = convergence_domain(sf)
    if dom.kind == "divergent":
        raise DomainError("family has no convergent series normalizer")
    if dom.kind == "unit_disc" and z_mod_sq >= 1.0:
        raise DomainError(
            f"series normalizer requires |z|^2 < 1 for this family; got {z_mod_sq}"
        )


def cs_coefficient_discrete(sf: StructureFn, z: complex, n: int) -> complex:
    """Coefficient of the n-th basis state: z^n / sqrt(rho(n) * pFq(|z|^2))."""
    if n < 0:
        raise DomainError(f"basis index must be >= 0, got {n}")
    z = complex(z)
    z_mod_sq = abs(z) ** 2
    _require_series_domain(sf, z_mod_sq)
    norm = pfq_series(sf.params, z_mod_sq).real
    if not (norm > 0.0):
        raise DomainError("series normalizer is not positive")
    rho = rho_discrete(sf, n)
    return z**n * math.exp(-0.5 * rho.log_abs) / math.sqrt(norm)


def cs_coefficient_continuous(
    sf: StructureFn, z: complex, E: float, spec: QuadSpec | None = None
) -> complex:
    """Continuous-label coefficient: z^E / sqrt(rho(E) * nu(|z|^2))."""
    if spec is None:
        spec = QuadSpec()
    if E < 0:
        raise DomainError(f"energy must be >= 0, got {E}")
    z = complex(z)
    z_mod_sq = abs(z) ** 2
    if z_mod_sq == 0.0:
        raise DomainError("continuous normalizer vanishes at z = 0")
    norm = nu_general(sf, z_mod_sq, spec).real
    if not (norm > 0.0):
        raise DomainError("integral normalizer is not positive")
    rho = rho_continuous(sf, E)
    return complex_pow(z, E) * math.exp(-0.5 * rho.log_abs) / math.sqrt(norm)


def overlap_continuous(
    sf: StructureFn, z: complex, z2: complex, spec: QuadSpec
) -> complex:
    """Overlap of two continuous-label states:
    nu(conj(z) * z2) / sqrt(nu(|z|^2) * nu(|z2|^2))."""
    z = complex(z)
    z2 = complex(z2)
    if z == z2 and z != 0.0:
        return 1.0 + 0.0j
    return _overlap_detailed(sf, z, z2, spec)[0]


def _overlap_detailed(sf: StructureFn, z: complex, z2: complex, spec: QuadSpec):
    """(overlap, error estimate) from one evaluation of each nu integral.
    The square roots stay apart: their product overflows once
    |z|^2 + |z2|^2 passes ~709.8, while the overlap is at most 1."""
    if abs(z) == 0.0 or abs(z2) == 0.0:
        raise DomainError("continuous normalizer vanishes at z = 0")
    num = nu_general_detailed(sf, z.conjugate() * z2, spec)
    den1 = nu_general_detailed(sf, abs(z) ** 2, spec)
    den2 = nu_general_detailed(sf, abs(z2) ** 2, spec)
    n1, n2 = den1.value.real, den2.value.real
    if not (n1 > 0.0 and n2 > 0.0):
        raise DomainError("integral normalizer is not positive")
    scale = math.sqrt(n1) * math.sqrt(n2)
    value = 1.0 + 0.0j if z == z2 else num.value / scale
    est = num.error_estimate / scale + abs(value) * 0.5 * (
        den1.error_estimate / n1 + den2.error_estimate / n2
    )
    return value, est


def transition_density(sf: StructureFn, z_mod_sq: float, E, spec: QuadSpec):
    """Density of finding energy E in the state labeled by |z|^2:
    (|z|^2)^E / rho(E) / nu(|z|^2).  Integrates to 1 over E.  For an
    array E the normalizer is integrated once, and each entry equals the
    scalar call at that energy."""
    return _density_detailed(sf, z_mod_sq, E, spec)[0]


def _density_detailed(sf: StructureFn, z_mod_sq: float, E, spec: QuadSpec):
    """(density, normalizer IntegrationResult) from one integral of
    nu(|z|^2); the CLI's error column comes from the same normalizer."""
    z_mod_sq = float(z_mod_sq)
    if z_mod_sq < 0.0:
        raise DomainError(f"squared modulus must be >= 0, got {z_mod_sq}")
    if z_mod_sq == 0.0:
        raise DomainError("density undefined at |z|^2 = 0 (normalizer vanishes)")
    energies = np.asarray(E, dtype=float)
    if np.any(energies < 0):
        raise DomainError(f"energy must be >= 0, got {energies[energies < 0][0]}")
    res = nu_general_detailed(sf, z_mod_sq, spec)
    norm = res.value.real
    if not (norm > 0.0):
        raise DomainError("integral normalizer is not positive")
    log_u = math.log(z_mod_sq)
    dens = [math.exp(e * log_u - rho_continuous(sf, e).log_abs) / norm for e in energies.flat]
    return (np.reshape(dens, energies.shape) if energies.ndim else dens[0]), res


def poisson_density_discrete(z_mod_sq: float, n: int) -> float:
    """e^{-|z|^2} (|z|^2)^n / n! - the plain-family discrete density."""
    z_mod_sq = float(z_mod_sq)
    if z_mod_sq < 0.0:
        raise DomainError(f"squared modulus must be >= 0, got {z_mod_sq}")
    if n < 0:
        raise DomainError(f"count must be >= 0, got {n}")
    if z_mod_sq == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(
        n * math.log(z_mod_sq) - z_mod_sq - float(log_gamma(n + 1.0))
    )


def kp_coefficient(sf: StructureFn, z: complex, n: int) -> complex:
    """Dual coefficient with numerator/denominator parameter roles swapped:
    z^n / sqrt(rho_swapped(n) * qFp({b};{a};|z|^2))."""
    swapped = StructureFn(
        HyperParams(sf.params.q, sf.params.p, sf.params.b, sf.params.a)
    )
    return cs_coefficient_discrete(swapped, z, n)


def dc_limit_check(sf: StructureFn, w: float, spec: QuadSpec) -> dict:
    """Compare the series normalizer (sum over n) with the integral
    normalizer (integral over E) at argument w.

    The two are different objects - the integral replaces a sum - so this
    is a structural report, not an equality assertion: both values are
    returned along with their ratio integral/series, which approaches 1
    for the plain family as w grows.  Log-scaled evaluation keeps large w
    representable.
    """
    w = float(w)
    if w < 0.0:
        raise DomainError(f"argument must be >= 0, got {w}")
    dom = convergence_domain(sf)
    if dom.kind != "entire":
        raise DomainError("normalizer comparison requires an entire family")
    if w == 0.0:
        return {
            "w": 0.0,
            "series": 1.0,
            "integral": 0.0,
            "series_log": 0.0,
            "integral_log": -math.inf,
            "ratio": 0.0,
        }
    series_log = pfq_series_log(sf.params, w)
    integral_log = nu_general_log(sf, w, spec)
    return {
        "w": w,
        "series": math.exp(series_log) if series_log < 709.0 else math.inf,
        "integral": math.exp(integral_log) if integral_log < 709.0 else math.inf,
        "series_log": series_log,
        "integral_log": integral_log,
        "ratio": math.exp(integral_log - series_log),
    }
