"""Reference values for the benchmark, computed without ``nufunc``.

Every quantity the workloads check is evaluated here by a route that
shares no code with the library: scipy's QUADPACK quadrature and its own
gamma functions for the defining integrals, closed forms for the
identities, and log-space arithmetic for overlaps and densities so that
large labels stay representable.  This module must never import
``nufunc``.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy import integrate, special

# How far below its peak the scaled integrand is cut off (e^-60 ~ 1e-26).
_LOG_DROP = 60.0
_EPSREL = 1e-13
_LIMIT = 500
_PLAIN = (0, 0, (), ())


def _quad(*args, **kwargs):
    """scipy's quad, quiet about round-off near its 1e-13 target: every
    value it returns is still held to the checks' tolerance."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(*args, **kwargs)


def _log_rho(E, fam):
    """ln rho(E) = ln G(E+1) + sum_j ln (b_j)_E - sum_i ln (a_i)_E."""
    _, _, a, b = fam
    out = special.gammaln(E + 1.0)
    for bj in b:
        out = out + special.gammaln(bj + E) - special.gammaln(bj)
    for ai in a:
        out = out - special.gammaln(ai + E) + special.gammaln(ai)
    return out


def _peak_and_cut(log_mod):
    """Peak value and a cut-off beyond which log_mod stays _LOG_DROP below it.

    `log_mod` is vectorized over E >= 0 and eventually decreasing.
    """
    top = 64.0
    while True:
        E = np.linspace(0.0, top, 4097)
        v = log_mod(E)
        k = int(np.argmax(v))
        peak = float(v[k])
        # The last grid point still above the threshold, not the first one
        # below it: isolated zeros (of 1/G) dip below without ending the tail.
        last = int(np.nonzero(v >= peak - _LOG_DROP)[0][-1])
        if last + 1 < E.size:
            return float(E[k]), peak, float(E[last + 1])
        top *= 2.0
        if top > 1e6:
            raise ValueError("integrand does not decay")


def nu_scaled(fam, w):
    """(shift, I) with nu_fam(w) = I * exp(shift); I is complex."""
    w = complex(w)
    r, theta = abs(w), math.atan2(w.imag, w.real)
    log_r = math.log(r)

    def log_mod(E):
        return E * log_r - _log_rho(E, fam)

    peak_at, shift, cut = _peak_and_cut(log_mod)

    def env(E):
        return math.exp(log_mod(E) - shift)

    if abs(theta) < 1e-15:
        re, _ = _quad(
            env, 0.0, cut, points=[peak_at] if 0 < peak_at < cut else None,
            epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT,
        )
        return shift, complex(re, 0.0)
    re, _ = _quad(env, 0.0, cut, weight="cos", wvar=theta,
                  epsabs=1e-17, epsrel=_EPSREL, limit=_LIMIT)
    im, _ = _quad(env, 0.0, cut, weight="sin", wvar=theta,
                  epsabs=1e-17, epsrel=_EPSREL, limit=_LIMIT)
    return shift, complex(re, im)


def nu(fam, w) -> complex:
    """nu_fam(w) = integral over E >= 0 of w^E / rho(E), principal branch."""
    shift, val = nu_scaled(fam, w)
    return val * math.exp(shift)


def nu_log(fam, w: float) -> float:
    """ln nu_fam(w) for real w > 0."""
    shift, val = nu_scaled(fam, w)
    return shift + math.log(val.real)


def nu_alpha(w: float, alpha: float) -> float:
    """integral over E >= 0 of w^(alpha+E) / G(alpha+E+1), any real alpha."""
    log_w = math.log(w)

    def f(E):
        return math.exp((alpha + E) * log_w) * special.rgamma(alpha + E + 1.0)

    def log_mod(E):
        x = alpha + E + 1.0
        with np.errstate(divide="ignore"):
            lg = np.where(x > 0.0, -special.gammaln(np.maximum(x, 1e-300)),
                          np.log(np.abs(special.rgamma(x))))
        return (alpha + E) * log_w + lg

    peak_at, _, cut = _peak_and_cut(log_mod)
    # Zeros of 1/G at alpha+E+1 = 0, -1, ... split the sign lobes.
    zeros = [z for z in (-alpha - 1.0 - k for k in range(8)) if 0.0 < z < cut]
    pts = sorted(set(zeros + ([peak_at] if 0.0 < peak_at < cut else [])))
    val, _ = _quad(f, 0.0, cut, points=pts or None,
                   epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)
    return val


def overlap(fam, z1, z2) -> complex:
    """nu(conj(z1) z2) / sqrt(nu(|z1|^2) nu(|z2|^2)), formed in log space."""
    z1, z2 = complex(z1), complex(z2)
    if z1 == z2:
        return 1.0 + 0.0j
    s_n, i_n = nu_scaled(fam, z1.conjugate() * z2)
    s_1, i_1 = nu_scaled(fam, abs(z1) ** 2)
    s_2, i_2 = nu_scaled(fam, abs(z2) ** 2)
    return i_n / math.sqrt(i_1.real * i_2.real) * math.exp(s_n - 0.5 * (s_1 + s_2))


def overlap_envelope(fam, z1, z2) -> float:
    """nu(|z1| |z2|) / sqrt(nu(|z1|^2) nu(|z2|^2)), at most 1: the overlap's
    numerator integral taken over the modulus of its integrand.  A
    quadrature's relative tolerance refers to this scale, so it bounds the
    absolute error of an overlap whose numerator cancels."""
    z1, z2 = complex(z1), complex(z2)
    s_n, i_n = nu_scaled(fam, abs(z1) * abs(z2))
    s_1, i_1 = nu_scaled(fam, abs(z1) ** 2)
    s_2, i_2 = nu_scaled(fam, abs(z2) ** 2)
    return i_n.real / math.sqrt(i_1.real * i_2.real) * math.exp(s_n - 0.5 * (s_1 + s_2))


def density(fam, zsq: float, E: float) -> float:
    """(|z|^2)^E / rho(E) / nu(|z|^2), formed in log space."""
    return math.exp(E * math.log(zsq) - float(_log_rho(E, fam)) - nu_log(fam, zsq))


def poisson(zsq: float, n: int) -> float:
    return math.exp(n * math.log(zsq) - zsq - special.gammaln(n + 1.0))


def pfq(fam, w) -> complex:
    """Series sum over n of w^n / rho(n): e^w, or 1F1(a; b; w) for real w."""
    p, q, a, b = fam
    if (p, q) == (0, 0):
        return cmath.exp(w)
    if (p, q) == (1, 1):
        return complex(special.hyp1f1(a[0], b[0], w))
    raise ValueError(f"no pfq oracle for (p, q) = ({p}, {q})")


# ---------------------------------------------------------------- identities

def laplace_nu(s: float) -> float:
    """4.19 closed form: integral of e^{-st} nu(t) dt = 1/(s ln s)."""
    return 1.0 / (s * math.log(s))


def weighted_nu(fam, x: float) -> float:
    """4.18 closed form: prod G(b_j) / prod G(a_i) / ln x."""
    _, _, a, b = fam
    return math.exp(sum(math.lgamma(v) for v in b) - sum(math.lgamma(v) for v in a)) / math.log(x)


def power_weighted(b: float, x: float) -> float:
    """4.20 closed form: G(b+1) / ln x."""
    return math.gamma(b + 1.0) / math.log(x)


def shifted_family(fam, C: float, alpha: float) -> float:
    """4.22 right side: C^-alpha prod G(b+alpha)/prod G(a+alpha) times
    the integral of C^-E prod (b+alpha)_E / prod (a+alpha)_E dE."""
    _, _, a, b = fam
    sb = [v + alpha for v in b]
    sa = [v + alpha for v in a]
    ln_c = math.log(C)

    def f(E):
        out = -E * ln_c
        for v in sb:
            out += special.gammaln(v + E) - special.gammaln(v)
        for v in sa:
            out -= special.gammaln(v + E) - special.gammaln(v)
        return math.exp(out)

    inner, _ = _quad(f, 0.0, np.inf, epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)
    log_pref = sum(math.lgamma(v) for v in sb) - sum(math.lgamma(v) for v in sa)
    return math.exp(-alpha * ln_c + log_pref) * inner


def nested_transform(s: float) -> float:
    """4.21 left side, evaluated directly: integral of e^{-t} nu(e^{-st}) dt."""
    def f(t):
        return math.exp(-t) * nu(_PLAIN, math.exp(-s * t)).real

    val, _ = _quad(f, 0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=_LIMIT)
    return val


def formal_partial_sum(s: float, L: int) -> float:
    """4.21 right side: sum over l <= L of s^l times the integral of
    E^l e^{-sE} / G(E+1) dE."""
    total = 0.0
    for ell in range(L + 1):
        def f(E, ell=ell):
            if E == 0.0:
                return 1.0 if ell == 0 else 0.0
            return math.exp(ell * math.log(E) - s * E - special.gammaln(E + 1.0))

        m, _ = _quad(f, 0.0, np.inf, epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)
        total += s**ell * m
    return total


def planar_gaussian(x: float, y: float) -> float:
    """4.23 left side by its exact angular reduction:
    the double integral of x^E y^F G(1+(E+F)/2) sinc(E-F) / (G(1+E) G(1+F))."""
    lx, ly = math.log(x), math.log(y)

    def f(F, E):
        lg = (E * lx + F * ly + special.gammaln(1.0 + 0.5 * (E + F))
              - special.gammaln(1.0 + E) - special.gammaln(1.0 + F))
        return math.exp(lg) * np.sinc(E - F)

    val, _ = integrate.dblquad(f, 0.0, 60.0, 0.0, 60.0, epsabs=1e-11, epsrel=1e-10)
    return val
