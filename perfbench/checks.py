"""Correctness checks: every output against the oracle, plus the properties
the method must have.

A value passes when |value - oracle| <= max(C_EST * est_err, REL * |oracle|),
with ``est_err`` the library's own error estimate where it reports one
(0 otherwise).  Overlaps report none, and their numerator can cancel, so
for them |oracle| is replaced by the larger of |oracle| and the overlap's
envelope (see ``oracle.overlap_envelope``).  The README gives the reasons
for both constants.
"""

from __future__ import annotations

import cmath
import json
import math

import oracle
from workloads import F11, PLAIN

C_EST = 10.0
REL = 1e-9
# Criterion 8 of the library's acceptance table: the plain series is e^w.
PFQ_PLAIN_REL = 1e-12
# Poisson rows over a grid that holds the whole mass sum to 1.
POISSON_SUM_ABS = 1e-12
OVERLAP_BOUND = 1.0 + 1e-12


def close(value, expected, est=0.0, rel=REL, scale=0.0) -> bool:
    return abs(value - expected) <= max(C_EST * est, rel * max(abs(expected), scale))


def _overlap_expected(fam, z1, z2):
    """(overlap, scale its tolerance refers to)."""
    if complex(z1) == complex(z2):
        return 1.0 + 0.0j, 1.0
    return oracle.overlap(fam, z1, z2), oracle.overlap_envelope(fam, z1, z2)


def _doot_expected(template, bra, ket):
    """(value, scale): a prefactor times the plain-family overlap."""
    bra, ket = complex(bra), complex(ket)
    ov, env = _overlap_expected(PLAIN, bra, ket)
    cb = bra.conjugate()
    if template == "displacement":
        pref, pref_env = oracle.nu(PLAIN, 1.0), 0.0
    elif template == "number":
        pref = pref_env = cb * ket
    elif template == "family_nu":
        pref = pref_env = oracle.nu(F11, abs(bra) ** 2)
    elif template == "polynomial":
        pref = pref_env = 2.5 * cb**2 - 0.5j * ket
    elif template == "exp_nu":
        pref = cmath.exp(cb) * oracle.nu(PLAIN, ket)
        pref_env = abs(cmath.exp(cb)) * oracle.nu(PLAIN, abs(ket)).real
    else:
        raise ValueError(f"unknown template {template!r}")
    return pref * ov, abs(pref_env) * env


def _rows(text: str):
    """(input, re, im, est_err) rows of a CSV or JSON table."""
    if text.lstrip().startswith("["):
        return [(r["input"], r["re"], r["im"], r["est_err"]) for r in json.loads(text)]
    lines = text.strip().splitlines()
    if lines[0] != "input,re,im,est_err":
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _check_cli(op, out, problems) -> bool:
    rc, text = out
    if rc != 0:
        return False
    check, arg = op["check"], op["arg"]
    if check == "doot":
        template, bra, ket = arg
        re_, im_ = (float(x) for x in text.strip().split(","))
        exact, scale = _doot_expected(template, bra, ket)
        return close(complex(re_, im_), exact, scale=scale)
    rows = _rows(text)
    ok = bool(rows)
    for x, re_, im_, est in rows:
        v = complex(re_, im_)
        if check == "nu":
            ok &= close(v, oracle.nu(arg, x), est)
        elif check == "nu_complex":
            fam, z = arg
            ok &= close(v, oracle.nu(fam, z), est)
        elif check == "nu_alpha":
            ok &= im_ == 0.0 and close(re_, oracle.nu_alpha(x, arg), est)
        elif check == "density":
            fam, zsq = arg
            ok &= im_ == 0.0 and close(re_, oracle.density(fam, zsq, x), est)
        elif check == "pfq":
            rel = PFQ_PLAIN_REL if arg == PLAIN else REL
            ok &= close(v, oracle.pfq(arg, x), rel=rel)
        elif check == "pfq_complex":
            fam, z = arg
            ok &= close(v, oracle.pfq(fam, z), rel=PFQ_PLAIN_REL)
        elif check == "poisson":
            ok &= close(re_, oracle.poisson(arg, int(x)))
        elif check == "overlap":
            exact, scale = _overlap_expected(*arg)
            ok &= close(v, exact, est, scale=scale)
            if abs(v) > OVERLAP_BOUND:
                problems.append(f"|overlap| = {abs(v)!r} > 1 for {op['argv']}")
        else:
            raise ValueError(f"unknown check {check!r}")
    if check == "poisson":
        total = math.fsum(r[1] for r in rows)
        if abs(total - 1.0) > POISSON_SUM_ABS:
            problems.append(f"poisson rows sum to {total!r} for {op['argv']}")
    return ok


def _check_identity(op, rep) -> bool:
    key, args, fam = op["id"], op["args"], op.get("fam")
    lhs, rhs = complex(*rep["lhs"]), complex(*rep["rhs"])
    if key == "1.6":
        z, n = args
        exact = oracle.nu_alpha(z, -float(n))
        # The left side is a central difference; the case's own tolerance
        # bounds its truncation error.
        return rep["passed"] and close(rhs, exact) and close(lhs, exact, rel=rep["tol"])
    if key == "4.21":
        s, L = args
        return close(lhs, oracle.nested_transform(s)) and close(rhs, oracle.formal_partial_sum(s, L))
    if key == "4.23":
        x, y = args
        # The identity's own verdict (pass: false) is the expected
        # mathematical result; the left side must still be the converged
        # value of its integral.
        return close(lhs, oracle.planar_gaussian(x, y)) and close(rhs, oracle.nu(PLAIN, x * y))
    if key == "4.18":
        exact = oracle.weighted_nu(fam, *args)
    elif key == "4.19":
        exact = oracle.laplace_nu(*args)
    elif key == "4.20":
        exact = oracle.power_weighted(*args)
    elif key == "4.22":
        exact = oracle.shifted_family(fam, *args)
    else:
        raise ValueError(f"unknown identity {key!r}")
    return rep["passed"] and close(lhs, exact) and close(rhs, exact)


def check_round(ops, outputs):
    """Indices of operations whose output is wrong, and property violations."""
    failed, problems = [], []
    displacement = set()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out[0] == "error":
            failed.append(i)
            continue
        kind = op["kind"]
        if kind == "nu":
            _, v, est = out
            ok = close(v, oracle.nu(op["fam"], op["w"]), est)
        elif kind == "nu_alpha":
            _, v, est = out
            ok = v.imag == 0.0 and close(v.real, oracle.nu_alpha(op["w"], op["alpha"]), est)
        elif kind == "nu_log":
            exact = oracle.nu_log(op["fam"], op["w"])
            ok = abs(out[1] - exact) <= REL * max(abs(exact), 1.0)
        elif kind == "overlap":
            v = out[1]
            exact, scale = _overlap_expected(op["fam"], op["z1"], op["z2"])
            ok = close(v, exact, scale=scale)
            if abs(v) > OVERLAP_BOUND:
                problems.append(f"|overlap| = {abs(v)!r} > 1 at {op['z1']}, {op['z2']}")
        elif kind == "density":
            ok = close(out[1], oracle.density(op["fam"], op["zsq"], op["E"]))
        elif kind == "doot":
            v = out[1]
            exact, scale = _doot_expected(op["template"], op["bra"], op["ket"])
            ok = close(v, exact, scale=scale)
            if op["template"] == "displacement":
                displacement.add(repr(v))
        elif kind == "cli":
            ok = _check_cli(op, out[1:], problems)
        elif kind == "identity":
            ok = _check_identity(op, out[1])
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        if not ok:
            failed.append(i)
    if len(displacement) > 1:
        problems.append(f"displacement expectation varies across labels: {sorted(displacement)}")
    return failed, problems
