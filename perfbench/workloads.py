"""Seeded inputs for the four benchmark workloads.

Each builder maps a seed to one round: the list of operations that a run
repeats, whole, until its time is up.  An operation is a plain dict (no
``nufunc`` objects), so the oracle can read the same list.  Families are
``(p, q, a, b)`` tuples.  Counts per kind are fixed and only the values
inside each kind's range follow the seed, so the cost of a round, and the
share of operations that fail, barely move from seed to seed.
"""

from __future__ import annotations

import cmath
import math
import random

PLAIN = (0, 0, (), ())
F11 = (1, 1, (1.5,), (2.0,))
F12 = (1, 2, (1.5,), (2.0, 0.7))
F21 = (2, 1, (1.5, 0.8), (2.0,))

# Label pairs with |z|^2 + |z'|^2 > 709.8, where the overlap normalizers
# overflow: (19, 18.9) should give ~0.995 and (20, 19+1i) ~0.37.  They do
# not depend on the seed, so the share of failed operations is fixed.
OVERLAP_OVERFLOW_PAIRS = ((19.0 + 0j, 18.9 + 0j), (20.0 + 0j, 19.0 + 1.0j))

# Scalarizer templates: (name, expression, whether bra == ket).
DOOT_TEMPLATES = (
    ("displacement", "nu[0,0;;](#exp(z*Ap - conj(z)*Am)#)", True),
    ("number", "#Ap*Am#", False),
    ("family_nu", "nu[1,1;1.5;2](Ap*Am)", True),
    ("polynomial", "2.5*Ap^2 - 0.5i*Am", False),
    ("exp_nu", "exp(Ap)*nu[0,0;;](Am)", False),
)

PLANAR_CASE = (0.3, 0.5)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _polar(rng, r_lo, r_hi, phase_lo, phase_hi):
    """Complex number with log-uniform modulus and a phase of either sign."""
    phase = rng.uniform(phase_lo, phase_hi) * rng.choice((-1.0, 1.0))
    return cmath.rect(_log_uniform(rng, r_lo, r_hi), phase)


def _label(rng, r_max):
    return cmath.rect(rng.uniform(0.2, r_max), rng.uniform(-math.pi, math.pi))


def point_mix(seed: int) -> list:
    """400 independent single calls; 8 of them are the overflow pairs.

    A run repeats the round at least three times (MIN_OPS), so more than
    ten calls lie beyond the 99th percentile.  Cheap plain-family calls
    dominate.  The 6 calls with alpha <= -0.5 (about 115 ms each at the
    reference speed, 1.5% of the round) are the slowest kind, so the 99th
    percentile falls inside that group rather than on the sparse edge
    between unlike kinds, and stays put from seed to seed.
    """
    rng = random.Random(seed)
    ops = []

    def add(n, make):
        for _ in range(n):
            ops.append(make())

    def signed(lo, hi):
        return complex(rng.choice((-1.0, 1.0)) * _log_uniform(rng, lo, hi))

    add(218, lambda: {"kind": "nu", "fam": PLAIN, "w": complex(_log_uniform(rng, 1e-2, 5e2))})
    add(20, lambda: {"kind": "nu", "fam": PLAIN, "w": complex(-_log_uniform(rng, 1e-2, 10.0))})
    add(24, lambda: {"kind": "nu", "fam": PLAIN, "w": _polar(rng, 0.05, 10.0, 0.05, 3.13)})
    for fam in (F11, F12):
        add(3, lambda fam=fam: {"kind": "nu", "fam": fam, "w": signed(0.05, 3.0)})
        add(3, lambda fam=fam: {"kind": "nu", "fam": fam, "w": _polar(rng, 0.05, 3.0, 0.05, 3.13)})
    add(6, lambda: {"kind": "nu", "fam": F21, "w": _polar(rng, 0.05, 0.4, 0.0, 0.5)})
    add(8, lambda: {"kind": "nu_alpha", "w": rng.uniform(0.5, 3.0), "alpha": rng.uniform(-0.45, 2.0)})
    add(6, lambda: {"kind": "nu_alpha", "w": rng.uniform(1.5, 2.5), "alpha": rng.uniform(-3.0, -0.6)})
    add(34, lambda: {"kind": "nu_log", "fam": PLAIN, "w": _log_uniform(rng, 1.0, 600.0)})
    add(4, lambda: {"kind": "nu_log", "fam": F11, "w": _log_uniform(rng, 1.0, 600.0)})
    add(11, lambda: {"kind": "overlap", "fam": PLAIN, "z1": _label(rng, 3.0), "z2": _label(rng, 3.0)})
    add(2, lambda: {"kind": "overlap", "fam": F11, "z1": _label(rng, 1.5), "z2": _label(rng, 1.5)})
    for k in range(8):
        z1, z2 = OVERLAP_OVERFLOW_PAIRS[k % 2]
        ops.append({"kind": "overlap", "fam": PLAIN, "z1": z1, "z2": z2, "known_fault": True})

    def density(fam):
        zsq = _log_uniform(rng, 0.5, 30.0)
        return {"kind": "density", "fam": fam, "zsq": zsq,
                "E": rng.uniform(0.0, zsq + 4.0 * math.sqrt(zsq) + 2.0)}

    add(20, lambda: density(PLAIN))
    add(7, lambda: density(F11))
    for k in range(20):
        name, text, diagonal = DOOT_TEMPLATES[k % len(DOOT_TEMPLATES)]
        z = _label(rng, 1.5)
        ket = z if diagonal else _label(rng, 1.5)
        ops.append({"kind": "doot", "template": name, "expr": text,
                    "bra": z, "ket": ket, "z": z})
    rng.shuffle(ops)
    return ops


def _r6(v: float) -> float:
    """Round to the 6 significant digits a command line carries."""
    return float(format(v, ".6g"))


def _r6c(z: complex) -> complex:
    return complex(_r6(z.real), _r6(z.imag))


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _cfmt(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _grid(lo, hi, count, log=False):
    return f"{_fmt(lo)}:{_fmt(hi)}:{count}" + (":log" if log else "")


def cli_tables(seed: int) -> list:
    """25 in-process ``nufunc`` command lines; each is one operation.

    ``check`` names the oracle or property the output is held to and
    ``arg`` what it needs beyond the printed rows.  Every number is drawn
    at the 6 digits the command line carries, so the oracle sees exactly
    the values the program parses.  A run makes at least 4 passes (MIN_OPS)
    and, at about 2 s a pass, fewer than 8, so its 99th percentile is
    always the second-slowest call, never the slowest in some runs and the
    second-slowest in others.
    """
    rng = random.Random(seed)

    def u(lo, hi):
        return _r6(rng.uniform(lo, hi))

    def label(r_max):
        return _r6c(_label(rng, r_max))

    fam11 = ["--p", "1", "--q", "1", "--a", "1.5", "--b", "2"]
    fam12 = ["--p", "1", "--q", "2", "--a", "1.5", "--b", "2,0.7"]
    fam21 = ["--p", "2", "--q", "1", "--a", "1.5,0.8", "--b", "2"]
    zsq_a, zsq_b = u(2.0, 6.0), u(8.0, 16.0)
    lam_a, lam_b = u(3.0, 8.0), u(10.0, 20.0)
    alphas = (u(0.0, 2.0), u(-0.45, 0.0), u(-2.02, -1.98))
    z_gnu = _r6c(_polar(rng, 0.2, 3.0, 0.1, 3.0))
    z_pfq = _r6c(_polar(rng, 0.5, 3.0, 0.1, 3.0))
    cmds = [
        ("nu", PLAIN, ["table", "nu", "--grid", _grid(u(0.08, 0.12), u(8.0, 12.0), 30, log=True)]),
        ("nu", F11, ["table", "gnu", *fam11, "--grid", _grid(u(0.04, 0.06), u(18.0, 22.0), 20, log=True)]),
        ("nu", F12, ["table", "gnu", *fam12, "--grid", _grid(u(0.1, 0.3), u(8.0, 12.0), 12)]),
        ("nu", F21, ["table", "gnu", *fam21, "--grid", _grid(u(0.04, 0.06), u(0.55, 0.65), 10)]),
        ("nu_alpha", alphas[0], ["table", "nu-alpha", f"--alpha={_fmt(alphas[0])}",
                                 "--grid", _grid(u(0.4, 0.6), u(2.5, 3.5), 12)]),
        ("nu_alpha", alphas[1], ["table", "nu-alpha", f"--alpha={_fmt(alphas[1])}",
                                 "--grid", _grid(u(0.4, 0.6), u(2.5, 3.5), 8)]),
        ("nu_alpha", alphas[2], ["table", "nu-alpha", f"--alpha={_fmt(alphas[2])}",
                                 "--grid", _grid(u(0.98, 1.02), u(1.98, 2.02), 2)]),
        ("density", (PLAIN, zsq_a), ["table", "density", "--zsq", _fmt(zsq_a),
                                     "--grid", _grid(0.0, zsq_a + 4.0 * math.sqrt(zsq_a), 20)]),
        ("density", (F11, zsq_b), ["table", "density", *fam11, "--zsq", _fmt(zsq_b),
                                   "--grid", _grid(0.0, zsq_b + 4.0 * math.sqrt(zsq_b), 12)]),
        ("pfq", PLAIN, ["table", "pfq", "--grid", _grid(0.0, u(4.0, 6.0), 50)]),
        ("pfq", F11, ["table", "pfq", *fam11, "--grid", _grid(0.0, u(4.0, 6.0), 40)]),
        ("pfq_complex", (PLAIN, z_pfq), ["eval", "pfq", f"--z={_cfmt(z_pfq)}"]),
        ("poisson", lam_a, ["table", "poisson", "--zsq", _fmt(lam_a), "--grid", "0:60:61"]),
        ("poisson", lam_b, ["table", "poisson", "--zsq", _fmt(lam_b), "--grid", "0:80:81"]),
        ("nu", PLAIN, ["eval", "nu", "--z", _fmt(u(0.5, 5.0))]),
        ("nu_alpha", alphas[0], ["eval", "nu-alpha", f"--alpha={_fmt(alphas[0])}", "--z", _fmt(u(0.5, 3.0))]),
        ("nu_complex", (F11, z_gnu), ["eval", "gnu", *fam11, f"--z={_cfmt(z_gnu)}"]),
    ]
    # Four 12-point tables of like cost hold the middle ranks, so the median
    # call time is not the boundary between two unlike commands.
    for k in range(4):
        fmt = ["--format", "json"] if k == 0 else []
        cmds.append(("nu", PLAIN, ["table", "nu", *fmt, "--grid",
                                   _grid(u(0.08, 0.12), u(8.0, 12.0), 12, log=True)]))
    for fam, extra in ((PLAIN, []), (F11, fam11)):
        bra, ket = label(3.0), label(3.0)
        cmds.append(("overlap", (fam, bra, ket),
                     ["eval", "overlap", *extra, f"--bra={_cfmt(bra)}", f"--ket={_cfmt(ket)}"]))
    z = label(1.5)
    cmds.append(("doot", ("displacement", z, z), ["doot", "--expr", DOOT_TEMPLATES[0][1],
                                                   "--bra", "z", "--ket", "z", f"--z={_cfmt(z)}"]))
    bra, ket = label(1.5), label(1.5)
    cmds.append(("doot", ("number", bra, ket), ["doot", "--expr", DOOT_TEMPLATES[1][1],
                                                f"--bra={_cfmt(bra)}", f"--ket={_cfmt(ket)}"]))
    return [{"kind": "cli", "check": c, "arg": a, "argv": argv} for c, a, argv in cmds]


def nested_suite(seed: int) -> list:
    """The identity checks whose left side is a nested integral (and 1.6).

    The costly cases draw their parameters within about 1% of a centre:
    between draws of 0.1 apart their cost jumps by up to 30% (the outer
    panel tree changes), which would make a run's figures follow its seed.
    """
    rng = random.Random(seed)
    u = rng.uniform
    return [
        {"kind": "identity", "fn": "check_derivative_relation", "id": "1.6", "args": (u(0.6, 1.4), 1)},
        {"kind": "identity", "fn": "check_derivative_relation", "id": "1.6", "args": (u(0.6, 1.4), 2)},
        {"kind": "identity", "fn": "check_weighted_nu_integral", "id": "4.18", "fam": PLAIN, "args": (u(2.08, 2.12),)},
        {"kind": "identity", "fn": "check_weighted_nu_integral", "id": "4.18",
         "fam": (1, 1, (1.0,), (u(1.98, 2.02),)), "args": (u(2.48, 2.52),)},
        {"kind": "identity", "fn": "check_laplace_nu", "id": "4.19", "args": (u(2.08, 2.12),)},
        {"kind": "identity", "fn": "check_eq_4_20", "id": "4.20", "args": (u(0.49, 0.51), u(2.98, 3.02))},
        {"kind": "identity", "fn": "check_formal_series_4_21", "id": "4.21", "args": (u(0.09, 0.11), 10)},
        {"kind": "identity", "fn": "check_formal_series_4_21", "id": "4.21", "args": (u(1.4, 1.6), 20)},
        {"kind": "identity", "fn": "check_eq_4_22", "id": "4.22", "fam": PLAIN, "args": (u(2.04, 2.06), u(0.98, 1.02))},
        {"kind": "identity", "fn": "check_eq_4_22", "id": "4.22",
         "fam": (1, 1, (1.0,), (u(1.98, 2.02),)), "args": (u(2.48, 2.52), u(0.49, 0.51))},
    ]


def planar_gaussian(seed: int) -> list:
    """The registered 4.23 case.  It fails today (its left side is 0.7%
    off), and a failing operation must not depend on the seed, so the
    labels are fixed."""
    del seed
    return [{"kind": "identity", "fn": "check_complex_gaussian", "id": "4.23",
             "args": PLANAR_CASE, "known_fault": True}]


BUILDERS = {
    "point_mix": point_mix,
    "cli_tables": cli_tables,
    "nested_suite": nested_suite,
    "planar_gaussian": planar_gaussian,
}

# A run goes on past --seconds, in whole rounds, until it has made this many
# operations: point_mix needs 1000 for ten calls to lie beyond its 99th
# percentile, and with 100 to 199 cli_tables calls that percentile is
# always the second-slowest call.
MIN_OPS = {"point_mix": 1000, "cli_tables": 100}
