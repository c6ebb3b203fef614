"""The power series sum_n w^n / rho(n): pinned bit for bit, and its log
against reference values.

data/pfq_series_hex.json holds `pfq_series` on a grid of five families
(plain, 1F1, 1F2, 2F1 and (1,0; 1; )) at real, negative and complex
arguments, every float stored as ``float.hex``, so a change to the series
loop that should move no number is held to exactly that.

To rewrite the file from the current code (only after a deliberate change of
numbers), run ``PYTHONPATH=src python tests/test_series.py``.
"""

import cmath
import json
import math
import pathlib

import pytest

from nufunc.nu import HyperParams, pfq_series, pfq_series_log

DATA = pathlib.Path(__file__).parent / "data" / "pfq_series_hex.json"

PLAIN = (0, 0, (), ())
F11 = (1, 1, (1.5,), (2.0,))
F12 = (1, 2, (0.5,), (2.0, 3.5))
F21 = (2, 1, (1.0, 1.5), (2.0,))
F10 = (1, 0, (1.0,), ())

PHASES = (0.5, 1.5, 2.5, 3.0)


def grid():
    """(family, w) pairs: each family at every modulus r as w = r, -r and
    r*exp(i*phase), and the plain family where its terms pass 2**900 and its
    sum nears the float limit."""
    moduli = {
        PLAIN: (0.01, 0.5, 3.0, 40.0, 300.0, 650.0, 700.0),
        F11: (0.01, 0.5, 3.0, 40.0, 300.0, 650.0),
        F12: (0.01, 0.5, 3.0, 40.0, 300.0, 650.0, 1e5),
        F21: (0.01, 0.5, 0.9, 0.99),
        F10: (0.01, 0.5, 0.9, 0.99),
    }
    cases = [
        (f, w) for f, rs in moduli.items() for r in rs
        for w in (complex(r), complex(-r), *(cmath.rect(r, t) for t in PHASES))
    ]
    return cases + [(PLAIN, 707 + 0j), (PLAIN, 2 + 3j)]


def row(family, w):
    p, q, a, b = family
    v = pfq_series(HyperParams(*family), w)
    return [p, q, list(a), list(b), *map(float.hex, (w.real, w.imag, v.real, v.imag))]


def test_pfq_series_matches_its_pinned_bits():
    rows = json.loads(DATA.read_text())
    assert len(rows) == len(grid())
    for p, q, a, b, *hexes in rows:
        w_re, w_im = (float.fromhex(h) for h in hexes[:2])
        assert row((p, q, tuple(a), tuple(b)), complex(w_re, w_im)) == [p, q, a, b, *hexes]


# ln pFq(a; b; w) from 40-digit mpmath (log of mpmath.hyper at w as the
# double given), at the w < 1 values only for the unit-disc families.
LOG_REFERENCE = {
    PLAIN: {
        0.01: "0.01000000000000000020816682", 0.5: "0.5", 3.0: "3.0", 40.0: "40.0",
        700.0: "700.0", 800.0: "800.0", 1e4: "10000.0",
    },
    F11: {
        0.01: "0.007503122395836585305271127", 0.5: "0.3824879423174924433045044",
        3.0: "2.466371346235722633232007", 40.0: "38.27001198123124651909149",
        700.0: "696.8448846717279473318573", 800.0: "796.7781636782032233112702",
        1e4: "9995.51558705039700799128",
    },
    F12: {
        0.01: "0.0007144274259765775391694186", 0.5: "0.03606708585399842779833579",
        3.0: "0.2266628313346674577338852", 40.0: "3.860944577404399638461281",
        700.0: "37.56145041643062217263832", 800.0: "40.912886074217478832166",
        1e4: "178.6455854569893301271515",
    },
    F21: {0.01: "0.007534595354360816271900346", 0.5: "0.5049207741003475936018549"},
    F10: {0.01: "0.01005033585350144139381837", 0.5: "0.6931471805599453094172321"},
}


@pytest.mark.parametrize("family", list(LOG_REFERENCE), ids=["plain", "F11", "F12", "F21", "F10"])
def test_pfq_series_log_is_within_four_eps_of_reference(family):
    eps = 2.0**-52
    for w, ref in LOG_REFERENCE[family].items():
        ref = float(ref)
        got = pfq_series_log(HyperParams(*family), w)
        assert abs(got - ref) <= 4.0 * eps * max(1.0, abs(ref)), (w, got, ref)


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(row(f, w)) for f, w in grid()) + "\n]\n")
