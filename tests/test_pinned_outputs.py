"""Identity reports, nu peak probes and inverse-digamma values, pinned bit for bit.

The pinned values live in data/pinned_outputs.json, with every float stored
as ``float.hex``, so a refactor that should change no number is held to
exactly that.  Reports are pinned in every field but ``runtime_ms``.

To rewrite the file from the current code (only after a deliberate change of
numbers), run ``PYTHONPATH=src python tests/test_pinned_outputs.py``.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from nufunc import identities
from nufunc.identities import run_suite
from nufunc.nu import HyperParams, StructureFn, _nu_probe
from nufunc.quadrature import QuadSpec
from nufunc.special import digamma_inverse

DATA = pathlib.Path(__file__).parent / "data" / "pinned_outputs.json"

PLAIN = (0, 0, (), ())

# The registered cases, with and without overrides; a panel budget of 4
# makes the nested cases raise, so their rows are error rows.
SUITES = {
    "registered": lambda: run_suite(),
    "registered, tol 0.5": lambda: run_suite(tol=0.5),
    "registered, rel_tol 1e-3": lambda: run_suite(spec=QuadSpec(rel_tol=1e-3)),
    "error rows": lambda: run_suite(spec=QuadSpec(max_panels=4)),
    "error rows, tol 1e-3": lambda: run_suite(spec=QuadSpec(max_panels=4), tol=1e-3),
}

# The checks of the benchmark's nested_suite round at seed 1: (check,
# family or None, arguments).
NESTED_SEED_1 = [
    ("check_derivative_relation", None, (0.7074913952899209, 1)),
    ("check_derivative_relation", None, (1.2779469895497861, 2)),
    ("check_weighted_nu_integral", PLAIN, (2.1105509847590644,)),
    ("check_weighted_nu_integral", (1, 1, (1.0,), (1.990202761029577,)), (2.4998174034836778,)),
    ("check_laplace_nu", None, (2.09797964259155,)),
    ("check_eq_4_20", None, (0.5030318594544553, 3.0115489340454205)),
    ("check_formal_series_4_21", None, (0.0918771917354847, 10)),
    ("check_formal_series_4_21", None, (1.405669495304401, 20)),
    ("check_eq_4_22", PLAIN, (2.0567153020783975, 0.9973106827162022)),
    ("check_eq_4_22", (1, 1, (1.0,), (2.0104912032983178,)), (2.4800842421340445, 0.49890774388109604)),
]

# (family, ln|w|): the benchmark's four families, and one whose small upper
# entry makes g convex near E = 0.  Between them they take the Newton probe,
# the convex probe and both fallbacks to locate_peak.
PROBE_CASES = [
    *((PLAIN, v) for v in (-6.0, -1.0, 0.0, 1.5, 4.0, 6.2)),
    *(((1, 1, (1.5,), (2.0,)), v) for v in (-3.0, 0.5, 3.0)),
    *(((1, 2, (1.5,), (2.0, 0.7)), v) for v in (-2.0, 0.7, 2.5)),
    *(((2, 1, (1.5, 0.8), (2.0,)), v) for v in (-5.0, -0.7, -0.01)),
    *(((1, 1, (0.01,), (1.0,)), v) for v in (-3.0, 0.0, 2.0, 4.6, 8.0)),
]

DIGAMMA_INVERSE_GRID = [
    *np.linspace(-25.0, 25.0, 201).tolist(),
    -1e150, -1e5, -2.2200000000000002, -2.22, 100.0, 700.0, math.log(np.finfo(float).max),
]


def _hex(v):
    return float(v).hex() if isinstance(v, float) else v


def _report(r) -> dict:
    fields = r.to_json_dict()
    del fields["runtime_ms"]
    return {k: _hex(v) for k, v in fields.items()}


def _nested(fn, fam, args):
    check = getattr(identities, fn)
    fam = (StructureFn(HyperParams(*fam)),) if fam is not None else ()
    return _report(check(*fam, *args))


def _probe(fam, log_r):
    p = _nu_probe(StructureFn(HyperParams(*fam)), log_r)
    return [_hex(p.peak_location), _hex(p.truncation_point), _hex(p.peak_log_value)]


def _current() -> dict:
    return {
        "suites": {name: [_report(r) for r in run()] for name, run in SUITES.items()},
        "nested_seed_1": [_nested(*case) for case in NESTED_SEED_1],
        "nu_probe": [_probe(*case) for case in PROBE_CASES],
        "digamma_inverse": [_hex(digamma_inverse(t)) for t in DIGAMMA_INVERSE_GRID],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_reports_are_pinned(pinned, name):
    assert [_report(r) for r in SUITES[name]()] == pinned["suites"][name]


@pytest.mark.parametrize("k", range(len(NESTED_SEED_1)), ids=[c[0] for c in NESTED_SEED_1])
def test_nested_seed_1_reports_are_pinned(pinned, k):
    assert _nested(*NESTED_SEED_1[k]) == pinned["nested_seed_1"][k]


def test_nu_probes_are_pinned(pinned):
    assert [_probe(*case) for case in PROBE_CASES] == pinned["nu_probe"]


def test_digamma_inverse_is_pinned(pinned):
    assert [_hex(digamma_inverse(t)) for t in DIGAMMA_INVERSE_GRID] == pinned["digamma_inverse"]


if __name__ == "__main__":
    DATA.write_text(json.dumps(_current(), indent=1) + "\n", encoding="utf-8")
