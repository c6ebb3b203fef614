"""Tests for the command-line front end: formats, exit codes, determinism."""

import importlib
import json
import math

import numpy as np
import pytest

import nufunc.cli as cli
from nufunc import (
    DomainError,
    HyperParams,
    QuadSpec,
    StructureFn,
    nu,
    nu_alpha_detailed,
    nu_general,
    nu_general_detailed,
)
from nufunc.cli import main, parse_complex_literal

SPEC = QuadSpec()
EPS = float(np.finfo(float).eps)
# The package's `nu` function shadows the `nufunc.nu` module attribute.
NU_MODULE = importlib.import_module("nufunc.nu")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal parsing
# ---------------------------------------------------------------------------


def test_parse_complex_literal_forms():
    assert parse_complex_literal("2") == 2 + 0j
    assert parse_complex_literal("-1.5") == -1.5 + 0j
    assert parse_complex_literal("2i") == 2j
    assert parse_complex_literal("i") == 1j
    assert parse_complex_literal("-i") == -1j
    assert parse_complex_literal("1+2i") == 1 + 2j
    assert parse_complex_literal("0.5-0.25i") == 0.5 - 0.25j
    with pytest.raises(ValueError):
        parse_complex_literal("")
    with pytest.raises(ValueError):
        parse_complex_literal("one")


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------


def test_eval_nu_scalar_matches_library(capsys):
    code, out, err = run_cli(capsys, "eval", "nu", "--z", "1")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "input,re,im,est_err"
    fields = lines[1].split(",")
    assert float(fields[0]) == 1.0
    expect = nu(1.0, SPEC)
    assert math.isclose(float(fields[1]), expect.real, rel_tol=1e-15)
    assert float(fields[2]) == 0.0
    assert float(fields[3]) < 1e-8


def test_eval_output_is_byte_identical_between_runs(capsys):
    _, out1, _ = run_cli(capsys, "eval", "nu", "--z", "0.7")
    _, out2, _ = run_cli(capsys, "eval", "nu", "--z", "0.7")
    assert out1 == out2


def test_eval_csv_round_trip_is_byte_identical(capsys):
    # re-parsing the printed 17-significant-digit values and re-formatting
    # them reproduces the payload byte for byte
    _, out, _ = run_cli(capsys, "eval", "nu", "--grid", "0.2:2:5")
    lines = out.strip().splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(cli._fmt(float(v)) for v in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == out


def test_eval_grid_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "pfq", "--grid", "0:2:3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [row["input"] for row in data] == [0.0, 1.0, 2.0]
    assert math.isclose(data[2]["re"], math.exp(2.0), rel_tol=1e-12)
    assert all(set(row) == {"input", "re", "im", "est_err"} for row in data)


def test_eval_gnu_complex_scalar(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "gnu", "--p", "1", "--q", "1", "--a", "1", "--b", "2",
        "--z", "0.5+0.5i",
    )
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    sf = StructureFn(HyperParams(1, 1, (1.0,), (2.0,)))
    expect = nu_general(sf, 0.5 + 0.5j, SPEC)
    assert math.isclose(float(fields[0]), abs(0.5 + 0.5j), rel_tol=1e-15)
    assert math.isclose(float(fields[1]), expect.real, rel_tol=1e-12)
    assert math.isclose(float(fields[2]), expect.imag, rel_tol=1e-12)


def test_eval_nu_alpha_requires_alpha(capsys):
    code, out, err = run_cli(capsys, "eval", "nu-alpha", "--z", "1")
    assert (code, out, err) == (2, "", "usage error: --alpha is required for 'nu-alpha'\n")


def test_eval_overlap_scalar_only(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "overlap", "--bra", "0.5", "--ket", "0.5",
    )
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    # self-overlap of identical labels is exactly 1
    assert float(fields[0]) == 0.0
    assert float(fields[1]) == 1.0
    assert float(fields[2]) == 0.0


def test_eval_overlap_of_large_labels(capsys):
    code, out, _ = run_cli(capsys, "eval", "overlap", "--bra", "20", "--ket", "19+1i")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    value = complex(float(fields[1]), float(fields[2]))
    assert abs(value) == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert 0.0 < float(fields[3]) < 1e-9


def _count_calls(monkeypatch, name):
    """Record the calls of the private ν core `name`."""
    calls = []
    core = getattr(NU_MODULE, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return core(*args, **kwargs)

    monkeypatch.setattr(NU_MODULE, name, counted)
    return calls


def test_one_normalizer_per_answer(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "_nu_integral")
    code, out, _ = run_cli(capsys, "table", "density", "--zsq", "2.5", "--grid", "0:9:20")
    assert code == 0 and len(out.strip().splitlines()) == 21
    assert len(calls) == 1
    calls.clear()
    code, _, _ = run_cli(capsys, "eval", "overlap", "--bra", "0.5", "--ket", "0.2+0.1i")
    # One panel tree holds nu(conj(z)*z'), nu(|z|^2) and nu(|z'|^2).
    assert code == 0 and len(calls) == 1


def test_eval_density_and_poisson(capsys):
    code, out, _ = run_cli(capsys, "eval", "density", "--zsq", "1.0", "--E", "1.0")
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[1])
    assert 0.0 < val < 1.0
    code, out, _ = run_cli(capsys, "eval", "poisson", "--zsq", "3.0", "--n", "2")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    expect = math.exp(-3.0) * 9.0 / 2.0
    assert math.isclose(float(fields[1]), expect, rel_tol=1e-14)
    # A count that is not an integer names itself instead of being rounded.
    for n in ("inf", "nan", "2.5"):
        code, out, err = run_cli(capsys, "eval", "poisson", "--zsq", "1", "--n", n)
        expect = f"usage error: --n: poisson needs an integer n, got {float(n)}\n"
        assert (code, out, err) == (2, "", expect)
    code, out, err = run_cli(capsys, "table", "poisson", "--zsq", "1", "--grid", "0:1:3")
    expect = "usage error: --grid: poisson needs an integer n, got 0.5\n"
    assert (code, out, err) == (2, "", expect)


def test_eval_writes_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "eval", "nu", "--z", "1", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("input,re,im,est_err")


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------


def test_table_requires_grid(capsys):
    code, out, err = run_cli(capsys, "table", "nu", "--z", "1")
    assert (code, out, err) == (2, "", "usage error: table requires --grid\n")


def test_table_matches_eval_with_grid(capsys):
    _, out_eval, _ = run_cli(capsys, "eval", "nu", "--grid", "0.5:1.5:3")
    _, out_table, _ = run_cli(capsys, "table", "nu", "--grid", "0.5:1.5:3")
    assert out_table == out_eval


def test_log_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "nu", "--grid", "0.1:10:3:log")
    assert code == 0
    inputs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert inputs[0] == pytest.approx(0.1)
    assert inputs[1] == pytest.approx(1.0)
    assert inputs[2] == pytest.approx(10.0)


def _table_rows(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    return [tuple(float(x) for x in line.split(",")) for line in out.strip().splitlines()[1:]]


def _agrees(re_, im_, est, ref, ulps=4):
    """A table row against a one-argument call: within the larger error
    estimate plus `ulps` ulps of the value."""
    v = complex(ref.value)
    return abs(complex(re_, im_) - v) <= max(est, ref.error_estimate) + ulps * EPS * abs(v)


FAMILY_TABLES = [
    ([], HyperParams(0, 0), "0.08:12:30:log"),
    (["--p", "1", "--q", "1", "--a", "1.5", "--b", "2"], HyperParams(1, 1, (1.5,), (2.0,)), "0.05:20:20:log"),
    (["--p", "1", "--q", "2", "--a", "1.5", "--b", "2,0.7"], HyperParams(1, 2, (1.5,), (2.0, 0.7)), "0.1:12:12"),
    (["--p", "2", "--q", "1", "--a", "1.5,0.8", "--b", "2"], HyperParams(2, 1, (1.5, 0.8), (2.0,)), "0.04:0.65:10"),
]


@pytest.mark.parametrize("flags, params, grid", FAMILY_TABLES, ids=["plain", "11", "12", "21"])
def test_table_rows_agree_with_one_argument_calls(capsys, flags, params, grid):
    fn = "gnu" if flags else "nu"
    rows = _table_rows(capsys, "table", fn, *flags, "--grid", grid)
    sf = StructureFn(params)
    assert len(rows) == int(grid.split(":")[2])
    for x, re_, im_, est in rows:
        assert _agrees(re_, im_, est, nu_general_detailed(sf, x, SPEC))


# At alpha = -2 the integrand changes sign at E = 1 and the sum runs over
# ~200 panels: at w = 2.936 the table row and the one-argument call differ
# by 6 ulps, each within 4 ulps of the true value (checked with mpmath),
# a rounding floor that est_err does not count.
@pytest.mark.parametrize("alpha, ulps", [("1.2", 4), ("-0.3", 4), ("-2", 8)])
def test_nu_alpha_table_rows_agree_with_one_argument_calls(capsys, alpha, ulps):
    rows = _table_rows(capsys, "table", "nu-alpha", f"--alpha={alpha}", "--grid", "0.4:3.5:12")
    for x, re_, im_, est in rows:
        assert _agrees(re_, im_, est, nu_alpha_detailed(x, float(alpha), SPEC), ulps)


@pytest.mark.parametrize(
    "argv, call",
    [
        (["nu", "--z", "1"], lambda: nu_general_detailed(StructureFn(HyperParams(0, 0)), 1.0, SPEC)),
        (["nu-alpha", "--z", "1", "--alpha", "-2"], lambda: nu_alpha_detailed(1.0, -2.0, SPEC)),
    ],
    ids=["nu", "nu-alpha"],
)
def test_z_row_is_the_one_argument_call_bit_for_bit(capsys, argv, call):
    # --z is a one-row table, and a single call is the one-row array.
    (row,) = _table_rows(capsys, "eval", *argv)
    res = call()
    assert repr(row) == repr((1.0, res.value.real, res.value.imag, res.error_estimate))


def test_table_with_zero_and_negative_rows(capsys):
    rows = _table_rows(capsys, "table", "nu", "--grid=-2:2:5")
    assert [r[0] for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert rows[2] == (0.0, 0.0, 0.0, 0.0)
    for x, re_, im_, est in rows[:2] + rows[3:]:
        assert _agrees(re_, im_, est, nu_general_detailed(StructureFn(HyperParams(0, 0)), x, SPEC))
    # Without '=' argparse takes the grid for a flag.
    with pytest.raises(SystemExit) as exc:
        main(["table", "nu", "--grid", "-2:2:5"])
    assert exc.value.code == 2


def test_table_domain_errors_name_the_first_bad_row(capsys):
    flags = ["--p", "2", "--q", "1", "--a", "1.5,0.8", "--b", "2"]
    code, out, err = run_cli(capsys, "table", "gnu", *flags, "--grid", "0.5:1.5:5")
    sf = StructureFn(HyperParams(2, 1, (1.5, 0.8), (2.0,)))
    with pytest.raises(DomainError) as exc:
        nu_general_detailed(sf, 1.0, SPEC)
    assert (code, out) == (3, "")
    assert err == f"domain error: {exc.value}\n"
    assert err.endswith("got |w| = 1\n")
    code, out, err = run_cli(capsys, "table", "nu-alpha", "--alpha", "1", "--grid", "0:2:5")
    assert (code, out, err) == (3, "", "domain error: nu_alpha requires w > 0, got 0.0\n")


def test_a_row_that_misses_its_tolerance_fails_the_whole_table(capsys):
    # nu_alpha(w, -1.5) changes sign near its first row, whose value is a
    # small remainder of the integral of |f|; the other rows meet their
    # tolerance, but the table prints none of them.
    code, out, err = run_cli(
        capsys, "table", "nu-alpha", "--alpha", "-1.5", "--grid", "0.10611229234938868:0.2:3"
    )
    assert (code, out) == (3, "")
    assert err.startswith("numerical error: nu_alpha (alpha = -1.5) at w = 0.106112 misses rel_tol")


def test_one_tree_per_table(capsys, monkeypatch):
    # nu, gnu and nu-alpha share one integral core.
    calls = _count_calls(monkeypatch, "_nu_integral")
    assert len(_table_rows(capsys, "table", "nu", "--grid", "0.1:10:30:log")) == 30
    assert len(calls) == 1
    assert len(_table_rows(capsys, "eval", "gnu", *FAMILY_TABLES[1][0], "--grid", "0.1:10:12")) == 12
    assert len(calls) == 2
    assert len(_table_rows(capsys, "table", "nu-alpha", "--alpha", "0.5", "--grid", "0.5:3:12")) == 12
    assert len(calls) == 3
    # Wide tables run in chunks of rows, one tree each.
    rows = _table_rows(capsys, "table", "nu", "--grid", "0.1:10:130")
    assert len(calls) == 3 + 3 and len(rows) == 130
    rows = _table_rows(capsys, "table", "gnu", *FAMILY_TABLES[1][0], "--grid", "0.1:10:70")
    assert len(calls) == 6 + 2 and len(rows) == 70
    rows = _table_rows(capsys, "table", "nu-alpha", "--alpha", "0.5", "--grid", "0.5:3:70")
    assert len(calls) == 8 + 2 and len(rows) == 70


@pytest.mark.parametrize(
    "argv",
    [["nu"], ["gnu", *FAMILY_TABLES[1][0]], ["gnu", *FAMILY_TABLES[3][0]], ["nu-alpha", "--alpha=-1.5"]],
    ids=["nu", "gnu11", "gnu21", "nu-alpha"],
)
def test_one_row_grid_prints_the_bytes_of_z(capsys, argv):
    for z in ("0.7", "0.03"):
        _, by_z, _ = run_cli(capsys, "eval", *argv, "--z", z)
        _, by_grid, _ = run_cli(capsys, "table", *argv, "--grid", f"{z}:{z}:1")
        assert by_grid == by_z and by_z.count("\n") == 2


def test_bad_grid_is_usage_error(capsys):
    # A count past the cap is refused before any row is allocated.
    for grid, message in (
        ("1:2", "grid must be start:stop:count or start:stop:count:log"),
        ("-1:10:3:log", "log grids require positive endpoints"),
        ("0:inf:3", "grid endpoints must be finite"),
        ("nan:1:3", "grid endpoints must be finite"),
        ("0:1:10000000000000", "grid count must be between 1 and 100000, got 10000000000000"),
    ):
        code, out, err = run_cli(capsys, "table", "nu", f"--grid={grid}")
        assert (code, out, err) == (2, "", f"usage error: --grid: {message}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", "gnu", "--z", "1+"], "--z"),
        (["eval", "nu", "--z", "x"], "--z"),
        (["eval", "gnu", "--p", "1", "--q", "1", "--a", "x", "--b", "2", "--z", "1"], "--a"),
        (["eval", "overlap", "--bra", "1", "--ket", "1i+"], "--ket"),
        (["doot", "--expr", "1", "--bra", "1+", "--ket", "1"], "--bra"),
    ],
)
def test_flag_value_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(f"usage error: {flag}: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes for evaluation failures
# ---------------------------------------------------------------------------


def test_divergent_family_exits_three(capsys):
    code, out, err = run_cli(
        capsys, "eval", "gnu", "--p", "2", "--q", "0", "--a", "1,1", "--z", "0.5",
    )
    assert code == 3
    assert "domain error" in err


def test_unit_disc_boundary_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "eval", "gnu", "--p", "1", "--q", "0", "--a", "2", "--z", "1.5",
    )
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("doot", "--expr", "exp(2000*Ap)", "--bra", "0.5", "--ket", "0.5"), "numerical error"),
        (("doot", "--expr", "Ap^2000", "--bra", "5", "--ket", "5"), "numerical error"),
        (("doot", "--expr", "Ap^1e400", "--bra", "0.5", "--ket", "0.5"), "numerical error"),
        (("eval", "pfq", "--z", "nan"), "domain error: pfq_series requires a finite argument"),
        (("eval", "poisson", "--zsq", "nan", "--n", "1"), "domain error: squared modulus"),
        (("eval", "pfq", "--z", "900"), "numerical error: series sum overflows at |w|=900"),
        (("eval", "nu", "--z", "711"), "numerical error: panel sums are non-finite on ["),
    ],
    ids=[
        "doot-exp", "doot-power", "doot-inf-exponent", "pfq-nan", "poisson-nan", "pfq-overflow",
        "nu-overflow",
    ],
)
def test_non_finite_values_exit_three(capsys, argv, kind):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(kind)


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------


def test_check_single_case_emits_json_and_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--filter", "4.19")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["id"] == "4.19"
    assert data[0]["pass"] is True


def test_check_exit_one_on_failure(capsys, monkeypatch):
    from nufunc.identities import check_laplace_nu

    failing = check_laplace_nu(2.0, tol=1e-18)
    assert not failing.passed
    monkeypatch.setattr(cli, "run_suite", lambda **kw: [failing])
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert json.loads(out)[0]["pass"] is False


def test_check_out_file(tmp_path, capsys):
    target = tmp_path / "reports.json"
    code, out, _ = run_cli(
        capsys, "check", "--filter", "4.21", "--out", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert len(data) == 2
    assert all(row["status"] == "formal" for row in data)


# ---------------------------------------------------------------------------
# doot command
# ---------------------------------------------------------------------------


def test_doot_number_operator(capsys):
    code, out, _ = run_cli(
        capsys, "doot", "--expr", "#Ap*Am#", "--bra", "z", "--ket", "z",
        "--z", "1",
    )
    assert code == 0
    re_part, im_part = out.strip().split(",")
    assert float(re_part) == 1.0
    assert float(im_part) == 0.0


def test_doot_displacement_value_matches_nu(capsys):
    code, out, _ = run_cli(
        capsys, "doot",
        "--expr", "nu[0,0;;](#exp(z*Ap - conj(z)*Am)#)",
        "--bra", "z", "--ket", "z", "--z", "0.3+0.4i",
    )
    assert code == 0
    re_part, _ = out.strip().split(",")
    expect = nu(1.0, SPEC).real
    assert math.isclose(float(re_part), expect, rel_tol=1e-15)


def test_doot_literal_labels_and_overlap(capsys):
    # different labels multiply in the overlap factor; |<bra|ket>| <= 1
    code, out, _ = run_cli(
        capsys, "doot", "--expr", "1", "--bra", "0.5", "--ket", "0.2+0.1i",
    )
    assert code == 0
    re_part, im_part = out.strip().split(",")
    assert abs(complex(float(re_part), float(im_part))) <= 1.0


def test_doot_parse_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "doot", "--expr", "Ap Am", "--bra", "1", "--ket", "1",
    )
    assert code == 2
    assert "parse error" in err and "position" in err


def test_doot_symbolic_label_requires_z(capsys):
    code, out, err = run_cli(capsys, "doot", "--expr", "1", "--bra", "z", "--ket", "z")
    assert (code, out, err) == (2, "", "usage error: --bra='z' requires --z\n")


def test_doot_byte_identical_runs(capsys):
    args = (
        "doot", "--expr", "#exp(0.3*Ap)*exp(0.3*Am)#",
        "--bra", "0.4+0.1i", "--ket", "0.4+0.1i",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_zero_tolerance_is_usage_error(capsys):
    # --tol 0 reaches QuadSpec like any other value instead of meaning "unset"
    for argv in (
        ("eval", "nu", "--z", "1", "--tol", "0"),
        ("doot", "--expr", "1", "--bra", "0.5", "--ket", "0.5", "--tol", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage error: QuadSpec.rel_tol must be > 0" in err
    # check's --tol is the identities' own tolerance: 0 asks for exact
    # agreement, while NaN or a negative value would fail every case.
    for tol in ("nan", "-1"):
        code, out, err = run_cli(capsys, "check", "--filter", "4.19", "--tol", tol)
        assert (code, out) == (2, "") and err == f"usage error: --tol must be >= 0, got {float(tol)}\n"
