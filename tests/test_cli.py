"""Tests for the command-line front end: formats, exit codes, determinism."""

import importlib
import json
import math

import pytest

import nufunc.cli as cli
from nufunc import HyperParams, QuadSpec, StructureFn, nu, nu_general
from nufunc.cli import main, parse_complex_literal

SPEC = QuadSpec()


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
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nu-alpha", "--z", "1"])
    assert exc.value.code == 2


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


def test_one_normalizer_per_answer(capsys, monkeypatch):
    # The package's `nu` function shadows the `nufunc.nu` module attribute.
    nu_module = importlib.import_module("nufunc.nu")
    calls = []
    core = nu_module._nu_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return core(*args, **kwargs)

    monkeypatch.setattr(nu_module, "_nu_integral", counted)
    code, out, _ = run_cli(capsys, "table", "density", "--zsq", "2.5", "--grid", "0:9:20")
    assert code == 0 and len(out.strip().splitlines()) == 21
    assert len(calls) == 1
    calls.clear()
    code, _, _ = run_cli(capsys, "eval", "overlap", "--bra", "0.5", "--ket", "0.2+0.1i")
    assert code == 0 and len(calls) == 3


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


def test_eval_writes_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "eval", "nu", "--z", "1", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("input,re,im,est_err")


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------


def test_table_requires_grid():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nu", "--z", "1"])
    assert exc.value.code == 2


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


def test_bad_grid_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nu", "--grid", "1:2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "nu", "--grid=-1:10:3:log"])
    assert exc.value.code == 2


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


def test_doot_symbolic_label_requires_z():
    with pytest.raises(SystemExit) as exc:
        main(["doot", "--expr", "1", "--bra", "z", "--ket", "z"])
    assert exc.value.code == 2


def test_doot_byte_identical_runs(capsys):
    args = (
        "doot", "--expr", "#exp(0.3*Ap)*exp(0.3*Am)#",
        "--bra", "0.4+0.1i", "--ket", "0.4+0.1i",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
