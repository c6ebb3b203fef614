"""Tests for the ladder-symbol expression trees, parser, and scalarizer."""

import cmath
import importlib
import math

import pytest

from nufunc import (
    DomainError,
    Exp,
    HyperParams,
    MatrixElementQuery,
    NormalOrder,
    NuWrap,
    ParseError,
    Power,
    Product,
    QuadSpec,
    Scalar,
    StructureFn,
    Sum,
    SymbolMinus,
    SymbolPlus,
    UnsupportedNode,
    displacement_expectation,
    exp_argument_matrix_elements,
    normal_order,
    nu_general,
    overlap_continuous,
    parse_expression,
    scalarize,
)

COHERENT_MODULE = importlib.import_module("nufunc.coherent")
SPEC = QuadSpec()
PLAIN = StructureFn(HyperParams(0, 0))
CONFLUENT = StructureFn(HyperParams(1, 1, a=(1.0,), b=(2.0,)))


# ---------------------------------------------------------------------------
# parser structure
# ---------------------------------------------------------------------------


def test_parse_symbols_and_product():
    assert parse_expression("Ap*Am") == Product((SymbolPlus(), SymbolMinus()))


def test_parse_literals():
    assert parse_expression("2.5") == Scalar(2.5 + 0j)
    assert parse_expression("1e-3") == Scalar(1e-3 + 0j)
    assert parse_expression("0.5i") == Scalar(0.5j)
    assert parse_expression("i") == Scalar(1j)


def test_parse_label_tokens():
    z = 0.3 + 0.4j
    assert parse_expression("z", z_value=z) == Scalar(z)
    assert parse_expression("conj(z)", z_value=z) == Scalar(z.conjugate())


def test_parse_precedence_and_unary_minus():
    e = parse_expression("Ap+Am*2")
    assert e == Sum((SymbolPlus(), Product((SymbolMinus(), Scalar(2 + 0j)))))
    assert parse_expression("-Ap") == Product((Scalar(-1 + 0j), SymbolPlus()))


def test_parse_power_and_normal_order_marker():
    e = parse_expression("#Ap^2*Am#")
    assert e == NormalOrder(Product((Power(SymbolPlus(), 2.0), SymbolMinus())))
    assert parse_expression("Am^-2") == Power(SymbolMinus(), -2.0)


def test_parse_exp_and_nu_wrapper():
    assert parse_expression("exp(Ap)") == Exp(SymbolPlus())
    e = parse_expression("nu[1,1;1;2](0.5)")
    assert isinstance(e, NuWrap)
    assert e.family.params == HyperParams(1, 1, (1.0,), (2.0,))
    assert e.argument == Scalar(0.5 + 0j)


def test_parse_parenthesized_atoms():
    # A parenthesized expression is an atom: it takes a power and a factor
    # whole, and parentheses around a single atom leave it unchanged.
    sum_ = Sum((SymbolMinus(), Scalar(1 + 0j)))
    assert parse_expression("(Ap)") == SymbolPlus()
    assert parse_expression("(Am+1)*2") == Product((sum_, Scalar(2 + 0j)))
    assert parse_expression("-(Am+1)^2") == Product((Scalar(-1 + 0j), Power(sum_, 2.0)))
    val = scalarize(MatrixElementQuery(0.5, 0.5, parse_expression("(Am+1)^2")), PLAIN, SPEC)
    assert val == pytest.approx(2.25, rel=1e-15)
    with pytest.raises(ParseError):
        parse_expression("(Am+1")


def test_parse_nu_wrapper_with_multi_entry_lists():
    e = parse_expression("nu[2,2;1,1.5;2,3](0.5)")
    family = StructureFn(HyperParams(2, 2, (1.0, 1.5), (2.0, 3.0)))
    assert e == NuWrap(family, Scalar(0.5 + 0j))
    val = scalarize(MatrixElementQuery(0.5, 0.5, e), PLAIN, SPEC)
    assert val == nu_general(family, 0.5 + 0j, SPEC)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_expression("1/2")  # no division in the grammar
    assert exc.value.position == 1
    with pytest.raises(ParseError) as exc:
        parse_expression("Ap Am")  # juxtaposition is not multiplication
    assert exc.value.position == 3


def test_parse_error_other_malformed_inputs():
    with pytest.raises(ParseError):
        parse_expression("exp(1")  # unclosed call
    with pytest.raises(ParseError):
        parse_expression("Ap^i")  # exponent must be real
    with pytest.raises(ParseError):
        parse_expression("z")  # label token without a label value
    with pytest.raises(ParseError):
        parse_expression("nu[1,1;;2](1)")  # family lists of wrong length
    with pytest.raises(ParseError):
        parse_expression("what")  # unknown name


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_normal_order_folds_scalars():
    e = Product((Scalar(2), Scalar(3)))
    assert normal_order(e) == Scalar(6 + 0j)


def test_normal_order_merges_symbol_powers():
    e = Product((SymbolMinus(), SymbolPlus()))
    assert normal_order(e) == Product((SymbolPlus(), SymbolMinus()))
    e = Product((SymbolPlus(), Power(SymbolPlus(), 2.0)))
    assert normal_order(e) == Power(SymbolPlus(), 3.0)


def test_normal_order_power_rules():
    assert normal_order(Power(SymbolPlus(), 0.0)) == Scalar(1 + 0j)
    assert normal_order(Power(Power(SymbolPlus(), 2.0), 3.0)) == Power(SymbolPlus(), 6.0)


def test_normal_order_merges_exponentials():
    e = Product((Exp(Scalar(1)), Exp(Scalar(2))))
    assert normal_order(e) == Exp(Scalar(3 + 0j))


def test_normal_order_collapses_nested_markers():
    inner = Product((SymbolPlus(), SymbolMinus()))
    assert normal_order(NormalOrder(NormalOrder(inner))) == NormalOrder(inner)


def test_normal_order_is_idempotent():
    e = parse_expression("#exp(Ap)*exp(Am)# + 2*Am^3*Ap - 0.5")
    once = normal_order(e)
    assert normal_order(once) == once


def test_normal_order_rejects_non_nodes():
    with pytest.raises(UnsupportedNode):
        normal_order("Ap")


# ---------------------------------------------------------------------------
# scalarization
# ---------------------------------------------------------------------------


def test_scalarize_diagonal_number_operator():
    z = 0.6 + 0.8j
    expr = parse_expression("#Ap*Am#")
    val = scalarize(MatrixElementQuery(z, z, expr), PLAIN, SPEC)
    assert cmath.isclose(val, abs(z) ** 2, rel_tol=1e-14)


def test_scalarize_eigenvalue_property():
    # the ket label is an eigenvalue of the lowering symbol
    z = 0.5 - 0.2j
    for k in (1, 3, 10):
        expr = Power(SymbolMinus(), float(k))
        val = scalarize(MatrixElementQuery(z, z, expr), PLAIN, SPEC)
        assert cmath.isclose(val, z**k, rel_tol=1e-13)


def test_scalarize_off_diagonal_picks_up_overlap():
    z1 = 0.7 + 0.1j
    z2 = 0.4 - 0.3j
    val = scalarize(MatrixElementQuery(z1, z2, Scalar(1.0)), PLAIN, SPEC)
    expect = overlap_continuous(PLAIN, z1, z2, SPEC)
    assert val == expect


def test_scalarize_evaluates_nu_wrapper():
    expr = parse_expression("nu[0,0;;](1)")
    val = scalarize(MatrixElementQuery(0.5, 0.5, expr), PLAIN, SPEC)
    assert val == nu_general(PLAIN, 1.0 + 0.0j, SPEC)


def test_scalarize_zero_to_negative_power():
    expr = Power(Scalar(0.0), -1.0)
    with pytest.raises(DomainError):
        scalarize(MatrixElementQuery(0.5, 0.5, expr), PLAIN, SPEC)


# ---------------------------------------------------------------------------
# displacement expectation
# ---------------------------------------------------------------------------


def test_displacement_expectation_is_label_independent():
    ref = nu_general(PLAIN, 1.0 + 0.0j, SPEC)
    for z in (0.3, 1.0 + 1.0j, -2.0 + 0.5j):
        assert displacement_expectation(PLAIN, z, SPEC) == ref


def test_displacement_expectation_other_family():
    ref = nu_general(CONFLUENT, 1.0 + 0.0j, SPEC)
    assert displacement_expectation(CONFLUENT, 0.4 + 0.2j, SPEC) == ref


def test_displacement_expectation_rejects_non_entire_family():
    unit_disc = StructureFn(HyperParams(1, 0, a=(2.0,)))
    with pytest.raises(DomainError):
        displacement_expectation(unit_disc, 0.5, SPEC)


# ---------------------------------------------------------------------------
# exponential-argument matrix elements
# ---------------------------------------------------------------------------


def test_exp_argument_elements_diagonal_all_agree():
    z = 0.6 + 0.2j
    report = exp_argument_matrix_elements(PLAIN, z, z, SPEC)
    assert [r["name"] for r in report] == [
        "exp_of_scaled_lowering",
        "exp_of_scaled_raising",
        "ordered_product",
        "ordered_product_diagonal",
    ]
    for r in report:
        assert r["rel_diff"] <= 1e-10


def test_exp_argument_elements_off_diagonal_flags(monkeypatch):
    z = 0.6 + 0.2j
    z2 = 0.3 - 0.4j
    calls = []
    overlap_detailed = COHERENT_MODULE._overlap_detailed

    def counted(*args):
        calls.append(args)
        return overlap_detailed(*args)

    monkeypatch.setattr(COHERENT_MODULE, "_overlap_detailed", counted)
    report = exp_argument_matrix_elements(PLAIN, z, z2, SPEC)
    # One overlap serves the report, and each direct value is scalarize's.
    assert len(calls) == 1
    by_name = {r["name"]: r for r in report}
    raising = NuWrap(PLAIN, Exp(Product((Scalar(z), SymbolPlus()))))
    assert by_name["exp_of_scaled_raising"]["direct"] == scalarize(
        MatrixElementQuery(z, z2, raising), PLAIN, SPEC
    )
    # raising-symbol route is exact for any labels
    assert by_name["exp_of_scaled_raising"]["exact_off_diagonal"] is True
    assert by_name["exp_of_scaled_raising"]["rel_diff"] <= 1e-10
    # the diagonal restatement stays exact as well
    assert by_name["ordered_product_diagonal"]["rel_diff"] <= 1e-10
    # lowering-symbol closed form assumes the diagonal, so it must NOT match here
    assert by_name["exp_of_scaled_lowering"]["exact_off_diagonal"] is False
    assert by_name["exp_of_scaled_lowering"]["rel_diff"] > 1e-6
    assert by_name["ordered_product"]["exact_off_diagonal"] is False


def test_exp_argument_elements_report_shape():
    report = exp_argument_matrix_elements(PLAIN, 0.5, 0.5, SPEC)
    for r in report:
        assert set(r) == {
            "name",
            "direct",
            "factored",
            "abs_diff",
            "rel_diff",
            "exact_off_diagonal",
        }
        assert math.isfinite(r["abs_diff"])
