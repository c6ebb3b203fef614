"""Scalarizer for normal-ordered expressions over commuting ladder symbols.

Expression trees are built from two commuting symbols (a raising symbol and
a lowering symbol), complex scalars, sums, products, real powers, an
exponential wrapper, a nu-function wrapper carrying its own family, and a
normal-order marker ``#...#``.  Because the symbols commute, every
expression reduces to a number once the lowering symbol is replaced by the
ket label and the raising symbol by the conjugated bra label; matrix
elements between states with different labels pick up the overlap factor.

The plain-text syntax accepted by :func:`parse_expression`::

    expr     :=  term (('+' | '-') term)*
    term     :=  unary ('*' unary)*
    unary    :=  '-' unary | postfix
    postfix  :=  atom ('^' number)?
    atom     :=  'Ap' | 'Am' | 'z' | 'conj(z)' | literal
               | 'exp(' expr ')'
               | 'nu[' p ',' q ';' a-list ';' b-list '](' expr ')'
               | '(' expr ')' | '#' expr '#'
    literal  :=  real or imaginary number; '2.5', '1e-3', '0.5i', 'i'

`z` and `conj(z)` resolve to the label value supplied at parse time; the
a-list/b-list are comma-separated positive reals and may be empty.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

from .coherent import overlap_continuous
from .errors import DomainError, NonFinite, ParseError, UnsupportedNode
from .nu import (
    HyperParams,
    StructureFn,
    convergence_domain,
    nu_general,
    nu_general_detailed,
)
from .quadrature import QuadSpec

__all__ = [
    "DootExpr",
    "SymbolPlus",
    "SymbolMinus",
    "Scalar",
    "Sum",
    "Product",
    "Power",
    "Exp",
    "NuWrap",
    "NormalOrder",
    "MatrixElementQuery",
    "normal_order",
    "scalarize",
    "displacement_expectation",
    "exp_argument_matrix_elements",
    "parse_expression",
]


# --------------------------------------------------------------------------
# Expression nodes


class DootExpr:
    """Base class for expression-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SymbolPlus(DootExpr):
    """The raising symbol."""


@dataclass(frozen=True)
class SymbolMinus(DootExpr):
    """The lowering symbol."""


@dataclass(frozen=True)
class Scalar(DootExpr):
    value: complex


@dataclass(frozen=True)
class Sum(DootExpr):
    terms: tuple


@dataclass(frozen=True)
class Product(DootExpr):
    factors: tuple


@dataclass(frozen=True)
class Power(DootExpr):
    base: DootExpr
    exponent: float


@dataclass(frozen=True)
class Exp(DootExpr):
    argument: DootExpr


@dataclass(frozen=True)
class NuWrap(DootExpr):
    family: StructureFn
    argument: DootExpr


@dataclass(frozen=True)
class NormalOrder(DootExpr):
    inner: DootExpr


@dataclass(frozen=True)
class MatrixElementQuery:
    bra_label: complex
    ket_label: complex
    expr: DootExpr


# --------------------------------------------------------------------------
# Canonicalization


def _nary(kind, items: list) -> DootExpr:
    """`kind`'s identity Scalar for no items, the item for one, else a `kind` node."""
    if len(items) == 1:
        return items[0]
    if not items:
        return Scalar(0j) if kind is Sum else Scalar(1 + 0j)
    return kind(tuple(items))


def _flatten(node) -> list:
    """A Sum's terms or a Product's factors, normal-ordered, nested nodes of its kind spliced in."""
    kind, field = (Sum, "terms") if isinstance(node, Sum) else (Product, "factors")
    flat = []
    for child in map(normal_order, getattr(node, field)):
        if isinstance(child, kind):
            flat.extend(getattr(child, field))
        else:
            flat.append(child)
    return flat


def _power(base: complex, exponent: float) -> complex:
    """base ** exponent; a zero base raised to a negative power is a DomainError."""
    try:
        return base**exponent
    except ZeroDivisionError:
        raise DomainError("zero base raised to a negative power") from None


def normal_order(e: DootExpr) -> DootExpr:
    """Canonicalize: flatten sums/products, fold scalars, place raising
    powers before lowering powers, and merge adjacent exponentials
    (exp(X)*exp(Y) -> exp(X+Y), valid because the symbols commute).

    Idempotent: applying it to its own output returns a structurally
    equal tree.
    """
    if isinstance(e, (SymbolPlus, SymbolMinus)):
        return e
    if isinstance(e, Scalar):
        return Scalar(complex(e.value))
    if isinstance(e, Sum):
        terms = []
        scalar_sum = 0j
        for t in _flatten(e):
            if isinstance(t, Scalar):
                scalar_sum += t.value
            else:
                terms.append(t)
        if scalar_sum != 0:
            terms.append(Scalar(scalar_sum))
        return _nary(Sum, terms)
    if isinstance(e, Product):
        coeff = 1 + 0j
        powers = {SymbolPlus: 0.0, SymbolMinus: 0.0}
        exp_args = []
        others = []
        for f in _flatten(e):
            base, exponent = (f.base, float(f.exponent)) if isinstance(f, Power) else (f, 1.0)
            if isinstance(f, Scalar):
                coeff *= f.value
            elif type(base) in powers:
                powers[type(base)] += exponent
            elif isinstance(f, Exp):
                exp_args.append(f.argument)
            else:
                others.append(f)
        if coeff == 0:
            return Scalar(0j)
        factors = [Scalar(coeff)] if coeff != 1 else []
        for symbol, exponent in powers.items():
            if exponent != 0.0:
                factors.append(symbol() if exponent == 1.0 else Power(symbol(), exponent))
        if exp_args:
            merged = exp_args[0] if len(exp_args) == 1 else normal_order(Sum(tuple(exp_args)))
            factors.append(Exp(merged))
        return _nary(Product, factors + others)
    if isinstance(e, Power):
        base = normal_order(e.base)
        exponent = float(e.exponent)
        if exponent == 0.0:
            return Scalar(1 + 0j)
        if exponent == 1.0:
            return base
        if isinstance(base, Power):
            return normal_order(Power(base.base, base.exponent * exponent))
        if isinstance(base, Scalar):
            return Scalar(_power(complex(base.value), exponent))
        return Power(base, exponent)
    if isinstance(e, Exp):
        return Exp(normal_order(e.argument))
    if isinstance(e, NuWrap):
        return NuWrap(e.family, normal_order(e.argument))
    if isinstance(e, NormalOrder):
        inner = normal_order(e.inner)
        if isinstance(inner, NormalOrder):
            inner = inner.inner
        return NormalOrder(inner)
    raise UnsupportedNode(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Scalarization


def _evaluate(e: DootExpr, plus: complex, minus: complex, spec: QuadSpec) -> complex:
    """Value of `e`, reading the raising symbol as `plus`, the lowering as `minus`."""
    if isinstance(e, SymbolPlus):
        return plus
    if isinstance(e, SymbolMinus):
        return minus
    if isinstance(e, Scalar):
        return complex(e.value)
    if isinstance(e, Sum):
        return sum(_evaluate(t, plus, minus, spec) for t in e.terms)
    if isinstance(e, Product):
        out = 1 + 0j
        for f in e.factors:
            out *= _evaluate(f, plus, minus, spec)
        return out
    if isinstance(e, Power):
        return _power(_evaluate(e.base, plus, minus, spec), e.exponent)
    if isinstance(e, Exp):
        return cmath.exp(_evaluate(e.argument, plus, minus, spec))
    if isinstance(e, NuWrap):
        return nu_general(e.family, _evaluate(e.argument, plus, minus, spec), spec)
    if isinstance(e, NormalOrder):
        return _evaluate(e.inner, plus, minus, spec)
    raise UnsupportedNode(f"not an expression node: {e!r}")


def _direct_value(expr: DootExpr, bra: complex, ket: complex, spec: QuadSpec) -> complex:
    """<bra| expr |ket> without the overlap factor: `expr` canonicalized and
    evaluated with the lowering symbol read as the ket label and the raising
    symbol as the conjugated bra label.  A value that overflows, or is
    otherwise not finite, raises NonFinite."""
    try:
        # normal_order is not optional: it merges exp(X)*exp(Y) and nested
        # powers, which changes the rounding of the value.
        value = _evaluate(normal_order(expr), bra.conjugate(), ket, spec)
        finite = cmath.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise NonFinite(f"expression value is not finite between labels {bra} and {ket}")
    return value


def scalarize(q: MatrixElementQuery, sf: StructureFn, spec: QuadSpec) -> complex:
    """Numeric value of <bra| expr |ket>: the direct value, multiplied by
    the state overlap when the labels differ."""
    bra = complex(q.bra_label)
    ket = complex(q.ket_label)
    value = _direct_value(q.expr, bra, ket, spec)
    if bra != ket:
        value *= overlap_continuous(sf, bra, ket, spec)
    return value


def displacement_expectation(sf: StructureFn, z: complex, spec: QuadSpec) -> complex:
    """Diagonal expectation of the nu-function of the displacement
    expression #exp(z*raising - conj(z)*lowering)#.

    With commuting symbols the exponent collapses to
    z*conj(z) - conj(z)*z = 0, so the result is the family's nu at 1,
    independent of the label z.
    """
    if convergence_domain(sf) != "entire":
        raise DomainError("displacement expectation requires an entire family")
    z = complex(z)
    exponent = Sum(
        (
            Product((Scalar(z), SymbolPlus())),
            Product((Scalar(-z.conjugate()), SymbolMinus())),
        )
    )
    expr = NuWrap(sf, NormalOrder(Exp(exponent)))
    return scalarize(MatrixElementQuery(z, z, expr), sf, spec)


def exp_argument_matrix_elements(
    sf: StructureFn, z: complex, z2: complex, spec: QuadSpec
) -> list:
    """The four matrix elements whose nu-argument is an exponential of a
    scaled ladder symbol, each computed two ways: `direct` by the
    scalarizer (symbols replaced by labels) and `factored` by the closed
    form nu(e^{+|z|^2}) / nu(e^{-|z|^2}) times the overlap.

    For the raising-symbol cases the two routes agree for any pair of
    labels (the raising symbol always contributes conj(bra) = conj(z)).
    For the lowering-symbol cases the closed form replaces the ket label
    by z, so the routes agree only on the diagonal z2 = z; those entries
    carry exact_off_diagonal = False.
    """
    z = complex(z)
    z2 = complex(z2)
    z_mod_sq = abs(z) ** 2
    try:
        closed_args = [cmath.exp(z_mod_sq), cmath.exp(-z_mod_sq)]
    except OverflowError:
        raise NonFinite(f"e^(|z|^2) overflows at label {z}: |z|^2 = {z_mod_sq:.6g}") from None
    if z == z2:
        overlap = 1.0 + 0.0j
    else:
        overlap = overlap_continuous(sf, z, z2, spec)
    pair = nu_general_detailed(sf, closed_args, spec)
    nu_plus, nu_minus = pair.value.tolist()

    exp_minus = NuWrap(sf, Exp(Product((Scalar(-z.conjugate()), SymbolMinus()))))
    exp_plus = NuWrap(sf, Exp(Product((Scalar(z), SymbolPlus()))))
    product = NormalOrder(Product((exp_plus, exp_minus)))

    cases = [
        ("exp_of_scaled_lowering", exp_minus, z2, nu_minus * overlap, False),
        ("exp_of_scaled_raising", exp_plus, z2, nu_plus * overlap, True),
        ("ordered_product", product, z2, nu_plus * nu_minus * overlap, False),
        ("ordered_product_diagonal", product, z, nu_plus * nu_minus, True),
    ]
    report = []
    for name, expr, ket, factored, exact_off_diagonal in cases:
        # As scalarize, on the overlap held above.
        direct = _direct_value(expr, z, ket, spec)
        if ket != z:
            direct *= overlap
        abs_diff = abs(direct - factored)
        scale = abs(factored)
        rel_diff = abs_diff / scale if scale >= 1e-12 else abs_diff
        report.append(
            {
                "name": name,
                "direct": direct,
                "factored": factored,
                "abs_diff": abs_diff,
                "rel_diff": rel_diff,
                "exact_off_diagonal": exact_off_diagonal,
            }
        )
    return report


# --------------------------------------------------------------------------
# Plain-text expression parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*^()\[\],;#])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, z_value):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.z_value = z_value

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def accept(self, chars: str) -> str:
        """Consume the next token if it is punctuation in `chars` and return it, else ''."""
        kind, value, _ = self.peek()
        if kind == "punct" and value in chars:
            self.index += 1
            return value
        return ""

    def expect(self, value: str):
        if not self.accept(value):
            raise ParseError(f"expected {value!r}", self.peek()[2])

    def require_z(self, position: int) -> complex:
        if self.z_value is None:
            raise ParseError("'z' used but no label value supplied", position)
        return complex(self.z_value)

    # grammar ---------------------------------------------------------

    def parse(self) -> DootExpr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> DootExpr:
        terms = [self.term()]
        while op := self.accept("+-"):
            term = self.term()
            terms.append(Product((Scalar(-1 + 0j), term)) if op == "-" else term)
        return _nary(Sum, terms)

    def term(self) -> DootExpr:
        factors = [self.unary()]
        while self.accept("*"):
            factors.append(self.unary())
        return _nary(Product, factors)

    def unary(self) -> DootExpr:
        if self.accept("-"):
            return Product((Scalar(-1 + 0j), self.unary()))
        return self.postfix()

    def postfix(self) -> DootExpr:
        base = self.atom()
        if self.accept("^"):
            sign = -1.0 if self.accept("+-") == "-" else 1.0
            return Power(base, sign * self.real_number("a real exponent"))
        return base

    def real_number(self, what: str = "a real number") -> float:
        tok = self.advance()
        if tok[0] != "number" or tok[1].endswith("i"):
            raise ParseError(f"expected {what}", tok[2])
        return float(tok[1])

    def real_list(self, terminator: str) -> tuple:
        """Comma-separated reals up to and including `terminator`; the list may be empty."""
        values = []
        if not self.accept(terminator):
            while True:
                values.append(self.real_number())
                if not self.accept(","):
                    break
            self.expect(terminator)
        return tuple(values)

    def atom(self) -> DootExpr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "number":
            if value.endswith("i"):
                magnitude = value[:-1]
                return Scalar(complex(0.0, float(magnitude) if magnitude else 1.0))
            return Scalar(complex(float(value)))
        if kind == "name":
            if value == "Ap":
                return SymbolPlus()
            if value == "Am":
                return SymbolMinus()
            if value == "i":
                return Scalar(1j)
            if value == "z":
                return Scalar(self.require_z(pos))
            if value == "conj":
                self.expect("(")
                inner = self.advance()
                if inner[0] != "name" or inner[1] != "z":
                    raise ParseError("conj(...) accepts only z", inner[2])
                self.expect(")")
                return Scalar(self.require_z(pos).conjugate())
            if value == "exp":
                self.expect("(")
                argument = self.expr()
                self.expect(")")
                return Exp(argument)
            if value == "nu":
                self.expect("[")
                p = self.real_number()
                self.expect(",")
                q = self.real_number()
                if p != int(p) or q != int(q):
                    raise ParseError("family indices must be integers", pos)
                self.expect(";")
                a = self.real_list(";")
                b = self.real_list("]")
                self.expect("(")
                argument = self.expr()
                self.expect(")")
                try:
                    family = StructureFn(HyperParams(int(p), int(q), a, b))
                except DomainError as exc:
                    raise ParseError(f"invalid family: {exc}", pos) from None
                return NuWrap(family, argument)
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "punct":
            if value == "(":
                inner = self.expr()
                self.expect(")")
                return inner
            if value == "#":
                inner = self.expr()
                self.expect("#")
                return NormalOrder(inner)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str, z_value=None) -> DootExpr:
    """Parse the plain-text syntax into an expression tree.

    `z_value` supplies the label that the tokens `z` / `conj(z)` resolve
    to; omitting it while the text uses them is a parse error.  Raises
    :class:`ParseError` with the offending position on malformed input.
    """
    return _Parser(text, z_value).parse()
