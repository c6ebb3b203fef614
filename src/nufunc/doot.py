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
from .errors import DomainError, ParseError, UnsupportedNode
from .nu import HyperParams, StructureFn, convergence_domain, nu_general
from .quadrature import QuadSpec


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


def _symbol_power(node: DootExpr):
    """(which, exponent) when the node is a bare symbol power, else None."""
    if isinstance(node, SymbolPlus):
        return ("+", 1.0)
    if isinstance(node, SymbolMinus):
        return ("-", 1.0)
    if isinstance(node, Power) and isinstance(node.base, (SymbolPlus, SymbolMinus)):
        which = "+" if isinstance(node.base, SymbolPlus) else "-"
        return (which, float(node.exponent))
    return None


def _rebuild_symbol(which: str, exponent: float):
    base = SymbolPlus() if which == "+" else SymbolMinus()
    if exponent == 1.0:
        return base
    return Power(base, exponent)


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
        saw_scalar = False
        for raw in e.terms:
            t = normal_order(raw)
            if isinstance(t, Sum):
                inner = list(t.terms)
            else:
                inner = [t]
            for item in inner:
                if isinstance(item, Scalar):
                    scalar_sum += item.value
                    saw_scalar = True
                else:
                    terms.append(item)
        if saw_scalar and scalar_sum != 0:
            terms.append(Scalar(scalar_sum))
        if not terms:
            return Scalar(0j)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))
    if isinstance(e, Product):
        coeff = 1 + 0j
        saw_coeff = False
        plus_power = 0.0
        minus_power = 0.0
        exp_args = []
        others = []
        stack = [normal_order(f) for f in e.factors]
        flat = []
        for f in stack:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        for f in flat:
            if isinstance(f, Scalar):
                coeff *= f.value
                saw_coeff = True
                continue
            sym = _symbol_power(f)
            if sym is not None:
                if sym[0] == "+":
                    plus_power += sym[1]
                else:
                    minus_power += sym[1]
                continue
            if isinstance(f, Exp):
                exp_args.append(f.argument)
                continue
            others.append(f)
        if saw_coeff and coeff == 0:
            return Scalar(0j)
        factors = []
        if saw_coeff and coeff != 1:
            factors.append(Scalar(coeff))
        if plus_power != 0.0:
            factors.append(_rebuild_symbol("+", plus_power))
        if minus_power != 0.0:
            factors.append(_rebuild_symbol("-", minus_power))
        if exp_args:
            if len(exp_args) == 1:
                factors.append(Exp(exp_args[0]))
            else:
                factors.append(Exp(normal_order(Sum(tuple(exp_args)))))
        factors.extend(others)
        if not factors:
            return Scalar(1 + 0j)
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))
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
            try:
                return Scalar(complex(base.value) ** exponent)
            except ZeroDivisionError:
                raise DomainError("zero base raised to a negative power") from None
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
        base = _evaluate(e.base, plus, minus, spec)
        try:
            return base ** e.exponent
        except ZeroDivisionError:
            raise DomainError("zero base raised to a negative power") from None
    if isinstance(e, Exp):
        return cmath.exp(_evaluate(e.argument, plus, minus, spec))
    if isinstance(e, NuWrap):
        return nu_general(e.family, _evaluate(e.argument, plus, minus, spec), spec)
    if isinstance(e, NormalOrder):
        return _evaluate(e.inner, plus, minus, spec)
    raise UnsupportedNode(f"not an expression node: {e!r}")


def scalarize(q: MatrixElementQuery, sf: StructureFn, spec: QuadSpec) -> complex:
    """Numeric value of <bra| expr |ket>: canonicalize, evaluate with the
    lowering symbol read as the ket label and the raising symbol as the
    conjugated bra label, and multiply by the state overlap when the
    labels differ."""
    bra = complex(q.bra_label)
    ket = complex(q.ket_label)
    # normal_order is not optional: it merges exp(X)*exp(Y) and nested
    # powers, which changes the rounding of the value.
    value = _evaluate(normal_order(q.expr), bra.conjugate(), ket, spec)
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
    if convergence_domain(sf).kind != "entire":
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
    if z == z2:
        overlap = 1.0 + 0.0j
    else:
        overlap = overlap_continuous(sf, z, z2, spec)
    nu_plus = nu_general(sf, cmath.exp(z_mod_sq), spec)
    nu_minus = nu_general(sf, cmath.exp(-z_mod_sq), spec)

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
        direct = scalarize(MatrixElementQuery(z, ket, expr), sf, spec)
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
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("punct", m.group("punct"), m.start("punct")))
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

    def expect(self, kind: str, value: str):
        tok = self.advance()
        if tok[0] != kind or tok[1] != value:
            raise ParseError(f"expected {value!r}", tok[2])
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

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
        while True:
            tok = self.peek()
            if tok[0] == "punct" and tok[1] in "+-":
                self.advance()
                term = self.term()
                if tok[1] == "-":
                    term = Product((Scalar(-1 + 0j), term))
                terms.append(term)
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self) -> DootExpr:
        factors = [self.unary()]
        while True:
            tok = self.peek()
            if tok[0] == "punct" and tok[1] == "*":
                self.advance()
                factors.append(self.unary())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def unary(self) -> DootExpr:
        tok = self.peek()
        if tok[0] == "punct" and tok[1] == "-":
            self.advance()
            return Product((Scalar(-1 + 0j), self.unary()))
        return self.postfix()

    def postfix(self) -> DootExpr:
        base = self.atom()
        tok = self.peek()
        if tok[0] == "punct" and tok[1] == "^":
            self.advance()
            exponent = self.signed_real()
            return Power(base, exponent)
        return base

    def signed_real(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok[0] == "punct" and tok[1] in "+-":
            self.advance()
            if tok[1] == "-":
                sign = -1.0
            tok = self.peek()
        if tok[0] != "number" or tok[1].endswith("i"):
            self.fail("expected a real exponent")
        self.advance()
        return sign * float(tok[1])

    def real_number(self) -> float:
        tok = self.advance()
        if tok[0] != "number" or tok[1].endswith("i"):
            raise ParseError("expected a real number", tok[2])
        return float(tok[1])

    def real_list(self, terminator: str) -> tuple:
        values = []
        tok = self.peek()
        if tok[0] == "punct" and tok[1] == terminator:
            return ()
        values.append(self.real_number())
        while True:
            tok = self.peek()
            if tok[0] == "punct" and tok[1] == ",":
                self.advance()
                values.append(self.real_number())
            else:
                break
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
                self.expect("punct", "(")
                inner = self.advance()
                if inner[0] != "name" or inner[1] != "z":
                    raise ParseError("conj(...) accepts only z", inner[2])
                self.expect("punct", ")")
                return Scalar(self.require_z(pos).conjugate())
            if value == "exp":
                self.expect("punct", "(")
                argument = self.expr()
                self.expect("punct", ")")
                return Exp(argument)
            if value == "nu":
                self.expect("punct", "[")
                p = self.real_number()
                self.expect("punct", ",")
                q = self.real_number()
                if p != int(p) or q != int(q):
                    raise ParseError("family indices must be integers", pos)
                self.expect("punct", ";")
                a = self.real_list(";")
                self.expect("punct", ";")
                b = self.real_list("]")
                self.expect("punct", "]")
                self.expect("punct", "(")
                argument = self.expr()
                self.expect("punct", ")")
                try:
                    family = StructureFn(HyperParams(int(p), int(q), a, b))
                except DomainError as exc:
                    raise ParseError(f"invalid family: {exc}", pos) from None
                return NuWrap(family, argument)
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "punct":
            if value == "(":
                inner = self.expr()
                self.expect("punct", ")")
                return inner
            if value == "#":
                inner = self.expr()
                self.expect("punct", "#")
                return NormalOrder(inner)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str, z_value=None) -> DootExpr:
    """Parse the plain-text syntax into an expression tree.

    `z_value` supplies the label that the tokens `z` / `conj(z)` resolve
    to; omitting it while the text uses them is a parse error.  Raises
    :class:`ParseError` with the offending position on malformed input.
    """
    return _Parser(text, z_value).parse()
