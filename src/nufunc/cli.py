"""Command-line front end.

Four commands:

* ``eval``  — evaluate a library function at a scalar or over a grid,
  emitting ``input, re, im, est_err`` rows as CSV (default) or JSON.
* ``table`` — same as ``eval`` but the grid is mandatory.
* ``check`` — run the identity suite, emit the JSON report array,
  exit 0 only if every exact case passes.
* ``doot``  — parse an operator expression, scalarize it between two
  coherent-state labels, and print the resulting complex number.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 domain or
numerical error — never anything else.  All numbers are printed with 17
significant digits so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .doot import MatrixElementQuery, parse_expression, scalarize
from .errors import DomainError, NuFuncError, ParseError
from .identities import reports_to_json, run_suite, suite_passed
from .coherent import _density_detailed, _overlap_detailed, poisson_density_discrete
from .nu import (
    HyperParams,
    StructureFn,
    nu_alpha_detailed,
    nu_general_detailed,
    pfq_series,
)
from .quadrature import QuadSpec

__all__ = ["main"]

# Rows of a table per probe and panel tree, whose arrays grow with the rows.
_ROWS_PER_TREE = 64
# Rows of a grid, checked before any is made.
_MAX_GRID = 100_000


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style complex literals (also plain reals, ``2i``, ``-i``)."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    t = t.replace("i", "j")
    t = re.sub(r"(^|[+-])j", r"\g<1>1j", t)
    return complex(t)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("grid must be start:stop:count or start:stop:count:log")
    start = float(parts[0])
    stop = float(parts[1])
    count = int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid endpoints must be finite")
    if not 1 <= count <= _MAX_GRID:
        raise ValueError(f"grid count must be between 1 and {_MAX_GRID}, got {count}")
    log_scale = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown grid scale {parts[3]!r} (only 'log')")
        log_scale = True
    if count == 1:
        return np.array([start])
    if log_scale:
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log grids require positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _flag_value(flag: str, parse, text):
    """parse(text); its ValueError is restated as an error of `flag`."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _real_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


_FAMILY_FLAGS = {"--p": 0, "--q": 0, "--a": "", "--b": ""}


def _family(args) -> StructureFn:
    a = _flag_value("--a", _real_list, args.a)
    b = _flag_value("--b", _real_list, args.b)
    try:
        params = HyperParams(args.p, args.q, a, b)
    except DomainError as exc:
        raise ValueError(f"{'/'.join(_FAMILY_FLAGS)}: {exc}") from None
    return StructureFn(params)


def _spec(args) -> QuadSpec:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    return QuadSpec() if args.tol is None else QuadSpec(rel_tol=args.tol)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_text(rows, fmt: str) -> str:
    if fmt == "json":
        payload = [
            {
                "input": float(i),
                "re": float(r),
                "im": float(m),
                "est_err": float(e),
            }
            for i, r, m, e in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = ["input,re,im,est_err"]
    for i, r, m, e in rows:
        lines.append(f"{_fmt(i)},{_fmt(r)},{_fmt(m)},{_fmt(e)}")
    return "\n".join(lines) + "\n"


def _eval_rows(args) -> list:
    spec = _spec(args)
    fn = args.function
    if fn in ("nu", "nu-alpha", "poisson"):
        for flag, default in _FAMILY_FLAGS.items():
            if getattr(args, flag[2:]) != default:
                raise ValueError(f"{flag}: '{fn}' takes no family flags")

    def inputs(default_flag, flag_name, parse=float):
        if args.grid is not None:
            return _flag_value("--grid", _parse_grid, args.grid)
        if default_flag is None:
            raise ValueError(f"{flag_name} (or --grid) is required for '{fn}'")
        v = _flag_value(flag_name, parse, default_flag)
        return np.array([v if v.imag else v.real])  # a real value is a real row

    rows = []
    if fn in ("nu", "gnu", "nu-alpha", "pfq"):
        if fn == "nu-alpha" and args.alpha is None:
            raise ValueError("--alpha is required for 'nu-alpha'")
        family = fn in ("gnu", "pfq")
        sf = _family(args) if family else StructureFn(HyperParams(0, 0))
        ws = inputs(args.z, "--z", parse_complex_literal if family else float)
        # A complex row prints |w|, by Python's abs: numpy's differs in the last bit.
        xs = [abs(w) for w in ws.tolist()] if np.iscomplexobj(ws) else ws
        if fn == "pfq":
            for x, w in zip(xs, ws):
                v = pfq_series(sf.params, w)
                rows.append((x, v.real, v.imag, 0.0))
        else:
            for s in range(0, len(ws), _ROWS_PER_TREE):
                chunk = ws[s : s + _ROWS_PER_TREE]
                if fn == "nu-alpha":
                    res = nu_alpha_detailed(chunk, args.alpha, spec)
                else:
                    res = nu_general_detailed(sf, chunk, spec)
                rows += zip(xs[s:], np.real(res.value), np.imag(res.value), res.error_estimate)
    elif fn == "overlap":
        if args.grid is not None:
            raise ValueError("--grid is not supported for 'overlap' (scalar labels only)")
        if args.bra is None or args.ket is None:
            raise ValueError("--bra and --ket are required for 'overlap'")
        sf = _family(args)
        z1 = _flag_value("--bra", parse_complex_literal, args.bra)
        z2 = _flag_value("--ket", parse_complex_literal, args.ket)
        v, est = _overlap_detailed(sf, z1, z2, spec)
        rows.append((0.0, v.real, v.imag, est))
    elif fn == "density":
        if args.zsq is None:
            raise ValueError("--zsq is required for 'density'")
        sf = _family(args)
        energies = inputs(args.E, "--E")
        dens, norm = _density_detailed(sf, float(args.zsq), energies, spec)
        norm_val = complex(norm.value).real
        for e_val, v in zip(energies, dens):
            rows.append((e_val, v, 0.0, abs(v) * norm.error_estimate / norm_val))
    elif fn == "poisson":
        if args.zsq is None:
            raise ValueError("--zsq is required for 'poisson'")
        flag = "--n" if args.grid is None else "--grid"
        for n_val in inputs(args.n, "--n"):
            if not float(n_val).is_integer():
                raise ValueError(f"{flag}: poisson needs an integer n, got {float(n_val)}")
            n_int = int(n_val)
            v = poisson_density_discrete(float(args.zsq), n_int)
            rows.append((float(n_int), v, 0.0, 0.0))
    return rows


def _cmd_eval(args) -> int:
    rows = _eval_rows(args)
    _emit(_rows_text(rows, args.format), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    reports = run_suite(filter=args.filter, spec=QuadSpec(), tol=args.tol)
    _emit(reports_to_json(reports), args.out)
    return 0 if suite_passed(reports) else 1


def _cmd_doot(args) -> int:
    spec = _spec(args)
    z = _flag_value("--z", parse_complex_literal, args.z) if args.z is not None else None

    def label(text, flag):
        t = text.strip()
        if t == "z" or t == "conj(z)":
            if z is None:
                raise ValueError(f"{flag}={t!r} requires --z")
            return z.conjugate() if t == "conj(z)" else z
        return _flag_value(flag, parse_complex_literal, t)

    bra = label(args.bra, "--bra")
    ket = label(args.ket, "--ket")
    expr = parse_expression(args.expr, z_value=z)
    sf = _family(args)
    value = scalarize(MatrixElementQuery(bra, ket, expr), sf, spec)
    _emit(f"{_fmt(value.real)},{_fmt(value.imag)}\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--p", type=int, default=0, help="number of upper family entries")
    family.add_argument("--q", type=int, default=0, help="number of lower family entries")
    family.add_argument("--a", default="", help="comma-separated upper entries")
    family.add_argument("--b", default="", help="comma-separated lower entries")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to this path")

    parser = argparse.ArgumentParser(
        prog="nufunc",
        description="Evaluate nu-function family values, verify integral "
        "identities, and scalarize operator expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eval_like(name, help_text):
        p = sub.add_parser(name, parents=[family, output], help=help_text)
        p.add_argument(
            "function",
            choices=["nu", "nu-alpha", "gnu", "pfq", "overlap", "density", "poisson"],
        )
        p.add_argument("--z", default=None, help="principal argument (complex 'a+bi' allowed where meaningful)")
        p.add_argument("--alpha", type=float, default=None, help="shift parameter for nu-alpha")
        p.add_argument("--E", type=float, default=None, help="exponent argument for density")
        p.add_argument("--n", type=float, default=None, help="index argument for poisson")
        p.add_argument("--zsq", type=float, default=None, help="squared label modulus for density/poisson")
        p.add_argument("--bra", default=None, help="bra label for overlap")
        p.add_argument("--ket", default=None, help="ket label for overlap")
        p.add_argument("--grid", default=None, help="start:stop:count[:log] over the principal argument")
        p.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        return p

    add_eval_like("eval", "evaluate one function at a scalar or grid")
    add_eval_like("table", "same as eval, but --grid is mandatory")

    check = sub.add_parser(
        "check", parents=[output], help="run the identity suite and emit JSON reports"
    )
    check.add_argument("--filter", default=None, help="only run cases whose id contains this substring")
    check.add_argument("--tol", type=float, default=None, help="override every exact case's tolerance")

    doot = sub.add_parser(
        "doot",
        parents=[family, output],
        help="scalarize an operator expression between coherent-state labels",
    )
    doot.add_argument("--expr", required=True, help="operator expression, e.g. '#Ap*Am#'")
    doot.add_argument("--bra", required=True, help="bra label: complex literal, 'z', or 'conj(z)'")
    doot.add_argument("--ket", required=True, help="ket label: complex literal, 'z', or 'conj(z)'")
    doot.add_argument("--z", default=None, help="value bound to the symbol z in the expression")
    doot.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("eval", "table"):
            if args.command == "table" and args.grid is None:
                raise ValueError("table requires --grid")
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_doot(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NuFuncError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
