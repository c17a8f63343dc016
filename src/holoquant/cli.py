"""Batch command line front end.

Subcommands expose kernels, transforms, Husimi grids, quantization and
Toeplitz matrices, and the heat kernel and smoothing transform on the
special unitary group.  Output is machine readable: single values print
as ``re+imi``, matrices as JSON objects ``{"n": N, "re": [...], "im":
[...]}`` in row-major order, grids as CSV with header ``x,p,value``.
Identical arguments produce byte-identical output.  ``selftest`` imports
and runs the registry in ``holoquant.invariants``.

Exit codes: 0 success, 1 self-test failure, 2 usage or domain error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import su2 as su2_mod
from .fock import HermiteBasisSpec
from .holospace import SpaceSpec, kernel
from .quantize import OrderingScheme, PhaseSymbol, SBSymbol, quantize, \
    toeplitz
from .transform import WaveFunction, husimi, transform_A, transform_B, \
    transform_C


# ------------------------------------------------------------------ parsing

_TOKEN_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?j?")
_TOKEN_NAME = re.compile(r"[A-Za-z]+")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        match = _TOKEN_NUMBER.match(text, pos)
        if match:
            tokens.append(("number", match.group(0), pos))
            pos = match.end()
            continue
        match = _TOKEN_NAME.match(text, pos)
        if match:
            tokens.append(("name", match.group(0), pos))
            pos = match.end()
            continue
        raise ValueError(
            "parse error at position %d: unexpected character %r" % (pos, ch)
        )
    return tokens


def _parse_terms(text, names):
    """Sum-of-signed-monomials grammar over the two given variable names.

    Factors are numbers (a trailing ``j`` makes them imaginary), the bare
    imaginary unit ``j``, or a variable with an optional ``^k`` power;
    factors join with ``*``.  No parentheses: the grammar is monomial
    sums only.  Returns a dict mapping (power of names[0], power of
    names[1]) to the summed complex coefficient.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("parse error at position 0: empty symbol")
    terms = {}
    cursor = 0

    def fail(pos, message):
        raise ValueError("parse error at position %d: %s" % (pos, message))

    def take_factor(coeff, powers):
        nonlocal cursor
        kind, value, pos = tokens[cursor]
        if kind == "number":
            cursor += 1
            if value.endswith("j"):
                return coeff * complex(0.0, float(value[:-1] or "1")), powers
            return coeff * float(value), powers
        if kind != "name":
            fail(pos, "expected a number or a variable, found %r" % value)
        if value == "j":
            cursor += 1
            return coeff * 1j, powers
        if value not in names:
            fail(pos, "unknown variable %r (expected %s or j)" %
                 (value, " or ".join(names)))
        cursor += 1
        exponent = 1
        if cursor < len(tokens) and tokens[cursor][0] == "^":
            cursor += 1
            if cursor >= len(tokens):
                fail(len(text), "exponent missing")
            kind2, value2, pos2 = tokens[cursor]
            if kind2 != "number" or not value2.isdigit():
                fail(pos2, "exponent must be a nonnegative integer")
            exponent = int(value2)
            cursor += 1
        index = names.index(value)
        powers = list(powers)
        powers[index] += exponent
        return coeff, tuple(powers)

    def take_term(sign):
        nonlocal cursor
        coeff, powers = take_factor(complex(sign), (0, 0))
        while cursor < len(tokens) and tokens[cursor][0] == "*":
            cursor += 1
            if cursor >= len(tokens):
                fail(len(text), "dangling '*'")
            coeff, powers = take_factor(coeff, powers)
        return coeff, powers

    sign = 1.0
    if tokens[cursor][0] in "+-":
        sign = -1.0 if tokens[cursor][0] == "-" else 1.0
        cursor += 1
        if cursor >= len(tokens):
            fail(len(text), "sign without a term")
    while True:
        coeff, powers = take_term(sign)
        terms[powers] = terms.get(powers, 0.0) + coeff
        if cursor >= len(tokens):
            return terms
        kind, value, pos = tokens[cursor]
        if kind not in "+-":
            fail(pos, "expected '+', '-' or '*', found %r" % value)
        sign = -1.0 if kind == "-" else 1.0
        cursor += 1
        if cursor >= len(tokens):
            fail(len(text), "trailing %r" % value)


def parse_symbol(text):
    """Phase-space symbol from a sum of signed monomials in x and p."""
    return PhaseSymbol(_parse_terms(text, ("x", "p")))


def parse_sb_symbol(text):
    """Toeplitz symbol from a sum of signed monomials in z and zb."""
    return SBSymbol(_parse_terms(text, ("z", "zb")))


def _flat_terms(symbol):
    flat = {}
    for key, coeff in symbol.terms.items():
        if isinstance(key[0], tuple):
            if len(key[0]) != 1:
                raise ValueError("printing supports one dimension only")
            flat[(key[0][0], key[1][0])] = coeff
        else:
            flat[key] = coeff
    return flat


def print_symbol(symbol, names=("x", "p")):
    """Canonical text form; parsing it back reproduces the symbol exactly.

    Terms are ordered by powers; complex coefficients split into a real
    piece and a ``j`` piece so the output stays inside the grammar.
    """
    flat = _flat_terms(symbol)
    pieces = []
    for powers in sorted(flat):
        coeff = complex(flat[powers])
        for part, unit in ((coeff.real, ""), (coeff.imag, "j")):
            if part == 0.0:
                continue
            factors = []
            magnitude = abs(part)
            if magnitude != 1.0:
                factors.append(repr(magnitude))
            if unit:
                factors.append(unit)
            for name, power in zip(names, powers):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append("%s^%d" % (name, power))
            if not factors:
                factors.append("1")
            pieces.append(("-" if part < 0.0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


def _parse_complex_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 're,im', got %r" % text)
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError("expected 're,im' with real parts, got %r" % text)


def _parse_coefficients(text):
    # comma-separated entries; 're:im' makes an entry complex
    values = []
    for chunk in text.split(","):
        if ":" in chunk:
            re_part, im_part = chunk.split(":", 1)
            values.append(complex(float(re_part), float(im_part)))
        else:
            values.append(complex(float(chunk)))
    return np.array(values, dtype=complex)


def _above(convert, bound):
    """argparse type for a finite ``convert(text) > bound``; refusals name
    the option."""
    def check(text):
        value = convert(text)
        # NaN fails every comparison, so test for the accepted range
        if not (math.isfinite(value) and value > bound):
            raise argparse.ArgumentTypeError(
                "must be a finite number greater than %r, got %r" % (bound, text))
        return value
    # argparse reports unparsable text as "invalid <type name> value"
    check.__name__ = convert.__name__
    return check


_positive = _above(float, 0.0)
_count = _above(int, 0)


def _orders(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "expected three comma-separated integers, got %r" % text)
    return tuple(_count(p) for p in parts)


def _format_complex(value):
    value = complex(value)
    sign = "+" if value.imag >= 0.0 or value.imag != value.imag else "-"
    return "%r%s%ri" % (float(value.real), sign, abs(float(value.imag)))


# ------------------------------------------------------------------- output

def _matrix_json(matrix):
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix output must be square")
    return json.dumps(
        {
            "n": int(mat.shape[0]),
            "re": mat.real.ravel().tolist(),
            "im": mat.imag.ravel().tolist(),
        },
        separators=(",", ":"),
    ) + "\n"


def load_matrix(text):
    """Inverse of the JSON matrix format; returns the complex array."""
    data = json.loads(text)
    n = int(data["n"])
    re_part = np.array(data["re"], dtype=float).reshape(n, n)
    im_part = np.array(data["im"], dtype=float).reshape(n, n)
    return re_part + 1j * im_part


def _grid_csv(xs, ps, values):
    # Python float reprs, each axis value formatted once; numpy's own
    # float formatting writes exponents differently
    values = np.asarray(values, dtype=float)
    cells = [repr(p) + "," for p in np.asarray(ps, dtype=float).tolist()]
    rows = ["x,p,value\n"]
    for i, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        head = repr(x) + ","
        rows.append("".join([head + p + repr(v) + "\n" for p, v in
                             zip(cells, values[i].tolist(), strict=True)]))
    return "".join(rows)


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)


def emit(payload, path):
    """Render a matrix (JSON) or an (xs, ps, values) grid (CSV).

    Writes to ``path``, or stdout when it is None, and returns the
    rendered text.  The rendering uses shortest round-trip
    float representations, so a fixed payload is byte-stable.
    """
    if isinstance(payload, np.ndarray):
        text = _matrix_json(payload)
    elif isinstance(payload, tuple) and len(payload) == 3:
        text = _grid_csv(*payload)
    else:
        raise ValueError("emit expects a matrix or an (xs, ps, values) grid")
    _write_text(text, path)
    return text


# -------------------------------------------------------------- subcommands

def _space_from_args(args):
    if args.space == "segal-bargmann":
        return SpaceSpec.segal_bargmann(args.t)
    if args.space == "bergman":
        return SpaceSpec.bergman()
    if args.space == "weighted-bergman":
        return SpaceSpec.weighted_bergman(args.weight)
    return SpaceSpec.hardy()


def _cmd_kernel(args):
    space = _space_from_args(args)
    z = _parse_complex_pair(args.z)
    w = _parse_complex_pair(args.w)
    value = kernel(space, z, w)
    _write_text(_format_complex(value) + "\n", args.out)
    return 0


def _cmd_transform(args):
    coef = _parse_coefficients(args.coefficients)
    z = _parse_complex_pair(args.z)
    if args.form == "A":
        psi = WaveFunction(coef, args.hbar)
        value = transform_A(psi)(z)
    elif args.form == "B":
        psi = WaveFunction(coef, args.hbar, "gaussian-weight")
        value = transform_B(psi, z, n_nodes=args.nodes)
    else:
        psi = WaveFunction(coef, args.hbar)
        value = transform_C(psi, z, n_nodes=args.nodes)
    _write_text(_format_complex(value) + "\n", args.out)
    return 0


def _cmd_husimi(args):
    coef = _parse_coefficients(args.coefficients)
    norm = math.sqrt(float(np.sum(np.abs(coef) ** 2)))
    if norm == 0.0:
        raise ValueError("coefficients are all zero")
    psi = WaveFunction(coef / norm, args.hbar)
    xs = np.linspace(args.x_min, args.x_max, args.x_count)
    ps = np.linspace(args.p_min, args.p_max, args.p_count)
    values = husimi(psi, xs[:, None] + 1j * ps[None, :])
    emit((xs, ps, values), args.out)
    return 0


def _cmd_quantize(args):
    symbol = parse_symbol(args.symbol)
    spec = HermiteBasisSpec(args.truncation, args.hbar)
    operator = quantize(OrderingScheme(args.scheme), symbol, spec)
    emit(operator.entries, args.out)
    return 0


def _cmd_toeplitz(args):
    symbol = parse_sb_symbol(args.symbol)
    operator = toeplitz(symbol, args.truncation, args.t)
    emit(operator.entries, args.out)
    return 0


def _group_from_args(args):
    if args.euler is not None:
        parts = args.euler.split(",")
        if len(parts) != 3:
            raise ValueError("expected 'phi,theta,psi', got %r" % args.euler)
        phi, theta, psi = (float(p) for p in parts)
        return su2_mod.GroupElement.from_euler(phi, theta, psi)
    theta = float(args.theta)
    return su2_mod.GroupElement(
        np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), "su2"
    )


def _cmd_su2_heat(args):
    value = su2_mod.heat_kernel(args.t, _group_from_args(args))
    _write_text(_format_complex(value) + "\n", args.out)
    return 0


def _cmd_su2_transform(args):
    coeffs = su2_mod.PeterWeylCoeffs.character(args.degree)
    group = _group_from_args(args)
    lines = [_format_complex(su2_mod.transform_group(coeffs, group, args.hbar))]
    if args.orders is not None:
        rule = su2_mod.euler_quadrature(*args.orders)
        conv = su2_mod.transform_group_quadrature(coeffs, group, args.hbar, rule)
        lines.append(_format_complex(conv))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_selftest(args):
    from .invariants import SELFTESTS

    if args.list:
        for name, _ in SELFTESTS:
            print(name)
        return 0
    failures = 0
    for name, check in SELFTESTS:
        try:
            residual, tol = check()
        except Exception as exc:  # a raised invariant is a failure, not a crash
            print("FAIL %-46s error %s" % (name, exc))
            failures += 1
            continue
        status = "PASS" if residual <= tol else "FAIL"
        if status == "FAIL":
            failures += 1
        print("%s %-46s residual %.3e  tol %.1e" % (status, name, residual, tol))
    total = len(SELFTESTS)
    print("selftest: %d/%d invariants passed" % (total - failures, total))
    return 1 if failures else 0


# ------------------------------------------------------------------ plumbing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="holoquant",
        description="holomorphic-space transforms, quantization tables, "
                    "and group heat kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate a reproducing kernel")
    p.add_argument("--space", required=True,
                   choices=["segal-bargmann", "bergman", "weighted-bergman",
                            "hardy"])
    p.add_argument("--t", type=_positive, default=1.0,
                   help="Gaussian scale (segal-bargmann only)")
    p.add_argument("--weight", type=float, default=0.0,
                   help="radial weight power (weighted-bergman only)")
    p.add_argument("--z", required=True, help="first point as re,im")
    p.add_argument("--w", required=True, help="second point as re,im")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("transform", help="evaluate a Gaussian transform")
    p.add_argument("--form", required=True, choices=["A", "B", "C"])
    p.add_argument("--coefficients", required=True,
                   help="comma-separated basis coefficients; re:im for complex")
    p.add_argument("--hbar", type=_positive, default=1.0)
    p.add_argument("--z", required=True, help="evaluation point as re,im")
    p.add_argument("--nodes", type=_count, default=110,
                   help="quadrature order for the integral forms")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("husimi", help="phase-space density grid as CSV")
    p.add_argument("--coefficients", required=True,
                   help="Hermite coefficients; normalized before use")
    p.add_argument("--hbar", type=_positive, default=1.0)
    p.add_argument("--x-min", type=float, default=-3.0)
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--x-count", type=int, default=31)
    p.add_argument("--p-min", type=float, default=-3.0)
    p.add_argument("--p-max", type=float, default=3.0)
    p.add_argument("--p-count", type=int, default=31)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_husimi)

    p = sub.add_parser("quantize", help="ordering-scheme matrix as JSON")
    p.add_argument("--scheme", required=True,
                   choices=[s.value for s in OrderingScheme])
    p.add_argument("--symbol", required=True,
                   help="sum of monomials in x and p, e.g. 'x^2*p + 3*p'")
    p.add_argument("--truncation", type=_above(int, 1), default=8)
    p.add_argument("--hbar", type=_positive, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("toeplitz", help="Toeplitz matrix as JSON")
    p.add_argument("--symbol", required=True,
                   help="sum of monomials in z and zb, e.g. 'zb*z'")
    p.add_argument("--truncation", type=_above(int, 1), default=8)
    p.add_argument("--t", type=_positive, default=1.0, help="Gaussian scale")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_toeplitz)

    p = sub.add_parser("su2-heat", help="heat kernel value on the group")
    p.add_argument("--t", type=_positive, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--theta", type=float,
                       help="conjugacy class angle")
    point.add_argument("--euler", help="group point as phi,theta,psi")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_su2_heat)

    p = sub.add_parser("su2-transform",
                       help="heat-smoothed character synthesis")
    p.add_argument("--hbar", type=_positive, required=True)
    p.add_argument("--degree", type=float, required=True,
                   help="half-integer representation degree")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--theta", type=float)
    point.add_argument("--euler", help="group point as phi,theta,psi")
    p.add_argument("--orders", type=_orders,
                   help="nphi,ntheta,npsi: also run the convolution route")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_su2_transform)

    p = sub.add_parser("selftest", help="run every registered invariant")
    p.add_argument("--list", action="store_true",
                   help="print the registry names without running")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv):
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return int(args.handler(args))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


def main(argv=None):
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))
