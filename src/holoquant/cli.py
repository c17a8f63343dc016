"""Batch command line front end and the self-test registry.

Subcommands expose kernels, transforms, Husimi grids, quantization and
Toeplitz matrices, and the heat kernel and smoothing transform on the
special unitary group.  Output is machine readable: single values print
as ``re+imi``, matrices as JSON objects ``{"n": N, "re": [...], "im":
[...]}`` in row-major order, grids as CSV with header ``x,p,value``.
Identical arguments produce byte-identical output.

Exit codes: 0 success, 1 self-test failure, 2 usage or domain error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import su2 as su2_mod
from .fock import HermiteBasisSpec, commutator, ladder, position_momentum, \
    svn_ladder_identities
from .holospace import HoloFunction, SpaceSpec, holo_equiv, kernel, \
    kernel_from_basis, monomial_norms, pointwise_bound_check, reproduce, \
    su11_act, translate
from .quadrature import complex_gaussian, disk_rule, gauss_hermite, \
    su2_class_rule
from .quantize import OrderingScheme, PhaseSymbol, SBSymbol, \
    antiwick_toeplitz_bridge, exact_block_size, heat_smooth, husimi_moment, \
    poisson, quantize, toeplitz, toeplitz_coherent_form, weyl_moment
from .transform import WaveFunction, coherent_overlap, coherent_state, \
    ground_state_transform, husimi, husimi_mass, invert_C, resolution_check, \
    transform_A, transform_B, transform_B_factored, transform_C


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of the numeric and output settings of one run."""

    hbar: float = 1.0
    truncation: int = 8
    orders: tuple = (1,)
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")
        if not self.orders or any(int(o) < 1 for o in self.orders):
            raise ValueError("quadrature orders must be at least 1")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output format must be 'json' or 'csv'")


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


def _parse_int_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers, got %r" % text)
    return tuple(int(p) for p in parts)


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


def emit(payload, config):
    """Render a matrix (JSON) or an (xs, ps, values) grid (CSV).

    Writes to the configured path, or stdout when none is set, and
    returns the rendered text.  The rendering uses shortest round-trip
    float representations, so a fixed payload is byte-stable.
    """
    if isinstance(payload, np.ndarray):
        text = _matrix_json(payload)
    elif isinstance(payload, tuple) and len(payload) == 3:
        text = _grid_csv(*payload)
    else:
        raise ValueError("emit expects a matrix or an (xs, ps, values) grid")
    _write_text(text, config.output_path)
    return text


def _husimi_grid(psi, xs, ps):
    grid = xs[:, None] + 1j * ps[None, :]
    if grid.size == 0:
        return np.zeros(grid.shape, dtype=float)
    return husimi(psi, grid)


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
    config = RunConfig(hbar=args.t, output_path=args.out)
    space = _space_from_args(args)
    z = _parse_complex_pair(args.z)
    w = _parse_complex_pair(args.w)
    value = kernel(space, z, w)
    _write_text(_format_complex(value) + "\n", config.output_path)
    return 0


def _cmd_transform(args):
    config = RunConfig(hbar=args.hbar, orders=(args.nodes,),
                       output_path=args.out)
    coef = _parse_coefficients(args.coefficients)
    z = _parse_complex_pair(args.z)
    if args.form == "A":
        psi = WaveFunction(coef, config.hbar)
        value = transform_A(psi)(z)
    elif args.form == "B":
        psi = WaveFunction(coef, config.hbar, "gaussian-weight")
        value = transform_B(psi, z, n_nodes=args.nodes)
    else:
        psi = WaveFunction(coef, config.hbar)
        value = transform_C(psi, z, n_nodes=args.nodes)
    _write_text(_format_complex(value) + "\n", config.output_path)
    return 0


def _cmd_husimi(args):
    config = RunConfig(hbar=args.hbar, output_format="csv",
                       output_path=args.out)
    coef = _parse_coefficients(args.coefficients)
    norm = math.sqrt(float(np.sum(np.abs(coef) ** 2)))
    if norm == 0.0:
        raise ValueError("coefficients are all zero")
    psi = WaveFunction(coef / norm, config.hbar)
    if args.x_count < 0 or args.p_count < 0:
        raise ValueError("grid counts must be nonnegative")
    xs = np.linspace(args.x_min, args.x_max, args.x_count)
    ps = np.linspace(args.p_min, args.p_max, args.p_count)
    values = _husimi_grid(psi, xs, ps)
    emit((xs, ps, values), config)
    return 0


def _cmd_quantize(args):
    config = RunConfig(hbar=args.hbar, truncation=args.truncation,
                       output_path=args.out)
    symbol = parse_symbol(args.symbol)
    spec = HermiteBasisSpec(config.truncation, config.hbar)
    operator = quantize(OrderingScheme(args.scheme), symbol, spec)
    emit(operator.entries, config)
    return 0


def _cmd_toeplitz(args):
    config = RunConfig(hbar=args.t, truncation=args.truncation,
                       output_path=args.out)
    symbol = parse_sb_symbol(args.symbol)
    operator = toeplitz(symbol, config.truncation, args.t)
    emit(operator.entries, config)
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
    config = RunConfig(hbar=args.t, output_path=args.out)
    value = su2_mod.heat_kernel(args.t, _group_from_args(args))
    _write_text(_format_complex(value) + "\n", config.output_path)
    return 0


def _cmd_su2_transform(args):
    config = RunConfig(hbar=args.hbar, output_path=args.out)
    coeffs = su2_mod.PeterWeylCoeffs.character(args.degree)
    group = _group_from_args(args)
    lines = [_format_complex(su2_mod.transform_group(coeffs, group, args.hbar))]
    if args.orders is not None:
        orders = _parse_int_triple(args.orders)
        RunConfig(hbar=args.hbar, orders=orders)
        rule = su2_mod.euler_quadrature(*orders)
        conv = su2_mod.transform_group_quadrature(coeffs, group, args.hbar, rule)
        lines.append(_format_complex(conv))
    _write_text("\n".join(lines) + "\n", config.output_path)
    return 0


def _cmd_selftest(args):
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


# ---------------------------------------------------------------- registry

def _st_gauss_hermite_moments():
    rule = gauss_hermite(24, 0.7)
    worst = 0.0
    for k in range(0, 13):
        got = float(rule.weights @ rule.nodes ** k)
        want = 0.0
        if k % 2 == 0:
            want = float(math.prod(range(k - 1, 0, -2)) or 1) * 0.7 ** (k // 2)
        worst = max(worst, abs(got - want))
    return worst, 1e-12


def _st_rule_masses():
    worst = abs(float(np.sum(gauss_hermite(16, 1.3).weights)) - 1.0)
    mu = complex_gaussian(14, 0.9)
    worst = max(worst, abs(float(np.sum(mu.weights)) - mu.total_mass))
    disk = disk_rule(10, 21, 1.5)
    worst = max(worst, abs(float(np.sum(disk.weights)) - math.pi / 2.5))
    worst = max(worst, abs(float(np.sum(su2_class_rule(16).weights)) - 1.0))
    return worst, 1e-12


def _st_class_rule_orthogonality():
    rule = su2_class_rule(16)
    theta = rule.nodes
    worst = 0.0
    for a in range(5):
        for b in range(5):
            chars = (np.sin((a + 1) * theta) / np.sin(theta)) \
                * (np.sin((b + 1) * theta) / np.sin(theta))
            got = float(rule.weights @ chars)
            worst = max(worst, abs(got - (1.0 if a == b else 0.0)))
    return worst, 1e-12


def _st_ccr_block():
    worst = 0.0
    for h in (0.5, 1.0, 2.0):
        spec = HermiteBasisSpec(20, h)
        x_op, p_op = position_momentum(spec)
        low, raise_ = ladder(spec)
        eye = np.eye(20)
        block = commutator(x_op, p_op).entries - 1j * h * eye
        worst = max(worst, float(np.max(np.abs(block[:19, :19]))))
        block = commutator(low, raise_).entries - h * eye
        worst = max(worst, float(np.max(np.abs(block[:19, :19]))))
    return worst, 1e-12


def _st_ladder_identities():
    # residuals are absolute against h^n n!, so keep the basis small
    report = svn_ladder_identities(HermiteBasisSpec(10, 0.8))
    return report["max_residual"], 1e-9


def _st_weighted_basis_orthonormal():
    h = 0.9
    rule = gauss_hermite(40, h)
    table = np.empty((10, len(rule.nodes)), dtype=complex)
    for n in range(10):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        table[n] = WaveFunction(coef, h, "gaussian-weight")(rule.nodes)
    gram = (table * rule.weights) @ table.T.conj()
    return float(np.max(np.abs(gram - np.eye(10)))), 1e-9


def _st_kernel_series():
    rng = np.random.default_rng(101)
    worst = 0.0
    plane = SpaceSpec.segal_bargmann(1.3)
    for _ in range(6):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        worst = max(worst, abs(kernel(plane, z, w)
                               - kernel_from_basis(plane, z, w, 60)))
    for space in (SpaceSpec.bergman(), SpaceSpec.weighted_bergman(0.7),
                  SpaceSpec.hardy()):
        for _ in range(6):
            z = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
            w = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
            worst = max(worst, abs(kernel(space, z, w)
                                   - kernel_from_basis(space, z, w, 160)))
    return worst, 1e-10


def _st_reproducing_identity():
    rng = np.random.default_rng(103)
    space = SpaceSpec.bergman()
    coef = rng.normal(size=9) + 1j * rng.normal(size=9)
    f = HoloFunction(coef, space)
    rule = disk_rule(40, 80, 0.0)
    worst = 0.0
    for z in (0.3 + 0.2j, -0.4j, 0.55):
        worst = max(worst, abs(reproduce(space, f, z, rule) - f(z)))
    return worst, 1e-8


def _st_pointwise_bound():
    rng = np.random.default_rng(105)
    space = SpaceSpec.segal_bargmann(0.9)
    f = HoloFunction(rng.normal(size=9) + 1j * rng.normal(size=9), space)
    worst = 0.0
    for z in (0.4 + 0.3j, 1.2 - 0.5j, -0.8 + 1.0j):
        report = pointwise_bound_check(space, f, z)
        worst = max(worst, max(0.0, report["ratio"] - 1.0))
    return worst, 1e-10


def _st_monomial_norms():
    space = SpaceSpec.segal_bargmann(1.1)
    rule = complex_gaussian(40, 1.1)
    norms = monomial_norms(space, 11)
    worst = 0.0
    for n in range(11):
        got = float(np.real(rule.weights @ (np.abs(rule.nodes) ** (2 * n))))
        worst = max(worst, abs(got - norms[n]) / norms[n])
    return worst, 1e-9


def _st_translation_laws():
    rng = np.random.default_rng(107)
    t = 0.8
    space = SpaceSpec.segal_bargmann(t)
    f = HoloFunction(rng.normal(size=9) + 1j * rng.normal(size=9), space)
    a = 0.5 - 0.3j
    b = -0.2 + 0.6j
    moved = translate(a, f)
    worst = abs(moved.norm_sq() - f.norm_sq()) / f.norm_sq()
    twice = translate(a, translate(b, f))
    joint = translate(a + b, f)
    phase = np.exp(-1j * (a * np.conj(b)).imag / t)
    for z in (0.3, -0.2 + 0.4j, 0.7j):
        worst = max(worst, abs(twice(z) - phase * joint(z)))
    return worst, 1e-9


def _st_disk_action_isometry():
    rng = np.random.default_rng(109)
    space = SpaceSpec.weighted_bergman(0.7)
    f = HoloFunction(rng.normal(size=8) + 1j * rng.normal(size=8), space)
    beta = 0.3 + 0.2j
    alpha = math.sqrt(1.0 + abs(beta) ** 2)
    g = np.array([[alpha, beta], [np.conj(beta), alpha]], dtype=complex)
    moved = su11_act(g, f)
    return abs(moved.norm_sq() - f.norm_sq()) / f.norm_sq(), 1e-9


def _st_equivalence_product():
    space = SpaceSpec.segal_bargmann(1.0)
    phi = HoloFunction(np.array([1.0, 0.0, 0.5]), space)
    f = HoloFunction(np.array([0.5, -1.0, 0.0, 2.0]), space)
    product = holo_equiv(phi, f)
    worst = 0.0
    for z in (0.3 + 0.1j, -1.1, 0.8j):
        worst = max(worst, abs(product(z) - phi(z) * f(z)))
    return worst, 1e-12


def _st_equivalence_isometry():
    # multiplication by the Gaussian ground state carries the mu_{2h}
    # norm onto the nu_h norm
    h = 0.9
    rng = np.random.default_rng(111)
    coef = rng.normal(size=7) + 1j * rng.normal(size=7)
    f = HoloFunction(coef, SpaceSpec.segal_bargmann(2.0 * h))
    mu_rule = complex_gaussian(40, 2.0 * h)
    nu_rule = complex_gaussian(70, h, "nu")
    norm_mu = float(np.real(mu_rule.weights @ np.abs(f(mu_rule.nodes)) ** 2))
    ground = (4.0 * math.pi * h) ** -0.25 \
        * np.exp(-nu_rule.nodes ** 2 / (4.0 * h))
    vals = ground * f(nu_rule.nodes)
    norm_nu = float(np.real(nu_rule.weights @ np.abs(vals) ** 2))
    return abs(norm_nu - norm_mu) / norm_mu, 1e-7


def _st_transform_gram():
    h = 0.8
    rule = complex_gaussian(30, h)
    worst = 0.0
    images = []
    for n in range(10):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        images.append(transform_A(WaveFunction(coef, h))(rule.nodes))
    images = np.array(images)
    gram = (images * rule.weights) @ images.T.conj()
    worst = float(np.max(np.abs(gram - np.eye(10))))
    return worst, 1e-9


def _st_ground_state_image():
    h = 1.2
    f0 = transform_A(WaveFunction(np.array([1.0]), h))
    zs = np.linspace(-1.5, 1.5, 10) + 0.3j
    worst = float(np.max(np.abs(f0(zs) - 1.0)))
    retagged = ground_state_transform(WaveFunction(np.array([0.5, 0.5, 0.1]), h))
    worst = max(worst, float(np.max(np.abs(
        retagged.hermite_coefficients - np.array([0.5, 0.5, 0.1])))))
    return worst, 1e-10


def _st_transform_pointwise_link():
    rng = np.random.default_rng(113)
    h = 0.7
    coef = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi = WaveFunction(coef, h)
    holo = transform_A(psi)
    worst = 0.0
    for _ in range(8):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        via_a = (4.0 * math.pi * h) ** -0.25 \
            * np.exp(-z ** 2 / (4.0 * h)) * holo(z / math.sqrt(2.0))
        worst = max(worst, abs(transform_C(psi, z) - via_a))
    return worst, 1e-9


def _st_transform_b_routes():
    rng = np.random.default_rng(115)
    h = 1.1
    coef = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = WaveFunction(coef, h, "gaussian-weight")
    worst = 0.0
    for _ in range(6):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        worst = max(worst, abs(transform_B(psi, z)
                               - transform_B_factored(psi, z)))
    return worst, 1e-10


def _st_inversion_roundtrip():
    rng = np.random.default_rng(117)
    h = 0.9
    coef = rng.normal(size=9)
    psi = WaveFunction(coef, h)
    rule = gauss_hermite(80, h)
    worst = 0.0
    for x in (-1.1, 0.0, 0.4, 1.7):
        recovered = invert_C(lambda p: transform_C(psi, x + 1j * p), x, rule)
        worst = max(worst, abs(recovered - complex(psi(x))))
    return worst, 1e-7


def _st_coherent_overlap():
    h = 0.8
    z = 0.6 - 0.2j
    w = -0.3 + 0.5j
    state = coherent_state(w, h)
    got = transform_C(state, z)
    want = coherent_overlap(z, w, h)
    return abs(got - want), 1e-9


def _st_husimi_mass():
    rng = np.random.default_rng(119)
    h = 0.8
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    coef /= math.sqrt(float(np.sum(np.abs(coef) ** 2)))
    return abs(husimi_mass(WaveFunction(coef, h)) - 1.0), 1e-5


def _st_husimi_sup_bound():
    rng = np.random.default_rng(121)
    h = 0.6
    worst = 0.0
    bound = 1.0 / (2.0 * math.pi * h)
    xs = np.linspace(-6, 6, 61)
    grid = xs[:, None] + 1j * xs[None, :]
    for _ in range(5):
        coef = rng.normal(size=5) + 1j * rng.normal(size=5)
        coef /= math.sqrt(float(np.sum(np.abs(coef) ** 2)))
        top = float(np.max(husimi(WaveFunction(coef, h), grid)))
        worst = max(worst, (top - bound) / bound)
    return max(worst, 0.0), 1e-9


def _st_resolution_identity():
    rng = np.random.default_rng(123)
    h = 1.0
    f = WaveFunction(rng.normal(size=5) + 1j * rng.normal(size=5), h)
    g = WaveFunction(rng.normal(size=5) + 1j * rng.normal(size=5), h)
    rule = complex_gaussian(70, h, "nu")
    return resolution_check(f, g, rule), 1e-7


def _st_poisson_algebra():
    rng = np.random.default_rng(125)
    worst = 0.0
    for _ in range(4):
        symbols = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                n = int(rng.integers(0, 4))
                m = int(rng.integers(0, 4 - n)) if n < 4 else 0
                terms[(n, m)] = terms.get((n, m), 0.0) + float(rng.integers(-3, 4))
            symbols.append(PhaseSymbol(terms))
        f, g, k = symbols
        jacobi = poisson(f, poisson(g, k)) \
            + poisson(g, poisson(k, f)) \
            + poisson(k, poisson(f, g))
        leibniz = poisson(f, g * k) \
            - (poisson(f, g) * k + g * poisson(f, k))
        for residue in (jacobi, leibniz):
            if residue.terms:
                worst = max(worst, max(abs(c) for c in residue.terms.values()))
    return worst, 1e-12


def _st_schemes_agree_affine():
    spec = HermiteBasisSpec(12, 0.9)
    symbol = PhaseSymbol({(1, 0): 2.0, (0, 1): 3.0, (0, 0): 1.5})
    mats = [quantize(scheme, symbol, spec).entries for scheme in OrderingScheme]
    worst = 0.0
    for mat in mats[1:]:
        worst = max(worst, float(np.max(np.abs(mat - mats[0]))))
    return worst, 1e-13


def _st_ordering_examples():
    h = 1.0
    spec = HermiteBasisSpec(16, h)
    x_op, p_op = position_momentum(spec)
    block = exact_block_size(16, PhaseSymbol({(2, 1): 1.0}))
    weyl = quantize(OrderingScheme.WEYL, PhaseSymbol({(2, 1): 1.0}), spec).entries
    sym = (x_op @ x_op @ p_op + x_op @ p_op @ x_op + p_op @ x_op @ x_op).entries / 3.0
    worst = float(np.max(np.abs(weyl[:block, :block] - sym[:block, :block])))
    x_sq = PhaseSymbol({(2, 0): 1.0})
    xx = (x_op @ x_op).entries
    block = exact_block_size(16, x_sq)
    wick = quantize(OrderingScheme.WICK, x_sq, spec).entries
    anti = quantize(OrderingScheme.ANTI_WICK, x_sq, spec).entries
    eye = np.eye(16)
    worst = max(worst, float(np.max(np.abs(
        (wick - (xx - 0.5 * h * eye))[:block, :block]))))
    worst = max(worst, float(np.max(np.abs(
        (anti - (xx + 0.5 * h * eye))[:block, :block]))))
    mixed = PhaseSymbol({(2, 2): 1.0})
    block = exact_block_size(16, mixed)
    pdo = quantize(OrderingScheme.PDO_STANDARD, mixed, spec).entries
    direct = (x_op @ x_op @ p_op @ p_op).entries
    worst = max(worst, float(np.max(np.abs(
        (pdo - direct)[:block, :block]))))
    return worst, 1e-12


def _st_pdo_asymmetry():
    h = 0.7
    spec = HermiteBasisSpec(14, h)
    op = quantize(OrderingScheme.PDO_STANDARD, PhaseSymbol({(1, 1): 1.0}), spec)
    gap = (op.adjoint() - op).entries
    block = exact_block_size(14, PhaseSymbol({(1, 1): 1.0}))
    eye = np.eye(14)
    return float(np.max(np.abs((gap + 1j * h * eye)[:block, :block]))), 1e-12


def _st_self_adjointness():
    spec = HermiteBasisSpec(14, 0.8)
    symbol = PhaseSymbol({(2, 1): 1.0, (0, 3): -0.5, (1, 0): 2.0})
    worst = 0.0
    for scheme in (OrderingScheme.WEYL, OrderingScheme.WICK,
                   OrderingScheme.ANTI_WICK):
        op = quantize(scheme, symbol, spec)
        worst = max(worst, float(np.max(np.abs(
            (op.adjoint() - op).entries))))
    return worst, 1e-12


def _st_heat_bridge():
    spec = HermiteBasisSpec(24, 0.7)
    worst = 0.0
    for n in range(5):
        for m in range(5 - n):
            symbol = PhaseSymbol({(n, m): 1.0})
            block = exact_block_size(24, symbol)
            anti = quantize(OrderingScheme.ANTI_WICK, symbol, spec).entries
            smoothed = quantize(OrderingScheme.WEYL,
                                heat_smooth(symbol, 0.7), spec).entries
            worst = max(worst, float(np.max(np.abs(
                (anti - smoothed)[:block, :block]))))
    return worst, 1e-11


def _st_toeplitz_bridge():
    spec = HermiteBasisSpec(20, 0.6)
    worst = 0.0
    for n in range(4):
        for m in range(4 - n):
            worst = max(worst, antiwick_toeplitz_bridge(
                PhaseSymbol({(n, m): 1.0}), spec))
    return worst, 1e-9


def _st_toeplitz_diagonal():
    t = 0.7
    op = toeplitz(SBSymbol({(1, 1): 1.0}), 12, t).entries
    want = np.diag([t * (n + 1) for n in range(11)] + [0.0])
    return float(np.max(np.abs(op - want))), 1e-13


def _st_moment_bridge():
    rng = np.random.default_rng(127)
    h = 0.8
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    coef /= math.sqrt(float(np.sum(np.abs(coef) ** 2)))
    psi = WaveFunction(coef, h)
    worst = 0.0
    for terms in ({(2, 0): 1.0}, {(0, 2): 1.0, (2, 0): 1.0}, {(1, 1): 1.0},
                  {(2, 2): 0.5, (0, 1): 1.0}):
        symbol = PhaseSymbol(terms)
        direct = husimi_moment(psi, symbol)
        smoothed = weyl_moment(psi, heat_smooth(symbol, h))
        worst = max(worst, abs(direct - smoothed))
    return worst, 1e-6


def _st_coherent_form_routes():
    rng = np.random.default_rng(129)
    t = 0.8
    space = SpaceSpec.segal_bargmann(t)
    f = HoloFunction(rng.normal(size=6) + 1j * rng.normal(size=6), space)
    g = HoloFunction(rng.normal(size=6) + 1j * rng.normal(size=6), space)
    phi = SBSymbol({(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 1.0})
    rule = complex_gaussian(40, t)
    return toeplitz_coherent_form(phi, f, g, rule), 1e-8


def _st_su2_closure_polar():
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(10):
        g = su2_mod.GroupElement.from_euler(
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(0, 4 * np.pi)),
        )
        h = su2_mod.GroupElement.from_euler(
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(0, 4 * np.pi)),
        )
        product = g @ h
        worst = max(worst, float(np.max(np.abs(
            (product @ product.inverse()).matrix - np.eye(2)))))
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        raw = raw / np.sqrt(raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0])
        unitary, skew = su2_mod.polar_decompose(
            su2_mod.GroupElement(raw, "sl2c"))
        rebuilt = unitary @ su2_mod.group_exp(skew, 1j)
        worst = max(worst, float(np.max(np.abs(rebuilt.matrix - raw))))
    return worst, 1e-12


def _st_su2_homomorphism():
    rng = np.random.default_rng(133)
    worst = 0.0
    for _ in range(10):
        g = su2_mod.GroupElement.from_euler(
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(0, 4 * np.pi)),
        )
        h = su2_mod.GroupElement.from_euler(
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(0, 4 * np.pi)),
        )
        for twice in range(1, 7):
            lhs = su2_mod.rep_matrix(twice / 2.0, g @ h)
            rhs = su2_mod.rep_matrix(twice / 2.0, g) \
                @ su2_mod.rep_matrix(twice / 2.0, h)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, 1e-10


def _st_su2_character_laws():
    worst = 0.0
    g = su2_mod.GroupElement.from_euler(1.1, 0.8, 2.7)
    h = su2_mod.GroupElement.from_euler(0.4, 2.1, 5.0)
    moved = h @ g @ h.inverse()
    for twice in range(1, 7):
        degree = twice / 2.0
        worst = max(worst, abs(su2_mod.character(degree, moved)
                               - su2_mod.character(degree, g)))
        worst = max(worst, abs(su2_mod.character(degree, g)
                               - complex(np.trace(su2_mod.rep_matrix(degree, g)))))
    a = 0.6
    stretch = su2_mod.GroupElement(
        np.diag([np.exp(a), np.exp(-a)]).astype(complex), "sl2c")
    for twice in (1, 2, 5):
        mat = su2_mod.rep_matrix(twice / 2.0, stretch)
        want = np.exp(a * (twice - 2 * np.arange(twice + 1)))
        worst = max(worst, float(np.max(np.abs(np.diag(mat) - want) / want)))
    return worst, 1e-10


def _st_su2_schur():
    rule = su2_mod.euler_quadrature(9, 5, 15)
    mats = su2_mod.euler_matrix(rule.nodes)
    worst = 0.0
    entries = {}
    for twice in range(0, 4):
        reps = np.empty((mats.shape[0], twice + 1, twice + 1), dtype=complex)
        for idx in range(mats.shape[0]):
            reps[idx] = su2_mod.rep_matrix(
                twice / 2.0, su2_mod.GroupElement(mats[idx], "su2"))
        entries[twice] = reps
    for ka in range(0, 4):
        for kb in range(ka, 4):
            gram = np.einsum("kab,kcd,k->abcd", entries[ka],
                             entries[kb].conj(), rule.weights)
            want = np.zeros_like(gram)
            if ka == kb:
                for a in range(ka + 1):
                    for b in range(ka + 1):
                        want[a, b, a, b] = 1.0 / (ka + 1)
            worst = max(worst, float(np.max(np.abs(gram - want))))
    return worst, 1e-9


def _st_su2_heat_mass():
    rule = su2_class_rule(50)
    vals = np.array([
        su2_mod.heat_kernel(0.5, su2_mod.GroupElement(
            np.diag([np.exp(1j * float(t)), np.exp(-1j * float(t))]),
            "su2")).real
        for t in rule.nodes
    ])
    return abs(float(rule.weights @ vals) - 1.0), 1e-8


def _st_su2_semigroup():
    rng = np.random.default_rng(137)
    worst = 0.0
    smooth = su2_mod.PeterWeylCoeffs(tuple(
        math.sqrt(k + 1) * math.exp(-1.1 * k * (k + 2) / 8.0)
        * np.eye(k + 1, dtype=complex)
        for k in range(25)
    ))
    for _ in range(3):
        g = su2_mod.GroupElement.from_euler(
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(0, 4 * np.pi)),
        )
        lhs = su2_mod.transform_group(smooth, g, 0.9)
        worst = max(worst, abs(lhs - su2_mod.heat_kernel(2.0, g)))
    short = su2_mod.PeterWeylCoeffs(tuple(
        math.sqrt(k + 1) * math.exp(-1.1 * k * (k + 2) / 8.0)
        * np.eye(k + 1, dtype=complex)
        for k in range(15)
    ))
    rule = su2_mod.euler_quadrature(17, 9, 32)
    g = su2_mod.GroupElement(
        np.diag([np.exp(0.9j), np.exp(-0.9j)]), "su2")
    conv = su2_mod.transform_group_quadrature(short, g, 0.9, rule)
    worst = max(worst, abs(conv - su2_mod.heat_kernel(2.0, g)))
    return worst, 1e-8


def _st_su2_transform_dual():
    coeffs = su2_mod.PeterWeylCoeffs.character(1)
    g = su2_mod.GroupElement(
        np.diag([np.exp(0.4), np.exp(-0.4)]).astype(complex), "sl2c")
    closed = su2_mod.transform_group(coeffs, g, 0.9)
    rule = su2_mod.euler_quadrature(20, 10, 38)
    conv = su2_mod.transform_group_quadrature(coeffs, g, 0.9, rule)
    return abs(closed - conv), 1e-7


def _st_symbol_round_trip():
    worst = 0.0
    for text in ("x^2*p + 3*p", "-x + 2.5*p^3 - 1", "0*x",
                 "1.5*j*x*p^2 - 2*x", "p^4 + 0.25"):
        first = parse_symbol(text)
        again = parse_symbol(print_symbol(first))
        keys = set(first.terms) | set(again.terms)
        for key in keys:
            delta = abs(first.terms.get(key, 0.0) - again.terms.get(key, 0.0))
            worst = max(worst, delta)
    sb = parse_sb_symbol("z^2*zb - 0.5")
    again = parse_sb_symbol(print_symbol(sb, names=("z", "zb")))
    for key in set(sb.terms) | set(again.terms):
        worst = max(worst, abs(sb.terms.get(key, 0.0) - again.terms.get(key, 0.0)))
    return worst, 1e-15


def _st_emit_determinism():
    spec = HermiteBasisSpec(6, 1.0)
    op = quantize(OrderingScheme.WICK, parse_symbol("x^2"), spec)
    first = _matrix_json(op.entries)
    second = _matrix_json(quantize(
        OrderingScheme.WICK, parse_symbol("x^2"), spec).entries)
    if first != second:
        return 1.0, 0.5
    back = load_matrix(first)
    if not np.array_equal(back, op.entries):
        return 1.0, 0.5
    xs = np.linspace(-1.0, 1.0, 3)
    psi = WaveFunction(np.array([1.0]), 1.0)
    grid_a = _grid_csv(xs, xs, _husimi_grid(psi, xs, xs))
    grid_b = _grid_csv(xs, xs, _husimi_grid(psi, xs, xs))
    return (0.0 if grid_a == grid_b else 1.0), 0.5


SELFTESTS = (
    ("quadrature.gauss-hermite-moments", _st_gauss_hermite_moments),
    ("quadrature.rule-masses", _st_rule_masses),
    ("quadrature.class-rule-orthogonality", _st_class_rule_orthogonality),
    ("fock.ccr-leading-block", _st_ccr_block),
    ("fock.ladder-identities", _st_ladder_identities),
    ("fock.weighted-basis-orthonormal", _st_weighted_basis_orthonormal),
    ("holospace.kernel-series", _st_kernel_series),
    ("holospace.reproducing-identity", _st_reproducing_identity),
    ("holospace.pointwise-bound", _st_pointwise_bound),
    ("holospace.monomial-norms", _st_monomial_norms),
    ("holospace.translation-laws", _st_translation_laws),
    ("holospace.disk-action-isometry", _st_disk_action_isometry),
    ("holospace.equivalence-product", _st_equivalence_product),
    ("holospace.equivalence-isometry", _st_equivalence_isometry),
    ("transform.gram-identity", _st_transform_gram),
    ("transform.ground-state-image", _st_ground_state_image),
    ("transform.pointwise-link", _st_transform_pointwise_link),
    ("transform.b-two-routes", _st_transform_b_routes),
    ("transform.inversion-roundtrip", _st_inversion_roundtrip),
    ("transform.coherent-overlap", _st_coherent_overlap),
    ("transform.husimi-mass", _st_husimi_mass),
    ("transform.husimi-sup-bound", _st_husimi_sup_bound),
    ("transform.resolution-identity", _st_resolution_identity),
    ("quantize.poisson-algebra", _st_poisson_algebra),
    ("quantize.schemes-agree-affine", _st_schemes_agree_affine),
    ("quantize.ordering-examples", _st_ordering_examples),
    ("quantize.pdo-asymmetry", _st_pdo_asymmetry),
    ("quantize.self-adjointness", _st_self_adjointness),
    ("quantize.heat-bridge", _st_heat_bridge),
    ("quantize.toeplitz-bridge", _st_toeplitz_bridge),
    ("quantize.toeplitz-diagonal", _st_toeplitz_diagonal),
    ("quantize.moment-bridge", _st_moment_bridge),
    ("quantize.coherent-form-routes", _st_coherent_form_routes),
    ("su2.closure-and-polar", _st_su2_closure_polar),
    ("su2.rep-homomorphism", _st_su2_homomorphism),
    ("su2.character-laws", _st_su2_character_laws),
    ("su2.schur-orthogonality", _st_su2_schur),
    ("su2.heat-mass", _st_su2_heat_mass),
    ("su2.heat-semigroup", _st_su2_semigroup),
    ("su2.transform-dual-route", _st_su2_transform_dual),
    ("cli.symbol-round-trip", _st_symbol_round_trip),
    ("cli.emit-determinism", _st_emit_determinism),
)


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
    p.add_argument("--t", type=float, default=1.0,
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
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--z", required=True, help="evaluation point as re,im")
    p.add_argument("--nodes", type=int, default=110,
                   help="quadrature order for the integral forms")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("husimi", help="phase-space density grid as CSV")
    p.add_argument("--coefficients", required=True,
                   help="Hermite coefficients; normalized before use")
    p.add_argument("--hbar", type=float, default=1.0)
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
    p.add_argument("--truncation", type=int, default=8)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("toeplitz", help="Toeplitz matrix as JSON")
    p.add_argument("--symbol", required=True,
                   help="sum of monomials in z and zb, e.g. 'zb*z'")
    p.add_argument("--truncation", type=int, default=8)
    p.add_argument("--t", type=float, default=1.0, help="Gaussian scale")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_toeplitz)

    p = sub.add_parser("su2-heat", help="heat kernel value on the group")
    p.add_argument("--t", type=float, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--theta", type=float,
                       help="conjugacy class angle")
    point.add_argument("--euler", help="group point as phi,theta,psi")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_su2_heat)

    p = sub.add_parser("su2-transform",
                       help="heat-smoothed character synthesis")
    p.add_argument("--hbar", type=float, required=True)
    p.add_argument("--degree", type=float, required=True,
                   help="half-integer representation degree")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--theta", type=float)
    point.add_argument("--euler", help="group point as phi,theta,psi")
    p.add_argument("--orders",
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
