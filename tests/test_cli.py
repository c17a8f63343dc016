"""Command line parsing, output formats, and exit codes."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoquant.cli import (
    _grid_csv,
    _matrix_json,
    emit,
    load_matrix,
    parse_sb_symbol,
    parse_symbol,
    print_symbol,
    run,
)
from holoquant.fock import HermiteBasisSpec
from holoquant.invariants import SELFTESTS
from holoquant.quantize import OrderingScheme, quantize
from holoquant.transform import WaveFunction, husimi


def capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def parse_value_line(line):
    """Reads the re+imi format back into a complex number."""
    body = line.strip()
    assert body.endswith("i")
    body = body[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos] + body[pos + 1:]))
    raise AssertionError("no separator in %r" % line)


def flat(symbol):
    out = {}
    for key, coeff in symbol.terms.items():
        if isinstance(key[0], tuple):
            out[(key[0][0], key[1][0])] = complex(coeff)
        else:
            out[key] = complex(coeff)
    return out


# ------------------------------------------------------------------ parsing

def test_parse_symbol_basic():
    symbol = parse_symbol("x^2*p + 3*p")
    assert flat(symbol) == {(2, 1): 1.0 + 0j, (0, 1): 3.0 + 0j}


def test_parse_symbol_signs_and_constants():
    symbol = parse_symbol("-x + 2.5*p^3 - 1")
    assert flat(symbol) == {(1, 0): -1.0 + 0j, (0, 3): 2.5 + 0j,
                            (0, 0): -1.0 + 0j}


def test_parse_symbol_zero_coefficient_drops_term():
    assert parse_symbol("0*x").terms == {}


def test_parse_symbol_imaginary_unit():
    symbol = parse_symbol("2j*x + j - 1.5j*p")
    assert flat(symbol) == {(1, 0): 2j, (0, 0): 1j, (0, 1): -1.5j}


def test_parse_symbol_repeated_variables_multiply():
    symbol = parse_symbol("x*x*p^2*x")
    assert flat(symbol) == {(3, 2): 1.0 + 0j}


def test_parse_sb_symbol_names():
    symbol = parse_sb_symbol("z^2*zb - 0.5")
    assert symbol.terms == {(2, 1): 1.0 + 0j, (0, 0): -0.5 + 0j}


@pytest.mark.parametrize("text,position", [
    ("(x^2+p^2)/2", 0),
    ("x +", 3),
    ("x^p", 2),
    ("x^-1", 2),
    ("2 ** x", 3),
    ("x y", 2),
    ("", 0),
])
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ValueError, match="position %d" % position):
        parse_symbol(text)


def test_parse_symbol_rejects_wrong_variables():
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        parse_symbol("z^2")
    with pytest.raises(ValueError, match="unknown variable 'p'"):
        parse_sb_symbol("z*p")


def test_print_symbol_canonical_order():
    text = print_symbol(parse_symbol("3*p + x^2*p - p"))
    assert text == "2.0*p + x^2*p"
    assert print_symbol(parse_symbol("0*x")) == "0"
    assert print_symbol(parse_symbol("-x")) == "-x"


def test_print_symbol_splits_complex_coefficients():
    text = print_symbol(parse_symbol("x + 2j*x"))
    assert text == "x + 2.0*j*x"
    assert flat(parse_symbol(text)) == {(1, 0): 1 + 2j}


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    min_size=0, max_size=6,
))
def test_print_parse_round_trip(terms):
    from holoquant.quantize import PhaseSymbol
    symbol = PhaseSymbol({key: complex(val) for key, val in terms.items()})
    again = parse_symbol(print_symbol(symbol))
    first = flat(symbol)
    second = flat(again)
    assert set(first) == set(second)
    for key in first:
        assert first[key] == second[key]


# ------------------------------------------------------------------- output

def test_matrix_json_round_trip(tmp_path):
    spec = HermiteBasisSpec(6, 1.0)
    entries = quantize(OrderingScheme.WICK, parse_symbol("x^2"), spec).entries
    path = tmp_path / "mat.json"
    text = emit(entries, str(path))
    assert path.read_text() == text
    data = json.loads(text)
    assert data["n"] == 6
    assert len(data["re"]) == 36 and len(data["im"]) == 36
    assert np.array_equal(load_matrix(text), entries)


def test_grid_csv_shape_and_values():
    psi = WaveFunction(np.array([1.0]), 0.5)
    code, out, _ = capture([
        "husimi", "--coefficients", "1", "--hbar", "0.5",
        "--x-min", "-1", "--x-max", "1", "--x-count", "3",
        "--p-min", "0", "--p-max", "0.5", "--p-count", "2",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,p,value"
    assert len(lines) == 1 + 3 * 2
    xs = np.array([-1.0, 0.0, 1.0])
    ps = np.array([0.0, 0.5])
    want = husimi(psi, xs[:, None] + 1j * ps[None, :])
    for line, value in zip(lines[1:], want.ravel()):
        x_str, p_str, v_str = line.split(",")
        assert float(v_str) == pytest.approx(float(value), abs=1e-15)


def test_empty_grid_is_header_only():
    code, out, _ = capture([
        "husimi", "--coefficients", "1", "--x-count", "0", "--p-count", "5",
    ])
    assert code == 0
    assert out == "x,p,value\n"


def test_husimi_rejects_zero_vector():
    code, _, err = capture(["husimi", "--coefficients", "0,0"])
    assert code == 2
    assert "zero" in err


def test_thread_env_does_not_change_bytes(monkeypatch):
    monkeypatch.delenv("HOLOQUANT_THREADS", raising=False)
    small = ["husimi", "--coefficients", "1,0:1,0.5", "--hbar", "0.8",
             "--x-count", "7", "--p-count", "5"]
    # default 31x31 grid, degree-20 state
    default = ["husimi", "--coefficients", ",".join(
        "%r:%r" % (1.0 / (n + 1), 0.1 * (n % 3)) for n in range(21))]
    for argv, cells in ((small, 35), (default, 961)):
        _, base, _ = capture(argv)
        assert base.count("\n") == 1 + cells
        for workers in ("2", "3", "8"):
            monkeypatch.setenv("HOLOQUANT_THREADS", workers)
            _, out, _ = capture(argv)
            assert out == base
        monkeypatch.delenv("HOLOQUANT_THREADS")


def reference_grid_csv(xs, ps, values):
    """Per-cell formatter the renderer must match byte for byte."""
    lines = ["x,p,value"]
    values = np.asarray(values)
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            lines.append(
                "%r,%r,%r" % (float(x), float(p), float(values[i, j]))
            )
    return "\n".join(lines) + "\n"


def reference_matrix_json(matrix):
    """Per-element float() encoder the renderer must match byte for byte."""
    mat = np.asarray(matrix, dtype=complex)
    return json.dumps(
        {
            "n": int(mat.shape[0]),
            "re": [float(v) for v in mat.real.ravel()],
            "im": [float(v) for v in mat.imag.ravel()],
        },
        separators=(",", ":"),
    ) + "\n"


EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2]


@pytest.mark.parametrize("n_x, n_p", [(0, 5), (5, 0), (1, 1), (3, 801)])
def test_grid_csv_matches_reference(n_x, n_p):
    rng = np.random.default_rng(n_x * 1000 + n_p)
    xs = np.linspace(-2.5, 3.0, n_x)
    ps = np.linspace(-1e-5, 7.0, n_p)
    values = rng.random((n_x, n_p)) * 10.0 ** rng.integers(-20, 20, (n_x, n_p))
    flat = values.ravel()
    flat[:len(EDGE_VALUES)] = EDGE_VALUES[:flat.size]
    assert _grid_csv(xs, ps, values) == reference_grid_csv(xs, ps, values)


def test_grid_csv_edge_values_match_reference():
    axis = np.array(EDGE_VALUES)
    values = np.outer(axis, axis[::-1])
    values[0] = EDGE_VALUES
    assert _grid_csv(axis, axis, values) == \
        reference_grid_csv(axis, axis, values)


def test_matrix_json_matches_reference():
    mat = np.array([
        [-0.0, complex(math.nan, -0.0), complex(math.inf, 1e16)],
        [complex(-math.inf, math.nan), 5e-324, complex(1e-5, 0.1 + 0.2)],
        [0.1 + 0.2, -1e16, complex(0.0, math.inf)],
    ])
    text = _matrix_json(mat)
    assert text == reference_matrix_json(mat)
    assert "NaN" in text and "Infinity" in text and "-0.0" in text


def test_emit_rejects_other_payloads():
    with pytest.raises(ValueError, match="matrix or"):
        emit({"not": "supported"}, None)


# ---------------------------------------------------------------- commands

def test_kernel_command_prints_known_value():
    code, out, _ = capture(["kernel", "--space", "bergman",
                            "--z", "0,0", "--w", "0,0"])
    assert code == 0
    assert out == "%r+%ri\n" % (1.0 / math.pi, 0.0)


def test_transform_command_ground_state_is_constant():
    code, out, _ = capture(["transform", "--form", "A", "--coefficients", "1",
                            "--hbar", "0.7", "--z", "0.4,-0.3"])
    assert code == 0
    assert parse_value_line(out) == pytest.approx(1.0, abs=1e-12)


def test_quantize_command_matches_library():
    code, out, _ = capture(["quantize", "--scheme", "weyl",
                            "--symbol", "x*p", "--truncation", "7",
                            "--hbar", "0.5"])
    assert code == 0
    spec = HermiteBasisSpec(7, 0.5)
    want = quantize(OrderingScheme.WEYL, parse_symbol("x*p"), spec).entries
    assert np.array_equal(load_matrix(out), want)


def test_toeplitz_command_diagonal():
    code, out, _ = capture(["toeplitz", "--symbol", "zb*z",
                            "--truncation", "5", "--t", "0.7"])
    assert code == 0
    mat = load_matrix(out)
    assert np.allclose(np.diag(mat)[:4], 0.7 * np.arange(1, 5), atol=1e-14)


def test_su2_heat_class_point_and_euler_agree():
    code_a, out_a, _ = capture(["su2-heat", "--t", "0.5", "--theta", "0.9"])
    code_b, out_b, _ = capture(["su2-heat", "--t", "0.5",
                                "--euler", "0,0,0"])
    assert code_a == 0 and code_b == 0
    # heat concentrates at the identity, so that value dominates
    value_a = parse_value_line(out_a)
    value_b = parse_value_line(out_b)
    assert value_b.real > value_a.real > 0.0
    assert abs(value_a.imag) < 1e-12 and abs(value_b.imag) < 1e-12


def test_su2_transform_two_routes_agree():
    code, out, _ = capture([
        "su2-transform", "--hbar", "0.3", "--degree", "1",
        "--euler", "0.2,0.8,1.1", "--orders", "24,16,40",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    closed = parse_value_line(lines[0])
    convolved = parse_value_line(lines[1])
    assert abs(closed - convolved) < 1e-7


def test_output_file_writing(tmp_path):
    path = tmp_path / "kernel.txt"
    code, out, _ = capture(["kernel", "--space", "hardy",
                            "--z", "0.1,0", "--w", "0.1,0",
                            "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text().endswith("i\n")


# -------------------------------------------------------------- exit codes

def test_unknown_command_exits_2():
    code, _, err = capture(["nonsense"])
    assert code == 2


@pytest.mark.parametrize("option, argv", [
    ("--t", "kernel --space bergman --t 0 --z 0,0 --w 0,0"),
    ("--t", "kernel --space segal-bargmann --t -1 --z 0,0 --w 0,0"),
    ("--hbar", "transform --form A --coefficients 1 --hbar 0 --z 0,0"),
    ("--nodes", "transform --form A --coefficients 1 --nodes 0 --z 0,0"),
    ("--hbar", "husimi --coefficients 1 --hbar -0.5"),
    ("--hbar", "quantize --scheme weyl --symbol x --hbar 0"),
    ("--truncation", "quantize --scheme weyl --symbol x --truncation 1"),
    ("--t", "toeplitz --symbol z --t 0"),
    ("--truncation", "toeplitz --symbol z --truncation 0"),
    ("--t", "su2-heat --t 0 --theta 0.9"),
    ("--hbar", "su2-transform --hbar 0 --degree 1 --theta 0.4"),
    ("--orders", "su2-transform --hbar 1 --degree 1 --theta 0 --orders 4,0,4"),
    # NaN and inf pass a plain "<= 0" test
    ("--t", "kernel --space segal-bargmann --t nan --z 0.1,0.2 --w 0.3,0"),
    ("--t", "kernel --space segal-bargmann --t inf --z 0.1,0.2 --w 0.3,0"),
    ("--hbar", "transform --form C --coefficients 1 --hbar nan --z 0.3,0.2"),
    ("--hbar", "husimi --coefficients 1 --hbar inf"),
    ("--hbar", "quantize --scheme weyl --symbol x --hbar nan"),
    ("--t", "toeplitz --symbol z --t -inf"),
    ("--t", "su2-heat --t nan --theta 0.9"),
    ("--hbar", "su2-transform --hbar inf --degree 1 --theta 0.4"),
])
def test_out_of_range_option_exits_2(option, argv):
    code, out, err = capture(argv.split())
    assert code == 2 and out == ""
    assert option in err


def test_domain_error_exits_2():
    code, _, err = capture(["transform", "--form", "A", "--coefficients", "1",
                            "--hbar", "-1", "--z", "0,0"])
    assert code == 2
    assert "hbar" in err


def test_parse_error_exits_2():
    code, _, err = capture(["quantize", "--scheme", "weyl",
                            "--symbol", "x+(p)"])
    assert code == 2
    assert "position" in err


def test_unwritable_path_exits_3(tmp_path):
    code, _, err = capture(["kernel", "--space", "bergman",
                            "--z", "0,0", "--w", "0,0",
                            "--out", str(tmp_path / "missing" / "out.txt")])
    assert code == 3
    assert "i/o error" in err


def test_help_exits_0():
    code, out, _ = capture(["--help"])
    assert code == 0


# ---------------------------------------------------------------- selftest

REGISTRY_NAMES = (
    "quadrature.gauss-hermite-moments", "quadrature.rule-masses",
    "quadrature.class-rule-orthogonality", "fock.ccr-leading-block",
    "fock.ladder-identities", "fock.weighted-basis-orthonormal",
    "holospace.kernel-series", "holospace.reproducing-identity",
    "holospace.pointwise-bound", "holospace.monomial-norms",
    "holospace.translation-laws", "holospace.disk-action-isometry",
    "holospace.equivalence-product", "holospace.equivalence-isometry",
    "transform.gram-identity", "transform.ground-state-image",
    "transform.pointwise-link", "transform.b-two-routes",
    "transform.inversion-roundtrip", "transform.coherent-overlap",
    "transform.husimi-mass", "transform.husimi-sup-bound",
    "transform.resolution-identity", "quantize.poisson-algebra",
    "quantize.schemes-agree-affine", "quantize.ordering-examples",
    "quantize.pdo-asymmetry", "quantize.self-adjointness",
    "quantize.heat-bridge", "quantize.toeplitz-bridge",
    "quantize.toeplitz-diagonal", "quantize.moment-bridge",
    "quantize.coherent-form-routes", "su2.closure-and-polar",
    "su2.rep-homomorphism", "su2.character-laws", "su2.schur-orthogonality",
    "su2.heat-mass", "su2.heat-semigroup", "su2.transform-dual-route",
    "cli.symbol-round-trip", "cli.emit-determinism",
)


def test_selftest_list_names_every_module():
    code, out, _ = capture(["selftest", "--list"])
    assert code == 0
    assert tuple(out.strip().split("\n")) == REGISTRY_NAMES


def test_selftest_registry_entries_return_pairs():
    by_name = dict(SELFTESTS)
    residual, tol = by_name["quadrature.gauss-hermite-moments"]()
    assert residual <= tol
    residual, tol = by_name["quantize.toeplitz-diagonal"]()
    assert residual <= tol
