"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line with the
measured residual and the pinned tolerance, then asserts.  Criteria 01,
05, 06 and 07 run their entries of the self-test registry
(``holoquant.invariants``), so each of those invariants is written once.
Two checks carry extra printed context: the translation phase law shows the
residual under both sign conventions for its scalar factor, and the
bracket-correspondence check shows both operator sides where the
correspondence genuinely breaks.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from holoquant.cli import run
from holoquant.fock import HermiteBasisSpec, position_momentum
from holoquant.holospace import HoloFunction, SpaceSpec, kernel, \
    kernel_from_basis, reproduce, translate
from holoquant.invariants import SELFTESTS
from holoquant.quadrature import complex_gaussian, disk_rule, gauss_hermite, \
    su2_class_rule
from holoquant.quantize import OrderingScheme, PhaseSymbol, \
    commutator_vs_poisson, heat_smooth, husimi_moment, weyl_moment
from holoquant.su2 import GroupElement, PeterWeylCoeffs, character, \
    euler_quadrature, heat_kernel, rep_matrix, transform_group, \
    transform_group_quadrature
from holoquant.transform import WaveFunction, husimi, husimi_mass, invert_C, \
    transform_A, transform_C

REGISTRY = dict(SELFTESTS)


def report(number, name, residual, tol, extra=""):
    status = "PASS" if residual <= tol else "FAIL"
    line = "criterion %02d %s %-34s residual %.3e  tol %.1e" % (
        number, status, name, residual, tol)
    if extra:
        line += "  [%s]" % extra
    print(line)
    return residual


def normalized(rng, size):
    coef = rng.normal(size=size) + 1j * rng.normal(size=size)
    return coef / math.sqrt(float(np.sum(np.abs(coef) ** 2)))


def test_criterion_01_ccr_blocks():
    residual, tol = REGISTRY["fock.ccr-leading-block"]()
    assert report(1, "ccr truncated blocks", residual, tol) <= tol


def test_criterion_02_kernels_and_reproduction():
    rng = np.random.default_rng(201)
    worst = abs(kernel(SpaceSpec.bergman(), 0.0, 0.0) - 1.0 / math.pi)
    plane = SpaceSpec.segal_bargmann(1.0)
    for _ in range(100):
        z = complex(*rng.uniform(-1.4, 1.4, 2))
        w = complex(*rng.uniform(-1.4, 1.4, 2))
        worst = max(worst, abs(kernel(plane, z, w)
                               - kernel_from_basis(plane, z, w, 60)))
    # reproducing identity on degree <= 10 polynomials, both geometries
    disk = SpaceSpec.bergman()
    f_disk = HoloFunction(rng.normal(size=11) + 1j * rng.normal(size=11), disk)
    rule = disk_rule(40, 90, 0.0)
    for z in (0.2 + 0.3j, -0.5, 0.45j):
        worst = max(worst, abs(reproduce(disk, f_disk, z, rule) - f_disk(z)))
    f_plane = HoloFunction(rng.normal(size=11) + 1j * rng.normal(size=11),
                           plane)
    rule = complex_gaussian(50, 1.0)
    for z in (0.4 - 0.6j, 1.1, -0.8j):
        worst = max(worst, abs(reproduce(plane, f_plane, z, rule)
                               - f_plane(z)))
    assert report(2, "kernel values and reproduction", worst, 1e-8) <= 1e-8


def test_criterion_03_transform_unitarity():
    rng = np.random.default_rng(203)
    h = 0.8
    rule = complex_gaussian(40, h)
    images = []
    for n in range(12):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        images.append(transform_A(WaveFunction(coef, h))(rule.nodes))
    images = np.array(images)
    gram = (images * rule.weights) @ images.T.conj()
    gram_res = float(np.max(np.abs(gram - np.eye(12))))
    assert gram_res < 1e-9
    flat = transform_A(WaveFunction(np.array([1.0]), h))
    zs = rng.normal(size=20) + 1j * rng.normal(size=20)
    flat_res = float(np.max(np.abs(flat(zs) - 1.0)))
    assert flat_res < 1e-10
    link_res = 0.0
    for _ in range(5):
        psi = WaveFunction(normalized(rng, 9), h)
        holo = transform_A(psi)
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            via_a = (4.0 * math.pi * h) ** -0.25 \
                * np.exp(-z ** 2 / (4.0 * h)) * holo(z / math.sqrt(2.0))
            link_res = max(link_res, abs(transform_C(psi, z) - via_a))
    worst = max(gram_res, flat_res, link_res)
    assert report(3, "transform unitarity and link", worst, 1e-9) <= 1e-9


def test_criterion_04_inversion():
    rng = np.random.default_rng(204)
    h = 0.75
    rule = gauss_hermite(90, h)
    worst = 0.0
    for _ in range(3):
        psi = WaveFunction(rng.normal(size=16) + 1j * rng.normal(size=16), h)
        for x in np.linspace(-1.6, 1.6, 10):
            got = invert_C(lambda p: transform_C(psi, float(x) + 1j * p),
                           float(x), rule)
            worst = max(worst, abs(got - complex(psi(float(x)))))
    assert report(4, "transform inversion", worst, 1e-7) <= 1e-7


def test_criterion_05_ordering_table():
    residual, tol = REGISTRY["quantize.ordering-examples"]()
    assert report(5, "ordering worked examples", residual, tol) <= tol


def test_criterion_06_heat_smoothing_bridge():
    residual, tol = REGISTRY["quantize.heat-bridge"]()
    assert report(6, "anti-wick heat bridge", residual, tol) <= tol


def test_criterion_07_toeplitz_bridge():
    bridge, bridge_tol = REGISTRY["quantize.toeplitz-bridge"]()
    diag, diag_tol = REGISTRY["quantize.toeplitz-diagonal"]()
    report(7, "toeplitz bridge and diagonal", max(bridge, diag), bridge_tol)
    assert bridge <= bridge_tol
    assert diag <= diag_tol


def test_criterion_08_husimi():
    rng = np.random.default_rng(208)
    h = 0.8
    bound = 1.0 / (2.0 * math.pi * h)
    xs = np.linspace(-6.0, 6.0, 41)
    grid = xs[:, None] + 1j * xs[None, :]
    neg_res = 0.0
    mass_res = 0.0
    sup_res = 0.0
    for _ in range(20):
        psi = WaveFunction(normalized(rng, int(rng.integers(2, 7))), h)
        table = husimi(psi, grid)
        neg_res = max(neg_res, float(max(0.0, -np.min(table))))
        mass_res = max(mass_res, abs(husimi_mass(psi) - 1.0))
        sup_res = max(sup_res, (float(np.max(table)) - bound) / bound)
    sup_res = max(sup_res, 0.0)
    moment_res = 0.0
    psi = WaveFunction(normalized(rng, 6), h)
    for terms in ({(2, 0): 1.0}, {(1, 1): 1.0}, {(0, 2): 1.0, (2, 0): 2.0},
                  {(2, 2): 1.0}, {(4, 0): 0.5, (0, 1): 1.0}):
        sym = PhaseSymbol(terms)
        moment_res = max(moment_res, abs(
            husimi_moment(psi, sym) - weyl_moment(psi, heat_smooth(sym, h))))
    # four sub-checks with distinct tolerances: print the one closest
    # to its own bound, keep the rest in the bracket
    checks = [(mass_res, 1e-5), (moment_res, 1e-6), (sup_res, 1e-9),
              (neg_res, 1e-300)]
    residual, tol = max(checks, key=lambda pair: pair[0] / pair[1])
    report(8, "husimi density and moments", residual, tol,
           extra="negativity %.1e, mass %.1e, sup excess %.1e, "
                 "moment gap %.1e" % (neg_res, mass_res, sup_res, moment_res))
    assert neg_res == 0.0
    assert mass_res < 1e-5
    assert sup_res < 1e-9
    assert moment_res < 1e-6


def test_criterion_09_translation_laws():
    rng = np.random.default_rng(209)
    t = 0.8
    space = SpaceSpec.segal_bargmann(t)
    iso_res = 0.0
    minus_res = 0.0
    plus_res = 0.0
    for _ in range(50):
        coef = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = HoloFunction(coef, space)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        moved = translate(a, f)
        iso_res = max(iso_res, abs(moved.norm_sq() - f.norm_sq())
                      / f.norm_sq())
        twice = translate(a, translate(b, f))
        joint = translate(a + b, f)
        phase = np.exp(-1j * (a * np.conj(b)).imag / t)
        for z in (0.2 + 0.1j, -0.4j, 0.5):
            lhs = twice(z)
            minus_res = max(minus_res, abs(lhs - phase * joint(z)))
            plus_res = max(plus_res, abs(lhs - np.conj(phase) * joint(z)))
    h = 0.6
    f = HoloFunction(rng.normal(size=5) + 1j * rng.normal(size=5),
                     SpaceSpec.segal_bargmann(h))
    r, s = 0.9, -0.7
    v_r = lambda g: translate(-1j * r / math.sqrt(2.0), g, h)
    w_s = lambda g: translate(-s / math.sqrt(2.0), g, h)
    lhs = v_r(w_s(f)).coefficients
    rhs = np.exp(-1j * r * s / h) * w_s(v_r(f)).coefficients
    top = max(len(lhs), len(rhs))
    pad_l = np.zeros(top, complex)
    pad_r = np.zeros(top, complex)
    pad_l[:len(lhs)] = lhs
    pad_r[:len(rhs)] = rhs
    ccr_res = float(np.max(np.abs(pad_l - pad_r)))
    worst = max(iso_res, minus_res, ccr_res)
    report(9, "translation isometry and phase", worst, 1e-9,
           extra="phase exp(-i Im(a conj(b))/t) residual %.1e; "
                 "opposite sign residual %.1e" % (minus_res, plus_res))
    assert worst <= 1e-9
    assert plus_res > 1e-3  # the sign convention is observable, not cosmetic


def test_criterion_10_su2():
    rng = np.random.default_rng(210)
    rep_res = 0.0
    for _ in range(20):
        g = GroupElement.from_euler(*(float(v) for v in rng.uniform(0, 3, 3)))
        x = GroupElement.from_euler(*(float(v) for v in rng.uniform(0, 3, 3)))
        for twice in range(1, 9):
            lhs = rep_matrix(twice / 2.0, g @ x)
            rhs = rep_matrix(twice / 2.0, g) @ rep_matrix(twice / 2.0, x)
            rep_res = max(rep_res, float(np.max(np.abs(lhs - rhs))))
        moved = x @ g @ x.inverse()
        rep_res = max(rep_res, abs(character(2.0, moved) - character(2.0, g)))
    a = 0.5
    stretch = GroupElement(np.diag([np.exp(a), np.exp(-a)]).astype(complex),
                           "sl2c")
    mat = rep_matrix(2.5, stretch)
    want = np.exp(a * (5 - 2 * np.arange(6)))
    rep_res = max(rep_res, float(np.max(np.abs(np.diag(mat) - want) / want)))
    assert rep_res < 1e-9

    rule = su2_class_rule(60)
    heat_vals = np.array([
        heat_kernel(0.5, GroupElement(
            np.diag([np.exp(1j * float(v)), np.exp(-1j * float(v))]), "su2"))
        .real
        for v in rule.nodes
    ])
    mass_res = abs(float(rule.weights @ heat_vals) - 1.0)
    assert mass_res < 1e-8

    smooth = PeterWeylCoeffs(tuple(
        math.sqrt(k + 1) * math.exp(-1.1 * k * (k + 2) / 8.0)
        * np.eye(k + 1, dtype=complex)
        for k in range(26)
    ))
    semi_res = 0.0
    thetas = np.linspace(0.25, 2.9, 10)
    for theta in thetas:
        g = GroupElement(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]),
                         "su2")
        semi_res = max(semi_res, abs(transform_group(smooth, g, 0.9)
                                     - heat_kernel(2.0, g)))
    conv_rule = euler_quadrature(17, 9, 32)
    short = PeterWeylCoeffs(tuple(
        math.sqrt(k + 1) * math.exp(-1.1 * k * (k + 2) / 8.0)
        * np.eye(k + 1, dtype=complex)
        for k in range(15)
    ))
    for theta in (0.7, 2.1):
        g = GroupElement(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]),
                         "su2")
        semi_res = max(semi_res, abs(
            transform_group_quadrature(short, g, 0.9, conv_rule)
            - heat_kernel(2.0, g)))
    assert semi_res < 1e-8

    dual_res = 0.0
    point = GroupElement.from_euler(0.3, 1.1, 2.0)
    dual_rule = euler_quadrature(22, 11, 42)
    for twice in range(1, 9):
        coeffs = PeterWeylCoeffs.character(twice / 2.0)
        closed = transform_group(coeffs, point, 0.5)
        conv = transform_group_quadrature(coeffs, point, 0.5, dual_rule)
        dual_res = max(dual_res, abs(closed - conv))
    assert dual_res < 1e-7
    worst = max(rep_res, mass_res, semi_res, dual_res)
    assert report(10, "su2 reps, heat flow, transform", worst, 1e-7) <= 1e-7


def test_criterion_11_bracket_correspondence():
    h = 1.0
    spec = HermiteBasisSpec(20, h)
    low_res = 0.0
    low_pairs = [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1), (1, 0)),
                 ((0, 2), (0, 0)), ((1, 0), (1, 0))]
    for left, right in low_pairs:
        out = commutator_vs_poisson(PhaseSymbol({left: 1.0}),
                                    PhaseSymbol({right: 1.0}), spec)
        low_res = max(low_res, out["max_abs_difference"])
    assert low_res < 1e-12

    cubic = PhaseSymbol({(3, 0): 1.0})
    quad = PhaseSymbol({(0, 2): 1.0})
    weyl_out = commutator_vs_poisson(cubic, quad, spec)
    pdo_out = commutator_vs_poisson(cubic, quad, spec,
                                    OrderingScheme.PDO_STANDARD)
    block = pdo_out["block_size"]
    x_op, _ = position_momentum(spec)
    want_gap = (-6j * h * x_op.entries)[:block, :block]
    pdo_match = float(np.max(np.abs(pdo_out["difference"] - want_gap)))
    assert weyl_out["max_abs_difference"] < 1e-12
    assert pdo_out["max_abs_difference"] > 1.0
    assert pdo_match < 1e-12

    sixth = commutator_vs_poisson(PhaseSymbol({(3, 0): 1.0}),
                                  PhaseSymbol({(0, 3): 1.0}), spec)
    block6 = sixth["block_size"]
    want6 = -1.5 * h ** 2 * np.eye(20)[:block6, :block6]
    weyl_obstruction = float(np.max(np.abs(sixth["difference"] - want6)))
    assert sixth["max_abs_difference"] > 1.0
    assert weyl_obstruction < 1e-11
    report(11, "bracket correspondence window",
           max(low_res, pdo_match, weyl_obstruction), 1e-11,
           extra="(x^3,p^2) weyl gap %.1e, pdo-standard gap %.1f matching "
                 "-6i hbar X; (x^3,p^3) weyl gap %.1f matching "
                 "-1.5 hbar^2 I" % (
                     weyl_out["max_abs_difference"],
                     pdo_out["max_abs_difference"],
                     sixth["max_abs_difference"]))


def test_criterion_12_selftest_determinism():
    first = io.StringIO()
    with redirect_stdout(first):
        rc_first = run(["selftest"])
    second = io.StringIO()
    with redirect_stdout(second):
        rc_second = run(["selftest"])
    identical = first.getvalue() == second.getvalue()
    residual = 0.0 if (rc_first == 0 and rc_second == 0 and identical) else 1.0
    assert report(12, "selftest determinism", residual, 0.5) <= 0.5
    assert rc_first == 0 and rc_second == 0
    assert identical
