import inspect
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

import holoquant
from holoquant import quadrature
from holoquant.quadrature import (
    QuadratureRule,
    complex_gaussian,
    disk_rule,
    gauss_hermite,
    su2_class_rule,
)
from holoquant.su2 import euler_quadrature


def test_gauss_hermite_mass_and_variance():
    rule = gauss_hermite(20, hbar=1.0)
    assert abs(rule.integrate(lambda x: np.ones_like(x)) - 1.0) < 1e-14
    # second moment of rho_1, independently computed: 1.0
    assert abs(rule.integrate(lambda x: x**2) - 1.0) < 1e-13


@given(
    n=st.integers(min_value=2, max_value=40),
    hbar=st.floats(min_value=0.05, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_gauss_hermite_moments(n, hbar):
    # odd moments vanish, even moments are (2k-1)!! h^k, exact up to 2n-1
    rule = gauss_hermite(n, hbar)
    assert abs(rule.integrate(lambda x: np.ones_like(x)) - 1.0) < 1e-12
    expected = 1.0
    for k in range(1, min(n, 8)):
        expected *= (2 * k - 1) * hbar
        got = rule.integrate(lambda x: x ** (2 * k))
        assert got == pytest.approx(expected, rel=1e-10)
        assert abs(rule.integrate(lambda x: x ** (2 * k - 1))) < 1e-10 * expected


def test_complex_gaussian_moment_table():
    # independently computed: int |z|^6 dmu_t at t = 0.7 is 3! t^3 = 2.058
    rule = complex_gaussian(12, scale=0.7, weight="mu")
    got = rule.integrate(lambda z: (z * np.conj(z)) ** 3)
    assert got.real == pytest.approx(2.058, abs=1e-12)
    assert abs(got.imag) < 1e-12


@given(
    n=st.integers(min_value=6, max_value=14),
    t=st.floats(min_value=0.1, max_value=4.0),
    p=st.integers(min_value=0, max_value=5),
    q=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_complex_gaussian_monomial_moments(n, t, p, q):
    rule = complex_gaussian(n, scale=t, weight="mu")
    got = rule.integrate(lambda z: z**p * np.conj(z) ** q)
    expected = math.factorial(p) * t**p if p == q else 0.0
    assert abs(got - expected) < 1e-10 * max(1.0, math.factorial(p) * t**p)


def test_complex_gaussian_nu_strip():
    # nu integrates Gaussianly in Im z and flat in Re z; the mass over
    # [-W, W] x R is 2W, and the Im z density (pi h)^(-1/2) exp(-y^2/h)
    # has second moment h/2
    h = 0.8
    rule = complex_gaussian(10, scale=h, weight="nu", window=3.0)
    mass = rule.integrate(lambda z: np.ones_like(z, dtype=float))
    assert mass == pytest.approx(6.0, rel=1e-12)
    got = rule.integrate(lambda z: np.imag(z) ** 2)
    assert got == pytest.approx(6.0 * h / 2.0, rel=1e-10)


def test_disk_rule_weighted_monomial():
    # independently computed: int |z|^4 (1-|z|^2) dA = pi/12
    rule = disk_rule(8, 16, a=1.0)
    got = rule.integrate(lambda z: np.abs(z) ** 4)
    assert got.real == pytest.approx(0.261799387799149, abs=1e-12)
    mass = rule.integrate(lambda z: np.ones_like(z, dtype=float))
    assert mass.real == pytest.approx(math.pi / 2.0, rel=1e-12)


@given(
    nr=st.integers(min_value=4, max_value=12),
    a=st.floats(min_value=-0.9, max_value=3.0),
    p=st.integers(min_value=0, max_value=4),
    q=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_disk_rule_moment_identity(nr, a, p, q):
    # int z^p conj(z)^q (1-|z|^2)^a dA = delta_{pq} pi p! Gamma(a+1)/Gamma(p+a+2)
    rule = disk_rule(nr, 2 * (p + q) + 2, a=a)
    got = rule.integrate(lambda z: z**p * np.conj(z) ** q)
    if p == q:
        expected = math.pi * math.factorial(p) * math.gamma(a + 1.0) / math.gamma(p + a + 2.0)
    else:
        expected = 0.0
    assert abs(got - expected) < 1e-10 * rule.total_mass


def test_su2_class_rule_characters():
    # chi_l(theta) = sin((2l+1) theta)/sin(theta); the rule reproduces the
    # orthonormality of the first characters
    rule = su2_class_rule(24)

    def chi(l, theta):
        return np.sin((2 * l + 1) * theta) / np.sin(theta)

    # independently computed: |chi_{1/2}|^2 averages to 1, chi_1 to 0
    sq = rule.integrate(lambda th: chi(0.5, th) ** 2)
    assert sq == pytest.approx(1.0, abs=1e-12)
    mean = rule.integrate(lambda th: chi(1.0, th))
    assert abs(mean) < 1e-12
    for l2a, l2b in [(1, 2), (2, 3), (1, 3), (2, 2), (3, 3)]:
        got = rule.integrate(lambda th: chi(l2a / 2, th) * chi(l2b / 2, th))
        assert got == pytest.approx(1.0 if l2a == l2b else 0.0, abs=1e-12)


def test_rules_reject_bad_input():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    for hbar in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gauss_hermite(4, hbar=hbar)
    with pytest.raises(ValueError):
        complex_gaussian(4, weight="lebesgue")
    with pytest.raises(ValueError):
        disk_rule(4, 8, a=-1.0)
    with pytest.raises(ValueError):
        QuadratureRule(
            nodes=np.array([0.0, 1.0]),
            weights=np.array([0.5, -0.5]),
            exact_degree=1,
            total_mass=0.0,
        )


def test_rule_is_json_serializable():
    for rule in [gauss_hermite(5, 0.3), complex_gaussian(3, 1.1), disk_rule(3, 5, 0.5)]:
        payload = json.dumps(rule.to_json_dict())
        back = json.loads(payload)
        assert len(back["weights"]) == len(rule)
        assert back["exact_degree"] == rule.exact_degree


def test_rule_determinism():
    a = gauss_hermite(17, hbar=0.37)
    b = gauss_hermite(17, hbar=0.37)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


# ------------------------------------------------ shared node tables

def _reference_rules(hbar):
    """(nodes, weights) solved afresh by numpy/scipy, scaled as each constructor does."""
    out = {}
    x, w = hermgauss(30)
    out["gauss_hermite"] = (x * math.sqrt(2.0 * hbar), w / math.sqrt(math.pi))

    x, w = hermgauss(9)
    x = x * math.sqrt(hbar)
    w = w / math.sqrt(math.pi)
    out["mu"] = ((x[:, None] + 1j * x[None, :]).ravel(),
                 (w[:, None] * w[None, :]).ravel())

    y, wy = hermgauss(7)
    y = y * math.sqrt(hbar)
    wy = wy / math.sqrt(math.pi)
    half_width = 12.0 * math.sqrt(hbar)
    u, wu = leggauss(6 * 7 + 40)
    x, wx = u * half_width, wu * half_width
    out["nu"] = ((x[:, None] + 1j * y[None, :]).ravel(),
                 (wx[:, None] * wy[None, :]).ravel())

    xj, wj = roots_jacobi(10, 1.5, 0.0)
    s = 0.5 * (xj + 1.0)
    wr = 0.5 * (2.0 ** (-1.5 - 1.0)) * wj
    theta = 2.0 * np.pi * np.arange(21) / 21
    out["disk"] = ((np.sqrt(s)[:, None] * np.exp(1j * theta)[None, :]).ravel(),
                   np.repeat(wr * (2.0 * np.pi / 21), 21))

    cosines, gw = leggauss(5)
    phis = 2.0 * np.pi * np.arange(9) / 9
    psis = 4.0 * np.pi * np.arange(15) / 15
    grids = np.meshgrid(phis, np.arccos(cosines), psis, indexing="ij")
    out["euler"] = (np.stack([g.ravel() for g in grids], axis=1),
                    np.broadcast_to(gw[None, :, None] / (2.0 * 9 * 15),
                                    grids[0].shape).ravel())
    return out


def _library_rules(hbar):
    return {
        "gauss_hermite": gauss_hermite(30, hbar),
        "mu": complex_gaussian(9, hbar, "mu"),
        "nu": complex_gaussian(7, hbar, "nu"),
        "disk": disk_rule(10, 21, 1.5),
        "euler": euler_quadrature(9, 5, 15),
    }


def _assert_match_reference(rules, hbar):
    reference = _reference_rules(hbar)
    assert rules.keys() == reference.keys()
    for name, rule in rules.items():
        nodes, weights = reference[name]
        assert rule.nodes.tobytes() == nodes.tobytes(), name
        assert rule.weights.tobytes() == weights.tobytes(), name


def _clear_node_tables():
    quadrature._gauss_hermite_rule.cache_clear()
    quadrature._hermite_table.cache_clear()
    quadrature._legendre_table.cache_clear()
    quadrature._jacobi_table.cache_clear()


HBAR_SEQUENCE = (0.3, 1.0, 0.3, 2.0)


def test_shared_node_tables_match_fresh_solves():
    _clear_node_tables()
    _assert_match_reference(_library_rules(0.3), 0.3)  # cold
    _assert_match_reference(_library_rules(0.3), 0.3)  # warm
    for hbar in HBAR_SEQUENCE:
        _assert_match_reference(_library_rules(hbar), hbar)
    assert quadrature._hermite_table.cache_info().hits > 0


def test_shared_node_tables_match_from_two_threads():
    _clear_node_tables()
    start = threading.Barrier(2, timeout=30)

    def build_all():
        start.wait()
        return [(hbar, _library_rules(hbar)) for hbar in HBAR_SEQUENCE]

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(build_all) for _ in range(2)]
        results = [f.result(timeout=60) for f in futures]
    for built in results:
        for hbar, rules in built:
            _assert_match_reference(rules, hbar)


def test_rule_arrays_reject_writes():
    for rule in _library_rules(0.3).values():
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
    for x, w in (quadrature._hermite_table(30), quadrature._legendre_table(5),
                 quadrature._jacobi_table(10, 1.5)):
        for array in (x, w):
            with pytest.raises(ValueError):
                array[0] = 0.0
    _assert_match_reference(_library_rules(0.3), 0.3)


def test_gauss_hermite_rules_are_shared():
    # the tracer of the benchmark wraps plain functions only
    assert inspect.isfunction(quadrature.gauss_hermite)
    rule = gauss_hermite(23, 0.45)
    assert gauss_hermite(23, 0.45) is rule
    assert gauss_hermite(23, np.float64(0.45)) is rule
    x, w = hermgauss(23)
    assert rule.nodes.tobytes() == (x * math.sqrt(2.0 * 0.45)).tobytes()
    assert rule.weights.tobytes() == (w / math.sqrt(math.pi)).tobytes()
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_import_does_not_load_scipy():
    # scipy only supplies the Jacobi roots, so it loads on the first
    # disk_rule; the self-test registry loads only for the selftest command
    code = (
        "import sys\n"
        "import holoquant.cli, holoquant\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
        "assert 'holoquant.invariants' not in sys.modules\n"
        "import holoquant.invariants\n"
        "worst, tol = holoquant.invariants._st_rule_masses()\n"
        "assert worst <= tol, (worst, tol)\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(holoquant.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
