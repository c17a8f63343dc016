import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoquant.holospace import (
    HoloFunction,
    SpaceSpec,
    holo_equiv,
    kernel,
    kernel_from_basis,
    log_weight_laplacian,
    monomial_norms,
    pointwise_bound_check,
    reproduce,
    su11_act,
    translate,
)
from holoquant.quadrature import QuadratureRule, complex_gaussian, disk_rule

RNG = np.random.default_rng(20240817)

SB1 = SpaceSpec.segal_bargmann(1.0)
BERGMAN = SpaceSpec.bergman()
WB1 = SpaceSpec.weighted_bergman(1.0)
HARDY = SpaceSpec.hardy()


def random_poly(space, degree, rng=RNG):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return HoloFunction(c, space)


def hardy_boundary_rule(n):
    theta = 2.0 * np.pi * np.arange(n) / n
    return QuadratureRule(
        nodes=np.exp(1j * theta),
        weights=np.full(n, 2.0 * np.pi / n),
        exact_degree=n - 1,
        total_mass=2.0 * np.pi,
    )


# ---------------------------------------------------------------- kernels

def test_kernel_closed_forms_at_origin():
    assert kernel(BERGMAN, 0.0, 0.0) == pytest.approx(1.0 / math.pi)
    assert kernel(SB1, 0.0, 0.7 - 0.3j) == pytest.approx(1.0)
    # independently computed via basis sums with quadrature norms:
    assert kernel(WB1, 0.0, 0.0) == pytest.approx(0.636619772367581, abs=1e-14)
    assert kernel(HARDY, 0.0, 0.0) == pytest.approx(0.159154943091895, abs=1e-14)


@pytest.mark.parametrize("space,radius", [
    (SB1, 2.0),
    (SpaceSpec.segal_bargmann(0.6), 2.0),
    (BERGMAN, 0.9),
    (WB1, 0.9),
    (SpaceSpec.weighted_bergman(-0.3), 0.9),
    (HARDY, 0.9),
])
def test_kernel_matches_basis_sum(space, radius):
    rng = np.random.default_rng(7)
    for _ in range(25):
        z, w = radius * np.sqrt(rng.uniform(0, 1, 2)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 2))
        closed = kernel(space, z, w)
        summed = kernel_from_basis(space, z, w, 220)
        assert abs(closed - summed) <= 1e-10 * max(1.0, abs(closed))


def test_kernel_conjugate_symmetry_bulk():
    n = 10**6
    rng = np.random.default_rng(3)
    for space, radius in [(SB1, 2.0), (BERGMAN, 0.9), (WB1, 0.9), (HARDY, 0.9)]:
        z = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        w = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        forward = kernel(space, z, w)
        backward = kernel(space, w, z)
        assert np.max(np.abs(backward - np.conj(forward))) < 1e-14 * np.max(np.abs(forward))


def test_kernel_rejects_points_outside_domain():
    with pytest.raises(ValueError):
        kernel(BERGMAN, 1.5, 0.0)
    with pytest.raises(ValueError):
        kernel(HARDY, 0.999, 1.001)
    with pytest.raises(ValueError):
        # both on the boundary: z conj(w) hits 1
        kernel(HARDY, 1.0, 1.0)
    # one factor on the boundary is fine (Hardy integrates there)
    assert np.isfinite(kernel(HARDY, 0.5, 1.0))


def test_kernel_from_basis_monotone_on_diagonal():
    z = 0.62 - 0.31j
    for space in (SB1, BERGMAN, WB1, HARDY):
        values = [kernel_from_basis(space, z, z, m).real for m in range(30)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] >= 0.0


def test_kernel_from_basis_exponential_tail():
    # Gaussian-space partial sums: e^1 at z = w = 1 within 1e-12 by M = 40,
    # and the error decays monotonically once the series terms do
    target = math.e
    errs = [abs(kernel_from_basis(SB1, 1.0, 1.0, m) - target) for m in range(2, 41)]
    assert errs[-1] < 1e-12
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_sb_kernel_two_dimensional():
    space = SpaceSpec.segal_bargmann(0.5, dimension=2)
    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([0.1 - 0.4j, 0.25])
    got = kernel(space, z, w)
    expected = np.exp((z[0] * np.conj(w[0]) + z[1] * np.conj(w[1])) / 0.5)
    assert got == pytest.approx(expected)
    summed = kernel_from_basis(space, z, w, 60)
    assert abs(summed - expected) < 1e-12


# ------------------------------------------------------------- norms

@pytest.mark.parametrize("space,rule", [
    (SB1, complex_gaussian(24, 1.0)),
    (SpaceSpec.segal_bargmann(0.4), complex_gaussian(24, 0.4)),
    (BERGMAN, disk_rule(24, 48, 0.0)),
    (WB1, disk_rule(24, 48, 1.0)),
    (HARDY, hardy_boundary_rule(64)),
])
def test_coefficient_norm_matches_quadrature(space, rule):
    f = random_poly(space, 8)
    by_quad = rule.integrate(lambda v: np.abs(f(v)) ** 2).real
    assert f.norm_sq() == pytest.approx(by_quad, rel=1e-8)


def test_two_dimensional_norm():
    space = SpaceSpec.segal_bargmann(0.7, dimension=2)
    c = np.zeros((3, 2), dtype=complex)
    c[2, 1] = 2.0
    f = HoloFunction(c, space)
    # || z1^2 z2 ||^2 = (2! t^2)(1! t) and the coefficient has modulus 2
    assert f.norm_sq() == pytest.approx(4.0 * 2.0 * 0.7**3)
    assert f(np.array([0.5, 1.0 + 1j])) == pytest.approx(2.0 * 0.25 * (1.0 + 1j))


# ------------------------------------------------- pointwise bound

def test_pointwise_bound_trivial_and_sharp():
    one = HoloFunction(np.array([1.0]), SB1)
    report = pointwise_bound_check(SB1, one, 0.0)
    assert report["ratio"] == pytest.approx(1.0)

    # coherent vector at z: coefficients conj(z)^n / ||z^n||^2, sharp bound
    z = 0.4 + 0.55j
    n = np.arange(40)
    coeffs = np.conj(z) ** n / monomial_norms(BERGMAN, 40)
    phi = HoloFunction(coeffs, BERGMAN)
    report = pointwise_bound_check(BERGMAN, phi, z)
    assert report["ratio"] == pytest.approx(1.0, abs=1e-10)


def test_pointwise_bound_strict_case():
    # independently computed: F = z in the unweighted disk space at z = 1/2
    # has |F|^2 / (K ||F||^2) = 9/32
    f = HoloFunction(np.array([0.0, 1.0]), BERGMAN)
    report = pointwise_bound_check(BERGMAN, f, 0.5)
    assert report["ratio"] == pytest.approx(0.28125, abs=1e-13)
    assert report["ratio"] < 1.0


@given(st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_pointwise_bound_holds_on_random_states(z):
    f = random_poly(BERGMAN, 9, np.random.default_rng(11))
    report = pointwise_bound_check(BERGMAN, f, z)
    assert report["ratio"] <= 1.0 + 1e-10


# ------------------------------------------------------ reproduction

def test_reproduce_polynomial_gaussian_space():
    f = HoloFunction(np.array([0, 0, 0, 1.0]), SB1)
    z = 0.7 + 0.2j
    got = reproduce(SB1, f, z, complex_gaussian(24, 1.0))
    # independently computed: (0.7 + 0.2i)^3
    assert got == pytest.approx(0.259 + 0.286j, abs=1e-9)


@pytest.mark.parametrize("space,rule,z", [
    (SB1, complex_gaussian(24, 1.0), 0.3 - 1.1j),
    (BERGMAN, disk_rule(30, 61, 0.0), 0.4 + 0.2j),
    (WB1, disk_rule(30, 61, 1.0), -0.3 + 0.45j),
    (HARDY, hardy_boundary_rule(128), 0.55j),
])
def test_reproduce_constant(space, rule, z):
    one = HoloFunction(np.array([1.0]), space)
    assert reproduce(space, one, z, rule) == pytest.approx(1.0, abs=1e-9)


def test_reproduce_projects_out_antiholomorphic():
    rule = complex_gaussian(24, 1.0)
    got = reproduce(SB1, lambda w: np.conj(w), 0.8 + 0.1j, rule)
    assert abs(got) < 1e-12


def test_kernel_semigroup_identity():
    # integral of K(z, w) K(w, u) over w reproduces K(z, u)
    rule = complex_gaussian(40, 1.0)
    z, u = 0.4, 0.3
    got = rule.integrate(lambda w: kernel(SB1, z, w) * kernel(SB1, w, u))
    # independently computed: e^{0.12}
    assert got == pytest.approx(1.12749685157938, abs=1e-10)

    disk = disk_rule(50, 101, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(4):
        z, u = 0.5 * np.sqrt(rng.uniform(0, 1, 2)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2))
        got = disk.integrate(lambda w: kernel(BERGMAN, z, w) * kernel(BERGMAN, w, u))
        want = kernel(BERGMAN, z, u)
        assert abs(got - want) < 1e-8


def test_hardy_radial_energy_monotone():
    f = random_poly(HARDY, 12)
    radii = np.linspace(0.05, 0.95, 19)
    c = f.coefficients
    energies = [2.0 * np.pi * np.sum(np.abs(c) ** 2 * r ** (2 * np.arange(len(c))))
                for r in radii]
    assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))


# ------------------------------------------------------ translations

def test_translate_zero_is_identity():
    f = random_poly(SB1, 6)
    g = translate(0.0, f)
    assert np.array_equal(g.coefficients, f.coefficients)


def test_translate_unitary_and_inverse():
    t = 0.8
    space = SpaceSpec.segal_bargmann(t)
    f = random_poly(space, 5)
    a = 0.7 - 0.4j
    g = translate(a, f, t)
    assert g.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-10)
    back = translate(-a, g, t)
    n = len(f.coefficients)
    assert np.max(np.abs(back.coefficients[:n] - f.coefficients)) < 1e-9
    assert np.max(np.abs(back.coefficients[n:])) < 1e-9


def test_translate_generates_kernel():
    # e^{|a|^2/2t} (T_a 1)(u) = e^{conj(a) u / t} = K(u, a) read sideways
    t = 1.3
    space = SpaceSpec.segal_bargmann(t)
    one = HoloFunction(np.array([1.0]), space)
    a = 0.35 + 0.6j
    moved = translate(a, one, t)
    for u in (0.0, 0.8 - 0.2j, -1.1j):
        lhs = math.exp(abs(a) ** 2 / (2 * t)) * moved(u)
        assert lhs == pytest.approx(np.exp(np.conj(a) * u / t), abs=1e-12)


@given(
    st.complex_numbers(max_magnitude=1.1, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.1, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=25, deadline=None)
def test_translate_composition_phase(a, b):
    # T_a T_b = exp(-i Im(a conj(b))/t) T_{a+b}; the sign follows from the
    # definition (expand the three exponential prefactors) and is the one
    # that makes the exponentiated commutation phase below come out right
    t = 1.0
    f = HoloFunction(np.array([0.5, -0.25j, 1.0]), SB1)
    lhs = translate(a, translate(b, f, t), t)
    rhs = translate(a + b, f, t)
    phase = np.exp(-1j * np.imag(a * np.conj(b)) / t)
    n = max(len(lhs.coefficients), len(rhs.coefficients))
    lc = np.zeros(n, complex)
    rc = np.zeros(n, complex)
    lc[:len(lhs.coefficients)] = lhs.coefficients
    rc[:len(rhs.coefficients)] = rhs.coefficients
    assert np.max(np.abs(lc - phase * rc)) < 1e-9


def test_exponentiated_ccr():
    hbar = 0.6
    space = SpaceSpec.segal_bargmann(hbar)
    f = random_poly(space, 4)
    r, s = 0.9, -0.7
    vr = lambda g: translate(-1j * r / math.sqrt(2.0), g, hbar)
    ws = lambda g: translate(-s / math.sqrt(2.0), g, hbar)
    lhs = vr(ws(f)).coefficients
    rhs = np.exp(-1j * r * s / hbar) * ws(vr(f)).coefficients
    n = max(len(lhs), len(rhs))
    lc = np.zeros(n, complex)
    rc = np.zeros(n, complex)
    lc[:len(lhs)] = lhs
    rc[:len(rhs)] = rhs
    assert np.max(np.abs(lc - rc)) < 1e-9


def test_translate_two_dimensional_norm():
    space = SpaceSpec.segal_bargmann(0.9, dimension=2)
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 1.0
    c[2, 0] = -0.5j
    f = HoloFunction(c, space)
    g = translate(np.array([0.4 - 0.1j, 0.2j]), f)
    assert g.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-10)


def test_translate_far_norm_raises_instead_of_nan():
    # |a|^2/t = 9 widens F to 225 coefficients; n! t^n overflows from n = 171
    f = HoloFunction(np.array([1.0, 0.5, 0.25]), SB1)
    g = translate(3.0, f)
    with pytest.raises(ValueError, match="at most 171 coefficients"):
        g.norm_sq()


def test_monomial_norms_refuse_float_range():
    expect = [1.0]
    for n in range(1, 171):
        expect.append(expect[-1] * n * 1.0)
    assert monomial_norms(SB1, 171).tolist() == expect
    with pytest.raises(ValueError, match="at most 171 coefficients"):
        monomial_norms(SB1, 172)
    # small scales underflow to zero instead
    with pytest.raises(ValueError, match="representable"):
        monomial_norms(SpaceSpec.segal_bargmann(1e-6), 120)


def test_translate_requires_gaussian_space():
    f = random_poly(BERGMAN, 3)
    with pytest.raises(ValueError):
        translate(0.2, f, 1.0)


# --------------------------------------------------- disk automorphisms

def boost(s):
    return np.array([[math.cosh(s), math.sinh(s)], [math.sinh(s), math.cosh(s)]])


def twisted(s, phi):
    alpha = math.cosh(s) * np.exp(1j * phi)
    beta = math.sinh(s) * np.exp(0.3j)
    return np.array([[alpha, beta], [np.conj(beta), np.conj(alpha)]])


def test_su11_identity():
    f = random_poly(BERGMAN, 5)
    g = su11_act(np.eye(2), f)
    n = len(f.coefficients)
    assert np.max(np.abs(g.coefficients[:n] - f.coefficients)) < 1e-15
    assert np.max(np.abs(g.coefficients[n:])) == 0.0


def test_su11_isometry_boost():
    # independently computed by disk quadrature: ||U_g z^2||^2 = pi/3
    f = HoloFunction(np.array([0, 0, 1.0]), BERGMAN)
    moved = su11_act(boost(0.3), f, out_degree=80)
    assert moved.norm_sq() == pytest.approx(math.pi / 3.0, abs=1e-10)
    rule = disk_rule(60, 130, 0.0)
    by_quad = rule.integrate(lambda z: np.abs(moved(z)) ** 2).real
    assert by_quad == pytest.approx(math.pi / 3.0, abs=1e-8)


@pytest.mark.parametrize("a", [0.0, 1.0, 0.5])
def test_su11_isometry_complex_entries(a):
    # complex alpha distinguishes the unitary multiplier from its conjugate
    space = SpaceSpec.bergman() if a == 0.0 else SpaceSpec.weighted_bergman(a)
    f = HoloFunction(np.array([0.3, -0.7j, 1.0, 0.2]), space)
    g = twisted(0.45, 0.8)
    moved = su11_act(g, f, out_degree=120)
    assert moved.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-10)


def test_su11_composition_projective():
    f = HoloFunction(np.array([0.0, 1.0, 0.5]), WB1)
    g, h = twisted(0.3, 0.5), twisted(0.2, -1.1)
    lhs = su11_act(g, su11_act(h, f, out_degree=90), out_degree=90)
    rhs = su11_act(g @ h, f, out_degree=90)
    # proportional with a unimodular constant
    k = np.argmax(np.abs(rhs.coefficients))
    const = lhs.coefficients[k] / rhs.coefficients[k]
    assert abs(abs(const) - 1.0) < 1e-9
    n = min(len(lhs.coefficients), len(rhs.coefficients))
    assert np.max(np.abs(lhs.coefficients[:n] - const * rhs.coefficients[:n])) < 1e-9


def test_su11_rejects_bad_matrix():
    f = random_poly(BERGMAN, 3)
    with pytest.raises(ValueError):
        su11_act(np.array([[1.0, 0.5], [0.4, 1.0]]), f)
    with pytest.raises(ValueError):
        su11_act(2.0 * np.eye(2), f)
    with pytest.raises(ValueError):
        su11_act(np.eye(2), random_poly(SB1, 3))


# ------------------------------------------------ holomorphic equivalence

def test_holo_equiv_identity():
    f = random_poly(SB1, 6)
    g = holo_equiv(HoloFunction(np.array([1.0]), SB1), f)
    assert np.array_equal(g.coefficients, f.coefficients)


def test_holo_equiv_gaussian_to_strip():
    # phi(z) = (4 pi h)^(-1/4) e^{-z^2/4h} carries the Gaussian-measure space
    # at scale 2h isometrically onto the strip-weight space at scale h
    h = 0.8
    space = SpaceSpec.segal_bargmann(2.0 * h)
    rng = np.random.default_rng(23)
    f = HoloFunction(rng.standard_normal(5) + 1j * rng.standard_normal(5), space)
    const = (4.0 * math.pi * h) ** -0.25

    # coefficient route: holo_equiv of the truncated phi series reproduces
    # the exact product on a disk where the series has converged
    terms = 40
    phi_c = np.zeros(2 * terms, dtype=complex)
    val = const
    for k in range(terms):
        phi_c[2 * k] = val
        val *= -1.0 / (4.0 * h * (k + 1))
    phi = HoloFunction(phi_c, space)
    image = holo_equiv(phi, f)
    probes = 2.0 * np.exp(2j * np.pi * np.arange(7) / 7)
    exact = const * np.exp(-probes**2 / (4.0 * h)) * f(probes)
    assert np.max(np.abs(image(probes) - exact)) < 1e-12

    # isometry route: integrate |phi F|^2 against the strip weight using the
    # exact Gaussian factor (the truncated series is unusable at the outer
    # window nodes, where it diverges from e^{-z^2/4h})
    rule = complex_gaussian(70, h, weight="nu", window=14.0 * math.sqrt(h))

    def image_exact(z):
        return const * np.exp(-z**2 / (4.0 * h)) * f(z)

    target_norm = rule.integrate(lambda z: np.abs(image_exact(z)) ** 2).real
    assert target_norm == pytest.approx(f.norm_sq(), rel=1e-8)


def test_holo_equiv_detects_zero_at_node():
    f = random_poly(SB1, 3)
    phi = HoloFunction(np.array([0.0, 1.0]), SB1)  # vanishes at the origin
    rule = complex_gaussian(5, 1.0)  # odd order puts a node at z = 0
    with pytest.raises(ValueError):
        holo_equiv(phi, f, rule=rule)


def test_log_weight_laplacian_harmonic_for_exponential():
    c = 0.7 - 0.4j
    terms = 30
    coeffs = np.empty(terms, dtype=complex)
    coeffs[0] = 1.0
    for k in range(1, terms):
        coeffs[k] = coeffs[k - 1] * c / k
    phi = HoloFunction(coeffs, SB1)
    got = log_weight_laplacian(phi, 0.3 + 0.2j, step=1e-3)
    assert abs(got) < 1e-6
