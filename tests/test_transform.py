import math
import re

import numpy as np
import pytest

from holoquant.fock import HermiteBasisSpec, hermite_eval, hermite_table, \
    position_momentum
from holoquant.holospace import kernel as holo_kernel
from holoquant.holospace import SpaceSpec
from holoquant.quadrature import complex_gaussian, gauss_hermite
from holoquant.quantize import SBSymbol, toeplitz_quadrature
from holoquant.transform import (
    WaveFunction,
    coherent_overlap,
    coherent_state,
    ground_state_transform,
    holomorphy_residual,
    husimi,
    husimi_mass,
    invert_C,
    resolution_check,
    transform_A,
    transform_A_integral,
    transform_B,
    transform_B_factored,
    transform_C,
    transform_C_from_A,
)


def basis_state(n, scale=1.0, representation="lebesgue", length=None):
    c = np.zeros(length or n + 1, dtype=complex)
    c[n] = 1.0
    return WaveFunction(c, scale, representation)


def random_state(degree, scale=1.0, seed=0, representation="lebesgue"):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    c /= np.linalg.norm(c)
    return WaveFunction(c, scale, representation)


# ----------------------------------------------------------- wave functions

def test_wavefunction_norm_and_synthesis():
    psi = WaveFunction(np.array([0.6, 0.0, 0.8j]), 0.5)
    assert psi.norm_sq() == pytest.approx(1.0)
    x = np.linspace(-2, 2, 9)
    direct = 0.6 * np.array([hermite_eval(0, v, 0.5) for v in x]) \
        + 0.8j * np.array([hermite_eval(2, v, 0.5) for v in x])
    assert np.max(np.abs(psi(x) - direct)) < 1e-14


def test_gaussian_weight_basis_orthonormal():
    h = 0.7
    rule = gauss_hermite(40, h)
    states = [basis_state(n, h, "gaussian-weight", length=7) for n in range(7)]
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            got = rule.integrate(lambda x: np.conj(u(x)) * v(x))
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        WaveFunction(np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        WaveFunction(np.array([1.0]), 1.0, "position")


# ------------------------------------------------------------- A transform

def test_transform_A_ground_state_is_one():
    for h in (0.5, 1.0, 2.0):
        image = transform_A(basis_state(0, h))
        assert image.coefficients[0] == 1.0
        assert len(image.coefficients) == 1 or np.all(image.coefficients[1:] == 0.0)


def test_transform_A_first_excited():
    h = 0.7
    image = transform_A(basis_state(1, h))
    assert image.coefficients[1] == pytest.approx(1.0 / math.sqrt(h))


def test_transform_A_isometry_and_gram():
    h = 0.9
    psi = random_state(12, h, seed=3)
    image = transform_A(psi)
    assert image.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-14)

    rule = complex_gaussian(30, h)
    images = [transform_A(basis_state(n, h, length=10)) for n in range(10)]
    gram = np.array([[rule.integrate(lambda z: np.conj(u(z)) * v(z))
                      for v in images] for u in images])
    assert np.max(np.abs(gram - np.eye(10))) < 1e-9


def test_transform_A_integral_matches_coefficients():
    h = 1.0
    rule = gauss_hermite(100, h)
    got = transform_A_integral(basis_state(0, h), 2.0 + 1.0j, rule)
    assert got == pytest.approx(1.0, abs=1e-10)
    assert abs(transform_A_integral(basis_state(2, h), 0.0, rule)) < 1e-12

    psi = random_state(20, h, seed=9)
    image = transform_A(psi)
    rng = np.random.default_rng(4)
    for _ in range(6):
        z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        assert abs(transform_A_integral(psi, z, rule) - image(z)) < 1e-8


def test_transform_A_intertwines_lowering():
    # (X + iP)/sqrt(2) on the source side becomes h d/dz on the image side
    h = 0.8
    n = 14
    spec = HermiteBasisSpec(n, h)
    x_op, p_op = position_momentum(spec)
    psi = random_state(9, h, seed=7, representation="lebesgue")
    c = np.zeros(n, dtype=complex)
    c[:10] = psi.hermite_coefficients
    lowered = WaveFunction(((x_op.entries + 1j * p_op.entries) / math.sqrt(2.0)) @ c, h)
    image = transform_A(psi)
    deriv = np.polynomial.polynomial.polyder(image.coefficients)
    rule = gauss_hermite(100, h)
    rng = np.random.default_rng(12)
    for _ in range(5):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        lhs = transform_A_integral(lowered, z, rule)
        rhs = h * np.polynomial.polynomial.polyval(z, deriv)
        assert abs(lhs - rhs) < 1e-8


# ------------------------------------------------------------- B transform

def test_transform_B_constant_and_linear():
    h = 1.0
    one = basis_state(0, h, "gaussian-weight")
    for z in (0.0, 1.3 - 0.4j, -2.0j):
        assert transform_B(one, z) == pytest.approx(1.0, abs=1e-12)
    # f(x) = x is sqrt(h) q_1; its image is z (independently computed by
    # direct quadrature of the convolution at z = 0.9 - 0.3i)
    f_x = WaveFunction(np.array([0.0, math.sqrt(h)]), h, "gaussian-weight")
    got = transform_B(f_x, 0.9 - 0.3j)
    assert got == pytest.approx(0.9 - 0.3j, abs=1e-12)


def test_transform_B_routes_agree():
    h = 0.6
    psi = random_state(10, h, seed=21, representation="gaussian-weight")
    rng = np.random.default_rng(2)
    for _ in range(8):
        z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        a = transform_B(psi, z)
        b = transform_B_factored(psi, z)
        assert abs(a - b) < 1e-10


def test_transform_B_maps_basis_to_monomials():
    h = 1.4
    for n in range(5):
        q_n = basis_state(n, h, "gaussian-weight")
        z = 0.7 + 0.5j
        expected = z**n / math.sqrt(h**n * math.factorial(n))
        assert transform_B(q_n, z) == pytest.approx(expected, abs=1e-11)


def test_transform_B_intertwines_derivative():
    # B(h f') = h d/dz (B f): for f = x the left side is the constant h
    h = 0.9
    const_h = WaveFunction(np.array([h]), h, "gaussian-weight")
    z = 0.4 - 1.1j
    lhs = transform_B(const_h, z)
    step = 1e-5
    f_x = WaveFunction(np.array([0.0, math.sqrt(h)]), h, "gaussian-weight")
    rhs = h * (transform_B(f_x, z + step) - transform_B(f_x, z - step)) / (2 * step)
    assert abs(lhs - rhs) < 1e-9


# ------------------------------------------------------------- C transform

def test_transform_C_ground_state_origin():
    # independently computed: (4 pi)^(-1/4)
    got = transform_C(basis_state(0, 1.0), 0.0)
    assert got == pytest.approx(0.531125966013598, abs=1e-12)


def test_transform_C_third_eigenfunction():
    # independently computed at h = 0.6, z = 0.7 + 0.4i, against both the
    # convolution quadrature and the closed form
    h = 0.6
    z = 0.7 + 0.4j
    got = transform_C(basis_state(3, h), z)
    assert got == pytest.approx(0.0209029083639703 + 0.0830071829869897j, abs=1e-12)


def test_transform_C_links_to_A():
    h = 0.8
    psi = random_state(3, h, seed=5)
    rule = gauss_hermite(90, h)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        direct = transform_C(psi, z)
        via_a = transform_C_from_A(psi, z, rule)
        assert abs(direct - via_a) < 1e-9


def test_transform_C_intertwines_creation():
    # C (X - iP) C^(-1) is multiplication by z, checked on the ground state
    h = 1.2
    spec = HermiteBasisSpec(4, h)
    x_op, p_op = position_momentum(spec)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    raised = WaveFunction((x_op.entries - 1j * p_op.entries) @ e0, h)
    rng = np.random.default_rng(14)
    for _ in range(5):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        lhs = transform_C(raised, z)
        rhs = z * transform_C(basis_state(0, h), z)
        assert abs(lhs - rhs) < 1e-9


def test_transform_representation_guards():
    lebesgue = basis_state(2, 1.0)
    gaussian = basis_state(2, 1.0, "gaussian-weight")
    with pytest.raises(ValueError):
        transform_A(gaussian)
    with pytest.raises(ValueError):
        transform_B(lebesgue, 0.0)
    with pytest.raises(ValueError):
        transform_C(gaussian, 0.0)


# ---------------------------------------------------------------- inversion

def test_invert_C_ground_state():
    h = 1.0
    rule = gauss_hermite(80, h)
    psi = basis_state(0, h)
    got = invert_C(lambda p: transform_C(psi, 0.0 + 1j * p), 0.0, rule)
    # independently computed: pi^(-1/4)
    assert got.real == pytest.approx(0.751125544464943, abs=1e-9)
    assert abs(got.imag) < 1e-12

    odd = basis_state(1, h)
    got = invert_C(lambda p: transform_C(odd, 0.0 + 1j * p), 0.0, rule)
    assert abs(got) < 1e-9


def test_invert_C_recovers_band_limited_states():
    h = 0.75
    rule = gauss_hermite(90, h)
    psi = random_state(15, h, seed=31)
    for x in np.linspace(-1.6, 1.6, 10):
        got = invert_C(lambda p: transform_C(psi, x + 1j * p), x, rule)
        assert abs(got - complex(psi(x))) < 1e-7


def test_invert_C_mixed_state_offset_point():
    h = 1.0
    rule = gauss_hermite(80, h)
    c = np.zeros(3, dtype=complex)
    c[0] = c[2] = 1.0 / math.sqrt(2.0)
    psi = WaveFunction(c, h)
    x = 0.7
    got = invert_C(lambda p: transform_C(psi, x + 1j * p), x, rule)
    direct = (hermite_eval(0, x, h) + hermite_eval(2, x, h)) / math.sqrt(2.0)
    assert abs(got - direct) < 1e-7


# --------------------------------------------------------- ground-state map

def test_ground_state_transform_exact():
    psi = random_state(8, 0.6, seed=2)
    mapped = ground_state_transform(psi)
    assert mapped.representation == "gaussian-weight"
    assert np.array_equal(mapped.hermite_coefficients, psi.hermite_coefficients)
    assert mapped.norm_sq() == psi.norm_sq()
    # pointwise: the mapped function is psi(y/sqrt2)/e_0(y/sqrt2)
    y = np.linspace(-2.0, 2.0, 7)
    ground = WaveFunction(np.array([1.0]), 0.6)
    expected = psi(y / math.sqrt(2.0)) / ground(y / math.sqrt(2.0))
    assert np.max(np.abs(mapped(y) - expected)) < 1e-12


# ------------------------------------------------------------ coherent states

def test_coherent_state_at_origin():
    h = 0.9
    psi0 = coherent_state(0.0, h)
    x = np.linspace(-2.5, 2.5, 11)
    expected = (2.0 * math.pi * h) ** -0.5 * np.exp(-x**2 / (2.0 * h))
    assert np.max(np.abs(psi0(x) - expected)) < 1e-12


def test_coherent_overlap_matches_kernel():
    # independently computed at h = 0.8, z = 0.3+0.5i, w = -0.2+0.1i
    h = 0.8
    z, w = 0.3 + 0.5j, -0.2 + 0.1j
    expected = 0.320700553724292 - 0.0608460705146221j
    assert coherent_overlap(z, w, h) == pytest.approx(expected, abs=1e-14)
    psi_z = coherent_state(z, h)
    psi_w = coherent_state(w, h)
    got = np.vdot(psi_z.hermite_coefficients, psi_w.hermite_coefficients)
    assert got == pytest.approx(expected, abs=1e-13)


def test_coherent_state_reproduces_transform():
    h = 1.1
    z = 0.8 - 0.6j
    psi_z = coherent_state(z, h, truncation=48)
    e3 = basis_state(3, h)
    got = np.vdot(psi_z.hermite_coefficients[:4], e3.hermite_coefficients)
    assert got == pytest.approx(transform_C(e3, z), abs=1e-10)

    f = random_state(12, h, seed=44)
    inner = np.vdot(psi_z.hermite_coefficients[:13], f.hermite_coefficients)
    assert inner == pytest.approx(transform_C(f, z), abs=1e-10)


def test_coherent_state_refuses_to_truncate_silently():
    # the kept share of ||ψ_z||^2 is a Poisson(|z|^2/2h) cdf; at z = 30 a
    # 64-term expansion keeps 8.7e-117 of the norm (4π)^(-1/2) ≈ 0.282
    with pytest.raises(ValueError, match=r"truncation (\d+) is enough") as err:
        coherent_state(30.0, 1.0, 64)
    enough = int(re.search(r"truncation (\d+) is enough", str(err.value)).group(1))
    psi = coherent_state(30.0, 1.0, enough)
    assert psi.norm_sq() == pytest.approx((4.0 * math.pi) ** -0.5, rel=1e-12)
    with pytest.raises(ValueError, match="no truncation is enough"):
        coherent_state(60.0, 1.0, 64)


# ------------------------------------------------------------------- Husimi

def test_husimi_first_eigenfunction_closed_form():
    h = 0.8
    psi = basis_state(1, h)
    xs = np.linspace(-2, 2, 5)
    ps = np.linspace(-2, 2, 5)
    grid = xs[:, None] + 1j * ps[None, :]
    got = husimi(psi, grid)
    r_sq = xs[:, None] ** 2 + ps[None, :] ** 2
    expected = (2 * math.pi * h) ** -1 * np.exp(-r_sq / (2 * h)) * r_sq / (2 * h)
    assert np.max(np.abs(got - expected)) < 1e-13
    assert np.all(got >= 0.0)
    # independently computed: sup over phase space is 1/e of the global cap
    cap = (2 * math.pi * h) ** -1
    r = math.sqrt(2 * h)
    peak = husimi(psi, r + 0.0j)
    assert peak / cap == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_husimi_mass_is_one():
    h = 0.8
    assert husimi_mass(basis_state(1, h)) == pytest.approx(1.0, abs=1e-6)
    psi = random_state(9, 1.3, seed=17)
    assert husimi_mass(psi) == pytest.approx(1.0, abs=1e-6)


def test_husimi_bound_and_peak_location():
    h = 0.7
    w = 0.5 - 0.8j
    psi_w = coherent_state(w, h)
    c = psi_w.hermite_coefficients / math.sqrt(psi_w.norm_sq())
    psi = WaveFunction(c, h)
    xs = np.linspace(-2, 2, 81)
    ps = np.linspace(-2, 2, 81)
    grid = xs[:, None] + 1j * ps[None, :]
    vals = husimi(psi, grid)
    cap = (2 * math.pi * h) ** -1
    assert np.max(vals) <= cap * (1 + 1e-9)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    cell = xs[1] - xs[0]
    assert abs(xs[i] - w.real) <= cell
    assert abs(ps[j] - (-w.imag)) <= cell


def test_husimi_requires_normalized_state():
    psi = WaveFunction(np.array([2.0]), 1.0)
    with pytest.raises(ValueError):
        husimi(psi, 0.0 + 0.0j)


# ------------------------------------------------------ resolution of identity

def test_resolution_of_identity():
    h = 0.9
    rule = complex_gaussian(70, h, weight="nu", window=10.0 * math.sqrt(h))
    f0 = basis_state(0, h)
    assert resolution_check(f0, f0, rule) < 1e-7
    assert resolution_check(basis_state(2, h), basis_state(5, h), rule) < 1e-7
    e4 = basis_state(4, h)
    assert resolution_check(e4, e4, rule) < 1e-7


# ------------------------------------------------------- holomorphy surrogate

def test_transform_C_is_holomorphic_in_z():
    h = 1.0
    psi = random_state(8, h, seed=23)
    func = lambda z: transform_C(psi, z)
    z0 = 0.6 + 0.4j
    r1 = holomorphy_residual(func, z0, step=1e-3)
    r2 = holomorphy_residual(func, z0, step=2e-3)
    assert r1 < 1e-5
    # central differences of an analytic function leave an O(step^2) defect
    assert 2.5 < r2 / max(r1, 1e-300) < 5.5


def test_projection_kernel_from_transform_images():
    # summing A e_n(z) conj(A e_n(w)) reproduces the Gaussian-space kernel
    h = 0.7
    z, w = 0.9 - 0.2j, -0.4 + 0.6j
    total = 0.0
    for n in range(40):
        img = transform_A(basis_state(n, h))
        total += img(z) * np.conj(img(w))
    assert total == pytest.approx(holo_kernel(SpaceSpec.segal_bargmann(h), z, w),
                                  abs=1e-12)



# -------------------------------------------------- shared recurrence tables

def hermite_loop(first, x, h, count):
    """The three-term loop as hermite_table and transform_C each wrote it."""
    table = np.empty((count,) + x.shape)
    table[0] = first
    if count > 1:
        table[1] = math.sqrt(2.0 / h) * x * table[0]
    for n in range(1, count - 1):
        table[n + 1] = (math.sqrt(2.0 / (h * (n + 1))) * x * table[n]
                        - math.sqrt(n / (n + 1)) * table[n - 1])
    return table


def product_loop(first, z, step, count):
    """The running product as transform and quantize each wrote it."""
    table = np.empty((count,) + z.shape, dtype=complex)
    table[0] = first
    for n in range(1, count):
        table[n] = table[n - 1] * z / math.sqrt(step * n)
    return table


@pytest.mark.parametrize("h", [0.3, 0.7, 1.0, 1.9, 4.0])
def test_shared_recurrences_keep_bytes(h):
    grid = np.linspace(-3.0, 3.0, 7)[:, None] + 1j * np.linspace(-2, 2.5, 9)
    zs, w = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0]), np.asarray(0.6 - 0.4j)
    line, plane = gauss_hermite(110, h / 2.0), complex_gaussian(30, h)
    nodes = plane.nodes.astype(complex)
    phi = SBSymbol({(1, 1): 1.0, (0, 2): 0.5})
    x = grid.real[:, 0]
    first = (math.pi * h) ** -0.25 * np.exp(-x * x / (2.0 * h))

    def c_basis(z, count):
        first = (4.0 * math.pi * h) ** -0.25 * np.exp(-z ** 2 / (4.0 * h))
        return product_loop(first, z, 2.0 * h, count)

    for count in (1, 2, 5, 21, 40):
        assert hermite_table(count - 1, x, h).tobytes() == \
            hermite_loop(first, x, h, count).tobytes()
        psi = random_state(count - 1, h, seed=count)
        c = psi.hermite_coefficients
        poly = np.tensordot(c, hermite_loop((math.pi * h) ** -0.25,
                                            line.nodes, h, count), 1)
        want = np.exp(-zs ** 2 / (2.0 * h)) * math.sqrt(math.pi * h) \
            / math.sqrt(2.0 * math.pi * h) \
            * ((np.exp(zs[:, None] * line.nodes / h) * poly) @ line.weights)
        assert transform_C(psi, zs).tobytes() == want.tobytes()
        table = c_basis(grid.real - 1j * grid.imag, count)
        want = np.abs(np.tensordot(c, table, 1)) ** 2 \
            * (math.pi * h) ** -0.5 * np.exp(-grid.imag ** 2 / h)
        assert husimi(psi, grid).tobytes() == want.tobytes()
        assert coherent_state(complex(w), h).hermite_coefficients.tobytes() \
            == np.conj(c_basis(w, 64)).tobytes()
        table = product_loop(1.0, nodes, h, count)
        want = (table.conj() * (plane.weights * phi.evaluate(nodes))) @ table.T
        assert toeplitz_quadrature(phi, count, h, plane).tobytes() == \
            want.tobytes()
