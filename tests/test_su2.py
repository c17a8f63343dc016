import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoquant import su2
from holoquant.quadrature import gauss_hermite, su2_class_rule
from holoquant.su2 import (
    MAX_DOUBLED_DEGREE,
    AlgebraElement,
    GroupElement,
    PeterWeylCoeffs,
    character,
    euler_matrix,
    euler_quadrature,
    group_exp,
    heat_kernel,
    polar_decompose,
    rep_matrix,
    transform_group,
    transform_group_quadrature,
)

# [DERIVED] independently computed reference values, frozen
CHAR_L1_A07 = 5.30179693078628
RHO_T07_THETA09 = 2.1218837199596
RHO_T11_THETA09 = 2.62711161453998
TRANSFORM_CHI1_CLOSED = 2.72241057507993
TRANSFORM_CHI1_CONV = 2.72241057507995


def hyperbolic(a):
    return GroupElement(np.diag([np.exp(a), np.exp(-a)]).astype(complex), "sl2c")


def class_point(theta):
    return GroupElement(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), "su2")


def random_unitary(rng):
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    theta = float(rng.uniform(0.0, np.pi))
    psi = float(rng.uniform(0.0, 4.0 * np.pi))
    return GroupElement.from_euler(phi, theta, psi)


def heat_coeffs(t, doubled_cutoff):
    # block form of the heat kernel itself, for convolution tests
    blocks = []
    for k in range(doubled_cutoff + 1):
        blocks.append(
            math.sqrt(k + 1)
            * math.exp(-t * k * (k + 2) / 8.0)
            * np.eye(k + 1, dtype=complex)
        )
    return PeterWeylCoeffs(tuple(blocks))


def synth_grid(coeffs, mats):
    # direct synthesis at a batch of matrices through the public API
    vals = np.zeros(mats.shape[0], dtype=complex)
    for idx in range(mats.shape[0]):
        g = GroupElement(mats[idx], "su2")
        vals[idx] = coeffs.synthesize(g)
    return vals


# ----------------------------------------------------------------- elements

def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(2.0 * np.eye(2), "sl2c")
    with pytest.raises(ValueError):
        GroupElement(np.diag([np.exp(0.3), np.exp(-0.3)]).astype(complex), "su2")
    with pytest.raises(ValueError):
        GroupElement(np.eye(2), "special")
    with pytest.raises(ValueError):
        GroupElement(np.eye(3), "su2")
    assert GroupElement.identity().trace == 2.0


def test_group_products_track_the_unitary_tag():
    rng = np.random.default_rng(7)
    g = random_unitary(rng)
    h = random_unitary(rng)
    assert (g @ h).tag == "su2"
    assert (g @ hyperbolic(0.2)).tag == "sl2c"
    back = g @ g.inverse()
    assert np.max(np.abs(back.matrix - np.eye(2))) < 1e-14


def test_euler_matrix_entries():
    phi, theta, psi = 0.3, 0.7, 1.1
    mat = euler_matrix([phi, theta, psi])
    cz1 = np.exp(-0.5j * phi)
    cz2 = np.exp(-0.5j * psi)
    want = np.array(
        [
            [cz1 * np.cos(theta / 2) * cz2, -cz1 * np.sin(theta / 2) / cz2],
            [np.sin(theta / 2) * cz2 / cz1, np.cos(theta / 2) / (cz1 * cz2)],
        ]
    )
    assert np.max(np.abs(mat - want)) < 1e-15
    batch = euler_matrix(np.zeros((4, 3)))
    assert batch.shape == (4, 2, 2)
    with pytest.raises(ValueError):
        euler_matrix([0.1, 0.2])


def test_algebra_element_validation():
    with pytest.raises(ValueError):
        AlgebraElement(np.eye(2))
    pauli_z_like = AlgebraElement(np.diag([1.0, -1.0]).astype(complex))
    assert not pauli_z_like.is_skew()
    skew = AlgebraElement(np.array([[0.5j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.5j]]))
    assert skew.is_skew()


def test_group_exp_closed_form():
    skew = AlgebraElement(np.array([[0.4j, 0.3 + 0.2j], [-0.3 + 0.2j, -0.4j]]))
    g = group_exp(skew)
    assert g.tag == "su2"
    back = group_exp(skew, -1.0)
    assert np.max(np.abs((g @ back).matrix - np.eye(2))) < 1e-14
    tiny = group_exp(AlgebraElement(1e-9 * np.diag([1.0, -1.0])))
    assert np.max(np.abs(tiny.matrix - np.diag([1 + 1e-9, 1 - 1e-9]))) < 1e-17
    stretched = group_exp(AlgebraElement(np.diag([1.0, -1.0])), 0.7)
    assert stretched.tag == "sl2c"
    assert abs(stretched.matrix[0, 0] - np.exp(0.7)) < 1e-14


def test_polar_decomposition_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        raw = raw / np.sqrt(raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0])
        g = GroupElement(raw, "sl2c")
        unitary, skew = polar_decompose(g)
        assert unitary.tag == "su2"
        assert skew.is_skew()
        rebuilt = unitary @ group_exp(skew, 1j)
        assert np.max(np.abs(rebuilt.matrix - raw)) < 1e-12


def test_polar_of_unitary_has_trivial_positive_part():
    g = GroupElement.from_euler(0.9, 1.3, 2.4)
    unitary, skew = polar_decompose(g)
    assert np.max(np.abs(skew.matrix)) < 1e-14
    assert np.max(np.abs(unitary.matrix - g.matrix)) < 1e-13


# -------------------------------------------------------------- irreducibles

def test_rep_degree_validation():
    g = GroupElement.identity()
    with pytest.raises(ValueError):
        rep_matrix(0.3, g)
    with pytest.raises(ValueError):
        rep_matrix(-1, g)
    with pytest.raises(ValueError):
        rep_matrix((MAX_DOUBLED_DEGREE + 1) / 2.0, g)
    assert rep_matrix(MAX_DOUBLED_DEGREE / 2.0, g).shape[0] == 61


def test_rep_half_is_the_matrix_itself():
    rng = np.random.default_rng(3)
    g = random_unitary(rng)
    assert np.array_equal(rep_matrix(0.5, g), g.matrix)


def test_rep_is_a_homomorphism():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        g = random_unitary(rng)
        h = random_unitary(rng)
        for twice in range(1, 7):
            degree = twice / 2.0
            lhs = rep_matrix(degree, g @ h)
            rhs = rep_matrix(degree, g) @ rep_matrix(degree, h)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10


def test_rep_is_unitary_on_the_compact_part():
    rng = np.random.default_rng(9)
    g = random_unitary(rng)
    for twice in (1, 2, 3, 5, 8):
        mat = rep_matrix(twice / 2.0, g)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(twice + 1))) < 1e-12


def test_rep_eigenvalue_law_on_hyperbolic_elements():
    a = 0.7
    g = hyperbolic(a)
    for twice in (1, 2, 4, 7):
        mat = rep_matrix(twice / 2.0, g)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) == 0.0
        want = np.exp(a * (twice - 2 * np.arange(twice + 1)))
        assert np.max(np.abs(np.diag(mat) - want) / want) < 1e-13


def test_character_matches_rep_trace():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_unitary(rng)
        for twice in range(0, 7):
            via_trace = character(twice / 2.0, g)
            via_rep = complex(np.trace(rep_matrix(twice / 2.0, g)))
            assert abs(via_trace - via_rep) < 1e-12


def test_character_frozen_value_and_sine_ratio():
    # [DERIVED] sinh(3 a)/sinh(a) at a = 0.7 for the doubled degree 2
    assert abs(character(1, hyperbolic(0.7)) - CHAR_L1_A07) < 1e-12
    for theta in np.linspace(0.2, 2.9, 7):
        want = np.sin(8 * theta) / np.sin(theta)
        got = character(3.5, class_point(theta))
        assert abs(got - want) < 1e-10


def test_character_stable_near_the_identity():
    g = class_point(1e-8)
    got = character(5, g)
    assert abs(got - 11.0) < 1e-9
    assert abs(got.imag) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, np.pi),
    st.floats(0.0, 4.0 * np.pi),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, np.pi),
)
def test_character_is_a_class_function(phi, theta, psi, phi2, theta2):
    g = GroupElement.from_euler(phi, theta, psi)
    h = GroupElement.from_euler(phi2, theta2, 0.0)
    moved = h @ g @ h.inverse()
    for twice in (1, 2, 5):
        assert abs(character(twice / 2.0, moved) - character(twice / 2.0, g)) < 1e-12


def test_class_dependence_only_through_the_trace():
    # conjugation inside the complexification preserves characters too
    g = hyperbolic(0.4)
    raw = np.array([[1.1, 0.3 - 0.2j], [0.1j, 0.9 + 0.05j]])
    raw = raw / np.sqrt(raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0])
    h = GroupElement(raw, "sl2c")
    moved = h @ g @ h.inverse()
    for twice in (1, 2, 3):
        assert abs(character(twice / 2.0, moved) - character(twice / 2.0, g)) < 1e-10


# ------------------------------------------------------------- Haar sampling

def test_euler_quadrature_shape_and_mass():
    rule = euler_quadrature(6, 4, 10)
    assert rule.nodes.shape == (6 * 4 * 10, 3)
    assert rule.weights.shape == (240,)
    assert abs(rule.total_mass - 1.0) < 1e-15
    assert abs(float(np.sum(rule.weights)) - 1.0) < 1e-14
    assert rule.exact_degree == min(10, 9, 14)
    with pytest.raises(ValueError):
        euler_quadrature(0, 4, 10)


def test_schur_orthogonality():
    rule = euler_quadrature(14, 8, 26)
    mats = euler_matrix(rule.nodes)
    reps = {}
    for twice in range(0, 7):
        entries = np.empty((mats.shape[0], twice + 1, twice + 1), dtype=complex)
        for idx in range(mats.shape[0]):
            entries[idx] = rep_matrix(twice / 2.0, GroupElement(mats[idx], "su2"))
        reps[twice] = entries
    worst = 0.0
    for ka in range(0, 7):
        for kb in range(ka, 7):
            gram = np.einsum(
                "kab,kcd,k->abcd", reps[ka], reps[kb].conj(), rule.weights
            )
            want = np.zeros_like(gram)
            if ka == kb:
                for a in range(ka + 1):
                    for b in range(ka + 1):
                        want[a, b, a, b] = 1.0 / (ka + 1)
            worst = max(worst, float(np.max(np.abs(gram - want))))
    assert worst < 1e-9


def test_coefficient_norm_matches_haar_norm():
    rng = np.random.default_rng(21)
    blocks = tuple(
        rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
        for k in range(5)
    )
    coeffs = PeterWeylCoeffs(blocks)
    rule = euler_quadrature(10, 6, 18)
    vals = synth_grid(coeffs, euler_matrix(rule.nodes))
    integral = float(np.sum(rule.weights * np.abs(vals) ** 2))
    assert abs(integral - coeffs.norm_sq()) < 1e-9 * coeffs.norm_sq()


def test_peter_weyl_coeffs_validation():
    with pytest.raises(ValueError):
        PeterWeylCoeffs((np.zeros((2, 2)),))
    with pytest.raises(ValueError):
        PeterWeylCoeffs((np.zeros((1, 1)), np.zeros((2, 3))))
    zero = PeterWeylCoeffs.zeros(3)
    assert zero.doubled_cutoff == 3
    assert zero.norm_sq() == 0.0
    chi = PeterWeylCoeffs.character(1)
    assert chi.doubled_cutoff == 2
    assert abs(chi.norm_sq() - 1.0) < 1e-14


def test_character_coeffs_synthesize_to_the_character():
    rng = np.random.default_rng(31)
    g = random_unitary(rng)
    for twice in (1, 2, 4):
        chi = PeterWeylCoeffs.character(twice / 2.0)
        assert abs(chi.synthesize(g) - character(twice / 2.0, g)) < 1e-12


# ---------------------------------------------------------------- heat flow

def test_heat_kernel_frozen_class_values():
    g = class_point(0.9)
    assert abs(heat_kernel(0.7, g) - RHO_T07_THETA09) < 1e-11
    assert abs(heat_kernel(1.1, g) - RHO_T11_THETA09) < 1e-11


def test_heat_kernel_positive_and_concentrating():
    thetas = np.linspace(0.05, 3.1, 12)
    vals = np.array([heat_kernel(0.8, class_point(t)) for t in thetas])
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.all(vals.real > 0.0)
    assert heat_kernel(0.2, GroupElement.identity()).real > heat_kernel(
        0.4, GroupElement.identity()
    ).real


def test_heat_kernel_unit_mass():
    rule = su2_class_rule(60)
    vals = np.array(
        [heat_kernel(0.5, class_point(float(t))).real for t in rule.nodes]
    )
    assert abs(float(rule.weights @ vals) - 1.0) < 1e-8


def test_heat_kernel_semigroup_through_coefficients():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_unitary(rng)
        lhs = transform_group(heat_coeffs(1.1, 24), g, 0.9)
        rhs = heat_kernel(2.0, g)
        assert abs(lhs - rhs) < 1e-10


def test_heat_kernel_semigroup_through_convolution():
    rule = euler_quadrature(24, 12, 46)
    smooth = heat_coeffs(1.1, 14)
    for theta in (0.6, 1.4, 2.5):
        g = class_point(theta)
        conv = transform_group_quadrature(smooth, g, 0.9, rule)
        assert abs(conv - heat_kernel(2.0, g)) < 1e-8


def test_heat_kernel_truncation_reports_needed_degree():
    g = class_point(0.9)
    with pytest.raises(ValueError, match="converged"):
        heat_kernel(0.05, g, max_doubled_degree=10)
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            heat_kernel(t, g)
    big = hyperbolic(3.0)
    with pytest.raises(ValueError, match="converged"):
        heat_kernel(0.4, big, max_doubled_degree=12)
    value = heat_kernel(0.4, big, max_doubled_degree=300)
    assert np.isfinite(value.real)


# ----------------------------------------------------------- group transform

def test_transform_group_multiplier_on_characters():
    rng = np.random.default_rng(23)
    g = random_unitary(rng)
    for twice, hbar in ((1, 0.4), (3, 0.9), (4, 0.25)):
        degree = twice / 2.0
        got = transform_group(PeterWeylCoeffs.character(degree), g, hbar)
        want = math.exp(-hbar * degree * (degree + 1) / 2.0) * character(degree, g)
        assert abs(got - want) < 1e-12


def test_transform_group_frozen_hyperbolic_value():
    coeffs = PeterWeylCoeffs.character(1)
    g = hyperbolic(0.4)
    closed = transform_group(coeffs, g, 0.3)
    assert abs(closed - TRANSFORM_CHI1_CLOSED) < 1e-10
    rule = euler_quadrature(40, 30, 80)
    conv = transform_group_quadrature(coeffs, g, 0.3, rule)
    assert abs(conv - TRANSFORM_CHI1_CONV) < 1e-10
    assert abs(conv - closed) < 1e-9


def test_transform_quadrature_of_the_constant_is_the_heat_mass():
    constant = PeterWeylCoeffs((np.ones((1, 1), dtype=complex),))
    rule = euler_quadrature(32, 16, 60)
    for g in (GroupElement.identity(), hyperbolic(0.4)):
        conv = transform_group_quadrature(constant, g, 0.5, rule)
        assert abs(conv - 1.0) < 1e-9
        assert abs(transform_group(constant, g, 0.5) - 1.0) < 1e-15


def test_transform_group_argument_validation():
    coeffs = PeterWeylCoeffs.character(1)
    g = GroupElement.identity()
    for hbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            transform_group(coeffs, g, hbar)
    for hbar in (-0.3, math.nan, -math.inf):
        with pytest.raises(ValueError):
            transform_group_quadrature(coeffs, g, hbar, euler_quadrature(4, 3, 8))
    with pytest.raises(ValueError):
        transform_group_quadrature(coeffs, g, 0.5, gauss_hermite(8, 1.0))


# ------------------------------------------------------- bytes of the kernels

def _triple_loop_rep_entries(doubled, mats):
    """Byte reference for _rep_entries: a scalar-indexed loop that forms
    one term per (j, r, s) and adds it to +0.0 in ascending r."""
    def powers(values):
        out = np.empty((m + 1,) + values.shape, dtype=complex)
        out[0] = 1.0
        for k in range(1, m + 1):
            out[k] = out[k - 1] * values
        return out

    m = doubled
    count = mats.shape[0]
    top_a = powers(mats[:, 0, 0])
    top_b = powers(mats[:, 0, 1])
    bot_c = powers(mats[:, 1, 0])
    bot_d = powers(mats[:, 1, 1])
    root = np.sqrt(np.array([float(math.comb(m, i)) for i in range(m + 1)]))
    out = np.empty((count, m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        q = m - j
        conv = np.zeros((m + 1, count), dtype=complex)
        for r in range(q + 1):
            left = math.comb(q, r) * top_a[q - r] * bot_c[r]
            for s in range(j + 1):
                conv[r + s] += (math.comb(j, s) * left) * top_b[j - s] * bot_d[s]
        out[:, :, j] = (conv * (root[j] / root)[:, None]).T
    return out


def _byte_batches():
    """Batches of 1 and 7 unitary elements, the same of complexified ones,
    and a batch of 300 drawn from those 16.  The 7s hold the poles
    theta = 0 (b = c = 0) and theta = pi (a = d = 0)."""
    rng = np.random.default_rng(41)
    angles = np.column_stack([rng.uniform(0.0, 2.0 * np.pi, 8),
                              rng.uniform(0.0, np.pi, 8),
                              rng.uniform(0.0, 4.0 * np.pi, 8)])
    angles[[3, 5], 1] = [0.0, np.pi]
    unitary = euler_matrix(angles)
    stretch = np.exp(rng.uniform(-1.5, 1.5, 8))
    hyper = np.zeros((8, 2, 2), dtype=complex)
    hyper[:, 0, 0] = stretch
    hyper[:, 1, 1] = 1.0 / stretch
    distinct = np.concatenate([unitary, unitary @ hyper])
    picks = rng.integers(0, len(distinct), 300)
    batches = [(slice(0, 1), distinct[:1]), (slice(1, 8), distinct[1:8]),
               (slice(8, 9), distinct[8:9]), (slice(9, 16), distinct[9:16]),
               (picks, distinct[picks])]
    return distinct, batches


def test_rep_entries_keep_the_triple_loop_bytes():
    distinct, batches = _byte_batches()
    for doubled in range(MAX_DOUBLED_DEGREE + 1):
        # the reference treats every element alone, so one pass over the
        # distinct elements serves every batch
        want = _triple_loop_rep_entries(doubled, distinct)
        for rows, mats in batches:
            got = su2._rep_entries(doubled, mats)
            assert got.tobytes() == want[rows].tobytes(), (doubled, len(mats))


def _unchunked_group_quadrature(coeffs, group_element, hbar, rule, tol=1e-9,
                                max_doubled_degree=240):
    """transform_group_quadrature in one pass over all nodes, with the
    triple-loop entries."""
    mats = euler_matrix(rule.nodes)
    inverses = np.empty_like(mats)
    inverses[:, 0, 0] = mats[:, 1, 1]
    inverses[:, 0, 1] = -mats[:, 0, 1]
    inverses[:, 1, 0] = -mats[:, 1, 0]
    inverses[:, 1, 1] = mats[:, 0, 0]
    shifted = np.einsum("ab,kbc->kac", group_element.matrix, inverses)
    half_traces = 0.5 * (shifted[:, 0, 0] + shifted[:, 1, 1])
    frob = np.sum(np.abs(shifted) ** 2, axis=(1, 2))
    smax_sq = 0.5 * (frob + np.sqrt(np.maximum(frob * frob - 4.0, 0.0)))
    radius = 0.5 * float(np.log(np.maximum(smax_sq, 1.0)).max())
    kernel_vals = su2._heat_series(hbar, half_traces, radius, tol,
                                   max_doubled_degree)
    f_vals = np.zeros(mats.shape[0], dtype=complex)
    for k, block in enumerate(coeffs.blocks):
        if not np.any(block):
            continue
        entries = _triple_loop_rep_entries(k, mats)
        f_vals += math.sqrt(k + 1) * np.einsum("ij,kij->k", block, entries)
    return complex(np.sum(rule.weights * kernel_vals * f_vals))


def _random_blocks():
    rng = np.random.default_rng(43)
    return PeterWeylCoeffs(tuple(
        rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
        for k in range(5)))


@pytest.mark.parametrize("coeffs", [PeterWeylCoeffs.character(4), _random_blocks()],
                         ids=["character-4", "random-0-4"])
def test_group_quadrature_keeps_bytes_across_node_chunks(coeffs):
    rule = euler_quadrature(40, 24, 80)
    assert len(rule) > su2._NODE_CHUNK
    g = GroupElement.from_euler(0.2, 0.8, 1.1)
    tracemalloc.start()
    try:
        got = transform_group_quadrature(coeffs, g, 1.0, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = _unchunked_group_quadrature(coeffs, g, 1.0, rule)
    assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
    # one (76800, 9, 9) table of the character's entries alone is 100 MB
    assert peak < 60e6, peak
