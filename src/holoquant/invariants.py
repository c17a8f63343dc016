"""Self-test registry, run by ``holoquant selftest`` and the acceptance suite.

``SELFTESTS`` holds ``(name, check)`` pairs, named after the module they
exercise; ``check()`` returns ``(residual, tol)`` and passes when
``residual <= tol``.  Paired checks compare two differently computed
routes to one quantity, never a function with itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import su2 as su2_mod
from .cli import _grid_csv, _matrix_json, load_matrix, parse_sb_symbol, \
    parse_symbol, print_symbol
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
    eye = np.eye(32)
    for h in (0.5, 1.0, 2.0):
        spec = HermiteBasisSpec(32, h)
        x_op, p_op = position_momentum(spec)
        low, raise_ = ladder(spec)
        block = commutator(x_op, p_op).entries - 1j * h * eye
        worst = max(worst, float(np.max(np.abs(block[:31, :31]))))
        block = commutator(low, raise_).entries - h * eye
        worst = max(worst, float(np.max(np.abs(block[:31, :31]))))
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
    worst = 0.0
    eye = np.eye(16)
    x_sq = PhaseSymbol({(2, 0): 1.0})
    for h in (0.5, 1.0):
        spec = HermiteBasisSpec(16, h)
        x_op, p_op = position_momentum(spec)
        sym = PhaseSymbol({(2, 1): 1.0})
        block = exact_block_size(16, sym)
        weyl = quantize(OrderingScheme.WEYL, sym, spec).entries
        want = (x_op @ x_op @ p_op + x_op @ p_op @ x_op
                + p_op @ x_op @ x_op).entries / 3.0
        worst = max(worst, float(np.max(np.abs(
            (weyl - want)[:block, :block]))))
        xx = (x_op @ x_op).entries
        block = exact_block_size(16, x_sq)
        wick = quantize(OrderingScheme.WICK, x_sq, spec).entries
        anti = quantize(OrderingScheme.ANTI_WICK, x_sq, spec).entries
        worst = max(worst, float(np.max(np.abs(
            (wick - (xx - 0.5 * h * eye))[:block, :block]))))
        worst = max(worst, float(np.max(np.abs(
            (anti - (xx + 0.5 * h * eye))[:block, :block]))))
        for n, m in ((1, 1), (2, 2), (3, 1), (1, 3)):
            sym = PhaseSymbol({(n, m): 1.0})
            block = exact_block_size(16, sym)
            pdo = quantize(OrderingScheme.PDO_STANDARD, sym, spec).entries
            direct = eye
            for _ in range(n):
                direct = direct @ x_op.entries
            for _ in range(m):
                direct = direct @ p_op.entries
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
    worst = 0.0
    for h in (0.7, 1.3):
        spec = HermiteBasisSpec(24, h)
        for n in range(5):
            for m in range(5 - n):
                symbol = PhaseSymbol({(n, m): 1.0})
                block = exact_block_size(24, symbol)
                anti = quantize(OrderingScheme.ANTI_WICK, symbol, spec).entries
                smoothed = quantize(OrderingScheme.WEYL,
                                    heat_smooth(symbol, h), spec).entries
                worst = max(worst, float(np.max(np.abs(
                    (anti - smoothed)[:block, :block]))))
    return worst, 1e-11


def _st_toeplitz_bridge():
    worst = 0.0
    for h in (0.6, 0.8):
        spec = HermiteBasisSpec(24, h)
        for n in range(5):
            for m in range(5 - n):
                worst = max(worst, antiwick_toeplitz_bridge(
                    PhaseSymbol({(n, m): 1.0}), spec))
    return worst, 1e-9


def _st_toeplitz_diagonal():
    t = 0.7
    op = toeplitz(SBSymbol({(1, 1): 1.0}), 16, t).entries
    want = np.diag([t * (n + 1) for n in range(15)] + [0.0])
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


def _random_su2(rng):
    # draws phi, theta, psi in that order: the residuals depend on it
    return su2_mod.GroupElement.from_euler(
        float(rng.uniform(0, 2 * np.pi)),
        float(rng.uniform(0, np.pi)),
        float(rng.uniform(0, 4 * np.pi)),
    )


def _st_su2_closure_polar():
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(10):
        g = _random_su2(rng)
        h = _random_su2(rng)
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
        g = _random_su2(rng)
        h = _random_su2(rng)
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
        g = _random_su2(rng)
        lhs = su2_mod.transform_group(smooth, g, 0.9)
        worst = max(worst, abs(lhs - su2_mod.heat_kernel(2.0, g)))
    short = su2_mod.PeterWeylCoeffs(smooth.blocks[:15])
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
    grid = xs[:, None] + 1j * xs[None, :]
    grid_a = _grid_csv(xs, xs, husimi(psi, grid))
    grid_b = _grid_csv(xs, xs, husimi(psi, grid))
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
