"""Harmonic analysis on SU(2): representations, characters, heat kernel.

Irreducible representations act on homogeneous polynomials in two
complex variables.  Degrees are tracked as doubled half-integers (the
polynomial degree m = 2l), which keeps every index an integer.
Characters are evaluated by the Chebyshev recurrence, the heat kernel
by a tail-bounded character series, and Haar integrals by an
Euler-angle product rule.  Group elements may sit in the
complexification SL(2, C); the heat kernel series then converges
thanks to the sub-Gaussian decay of its coefficients, and the required
truncation is controlled through the hyperbolic part of the polar
decomposition.

Representation entries are binomial sums.  ``_rep_entries`` builds each
column's terms for a whole batch of elements in a few array products and
adds them to +0.0 in a fixed order (see its docstring); the tests hold
its bytes to those of a scalar loop over every term.  The convolution
route synthesizes its integrand over the quadrature nodes in chunks of
``_NODE_CHUNK``, which bounds the entry tables; the heat kernel values and
the final weighted sum still run over all nodes at once, because summing
per chunk would change the rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, _finite_positive, _legendre_table

# Largest doubled degree accepted by rep_matrix.  The entries are not at
# full precision up to this cap: the unitarity residual max|D^H D - I|
# measured 8.8e-15 at l=10, 2.4e-12 at l=20 and 1.6e-9 at l=30 for a
# generic element, and reached 2.3e-14, 1.8e-11 and 1.6e-8 over 30 random
# Euler angles.  The loss comes from cancellation among the terms of the
# binomial sum in _rep_entries, not from the binomials themselves: up to
# comb(60, 30) ~ 1.2e17 each one rounds to a float within 1.1e-16.
MAX_DOUBLED_DEGREE = 60

# transform_group_quadrature synthesizes f on this many nodes at a time, so
# its representation tables grow with the degree but not with the rule.
# Each node's value is computed alone, so the chunk size never shows in
# the output bytes.
_NODE_CHUNK = 4096

_DET_TOL = 1e-12
_UNITARY_TOL = 1e-12
_TRACE_TOL = 1e-14


def _as_matrix(value):
    mat = np.array(value, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (mat.shape,))
    mat.setflags(write=False)
    return mat


def _det(mat):
    return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]


def _unitary_shaped(mat):
    # rows [alpha, -conj(beta)], [beta, conj(alpha)] with unit norm
    err = max(
        abs(mat[1, 1] - np.conj(mat[0, 0])),
        abs(mat[0, 1] + np.conj(mat[1, 0])),
        abs(abs(mat[0, 0]) ** 2 + abs(mat[1, 0]) ** 2 - 1.0),
    )
    return err <= _UNITARY_TOL


def _doubled(degree):
    twice = 2.0 * float(degree)
    rounded = int(round(twice))
    if abs(twice - rounded) > 1e-12 or rounded < 0:
        raise ValueError("degree must be a nonnegative half integer")
    return rounded


@dataclass(frozen=True)
class GroupElement:
    """Determinant-one 2x2 matrix, tagged 'su2' when unitary."""

    matrix: np.ndarray
    tag: str = "su2"

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if self.tag not in ("su2", "sl2c"):
            raise ValueError("tag must be 'su2' or 'sl2c'")
        det = _det(mat)
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError("determinant must equal 1, got %r" % (det,))
        if self.tag == "su2" and not _unitary_shaped(mat):
            raise ValueError("matrix is not unitary; construct with tag='sl2c'")

    @classmethod
    def identity(cls):
        return cls(np.eye(2, dtype=complex), "su2")

    @classmethod
    def from_euler(cls, phi, theta, psi):
        return cls(euler_matrix([phi, theta, psi]), "su2")

    @property
    def trace(self):
        return complex(self.matrix[0, 0] + self.matrix[1, 1])

    def inverse(self):
        # adjugate; exact for determinant one and equal to the adjoint
        # on the unitary part
        mat = self.matrix
        inv = np.array(
            [[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]], dtype=complex
        )
        return GroupElement(inv, self.tag)

    def __matmul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        tag = "su2" if self.tag == "su2" and other.tag == "su2" else "sl2c"
        return GroupElement(self.matrix @ other.matrix, tag)


@dataclass(frozen=True)
class AlgebraElement:
    """Traceless 2x2 matrix; skew-adjoint ones generate the unitary part."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        scale = max(1.0, float(np.linalg.norm(mat)))
        if abs(mat[0, 0] + mat[1, 1]) > _TRACE_TOL * scale:
            raise ValueError("matrix must be traceless")

    def is_skew(self):
        return bool(np.max(np.abs(self.matrix + self.matrix.conj().T)) <= 1e-12)


def group_exp(generator, factor=1.0):
    """Exponentiate ``factor * generator`` into the group.

    A traceless 2x2 matrix M satisfies M^2 = -det(M) I, so the
    exponential closes in degree one: exp(M) = cosh(mu) I +
    (sinh(mu)/mu) M with mu^2 = -det(M).  The result has determinant
    one exactly and is tagged 'su2' whenever it comes out unitary.
    """
    mat = complex(factor) * generator.matrix
    mu_sq = -_det(mat)
    mu = np.sqrt(complex(mu_sq))
    if abs(mu) < 1e-6:
        # even series in mu; accurate through O(mu^6)
        cosh_mu = 1.0 + mu_sq / 2.0 + mu_sq * mu_sq / 24.0
        sinhc_mu = 1.0 + mu_sq / 6.0 + mu_sq * mu_sq / 120.0
    else:
        cosh_mu = np.cosh(mu)
        sinhc_mu = np.sinh(mu) / mu
    out = cosh_mu * np.eye(2, dtype=complex) + sinhc_mu * mat
    tag = "su2" if _unitary_shaped(out) else "sl2c"
    return GroupElement(out, tag)


def polar_decompose(group_element):
    """Split g = x exp(i y) with x unitary and y skew-adjoint traceless.

    Returns ``(x, y)`` as a GroupElement tagged 'su2' and an
    AlgebraElement with ``is_skew()`` true.  exp(i y) is the positive
    factor of the polar decomposition; its largest eigenvalue measures
    how far g sits from the unitary subgroup.
    """
    mat = group_element.matrix
    gram = mat.conj().T @ mat
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.maximum(eigvals, np.finfo(float).tiny)
    inv_root = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.conj().T
    unitary = mat @ inv_root
    log_pos = eigvecs @ np.diag(0.5 * np.log(eigvals)) @ eigvecs.conj().T
    log_pos = 0.5 * (log_pos + log_pos.conj().T)
    log_pos = log_pos - 0.5 * np.trace(log_pos) * np.eye(2)
    return (
        GroupElement(unitary, "su2"),
        AlgebraElement(-1j * log_pos),
    )


def _kak_radius(mat):
    # log of the largest singular value; zero on the unitary subgroup.
    # det = 1 forces sigma_max * sigma_min = 1, so sigma_max^2 is the
    # larger root of s^2 - F s + 1 with F the squared Frobenius norm.
    frob = float(np.sum(np.abs(mat) ** 2))
    disc = max(frob * frob - 4.0, 0.0)
    smax_sq = 0.5 * (frob + math.sqrt(disc))
    return 0.5 * math.log(max(smax_sq, 1.0))


def _powers(values, top):
    out = np.empty((top + 1,) + values.shape, dtype=complex)
    out[0] = 1.0
    for k in range(1, top + 1):
        out[k] = out[k - 1] * values
    return out


# rows 0..MAX_DOUBLED_DEGREE cover rep_matrix; the bound stops a synthesis
# sweeping ever larger degrees from growing the cache without limit
@functools.lru_cache(maxsize=256)
def _binomials(n):
    """C(n, 0..n) as complex numbers C + 0j, read-only.

    That is the operand a Python int becomes when it multiplies a
    complex array: each integer rounded to the nearest float, which
    matters past 2**53, where C(60, 30) already sits.
    """
    row = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    row = row.astype(complex)
    row.setflags(write=False)
    return row


def _rep_entries(doubled, mats):
    """Representation matrices for a batch of group matrices.

    ``mats`` has shape (K, 2, 2); the result has shape (K, m+1, m+1)
    with m = doubled.  Basis: u_j = sqrt(C(m, j)) w1^(m-j) w2^j, and
    the action substitutes the transposed matrix into the arguments,
    which makes the assignment a homomorphism and restricts to the
    usual unitary representation on the 'su2' part.

    Column j is the product of (a w1 + c w2)^(m-j) and (b w1 + d w2)^j,
    expanded binomially.  Every term ((C(j,s) C(q,r) a^(q-r) c^r)
    b^(j-s)) d^s, q = m - j, is formed in that grouping, and the entry
    of w2-degree p adds its terms to +0.0 in ascending r, s = p - r.
    The bytes depend on both orders, so a faster route that changes
    either one (a Risbo recurrence, a d(theta) factorisation) also
    changes the output.
    """
    m = doubled
    count = mats.shape[0]
    top_a = _powers(mats[:, 0, 0], m)
    top_b = _powers(mats[:, 0, 1], m)
    bot_c = _powers(mats[:, 1, 0], m)
    bot_d = _powers(mats[:, 1, 1], m)
    root = np.sqrt(_binomials(m).real)
    out = np.empty((count, m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        q = m - j
        # left[r] = (C(q, r) a^(q-r)) c^r
        left = _binomials(q)[:, None] * top_a[q::-1] * bot_c[: q + 1]
        # terms[r, s] = ((C(j, s) left[r]) b^(j-s)) d^s; multiplying in
        # place keeps that operand order and saves two temporaries
        terms = _binomials(j)[:, None] * left[:, None, :]
        terms *= top_b[j::-1]
        terms *= bot_d[: j + 1]
        conv = np.zeros((m + 1, count), dtype=complex)
        for r in range(q + 1):
            conv[r : r + j + 1] += terms[r]
        out[:, :, j] = (conv * (root[j] / root)[:, None]).T
    return out


def rep_matrix(degree, group_element):
    """Matrix of the degree-l irreducible representation, l = degree.

    ``degree`` is a half integer; the result is (2l+1) square.  Doubled
    degrees above MAX_DOUBLED_DEGREE are rejected.  Precision falls with
    the degree because the entry sums cancel: the unitarity residual
    max|D^H D - I| is about 8.8e-15 at l=10, 2.4e-12 at l=20 and 1.6e-9 at
    l=30, and up to ten times larger for some elements.
    """
    m = _doubled(degree)
    if m > MAX_DOUBLED_DEGREE:
        raise ValueError(
            "doubled degree %d exceeds the supported cap %d"
            % (m, MAX_DOUBLED_DEGREE)
        )
    return _rep_entries(m, group_element.matrix[None, :, :])[0]


def _chebyshev_u(order, half_traces):
    # U_k by forward recurrence; stable for the growing solution
    current = np.ones_like(half_traces, dtype=complex)
    if order == 0:
        return current
    previous, current = current, 2.0 * half_traces.astype(complex)
    for _ in range(1, order):
        previous, current = current, 2.0 * half_traces * current - previous
    return current


def character(degree, group_element):
    """Trace of the degree-l representation, from the matrix trace alone.

    Equals the Chebyshev polynomial U_{2l} evaluated at half the trace,
    so no representation matrix is assembled.  The recurrence tracks
    the growing solution and stays accurate for large degrees, unlike
    the sine-ratio form near the identity.
    """
    m = _doubled(degree)
    half = np.asarray(group_element.trace / 2.0, dtype=complex)
    return complex(_chebyshev_u(m, half))


def _series_bound(t, k, radius):
    # (k+1)^2 exp(-t k(k+2)/8 + k radius) dominates the k-th term:
    # |U_k| on the conjugacy class is at most (k+1) e^(k radius)
    return (k + 1) ** 2 * math.exp(-t * k * (k + 2) / 8.0 + k * radius)


def _bound_converged(t, k, radius, tol):
    here = _series_bound(t, k, radius)
    after = _series_bound(t, k + 1, radius)
    return here < 0.5 * tol and after < 0.5 * here


def _required_degree(t, radius, tol, start):
    low, high = start, max(start, 4)
    while not _bound_converged(t, high, radius, tol):
        high *= 2
        if high > 10_000_000:
            return high
    while low + 1 < high:
        mid = (low + high) // 2
        if _bound_converged(t, mid, radius, tol):
            high = mid
        else:
            low = mid
    return high


def _heat_series(t, half_traces, radius, tol, max_doubled_degree):
    """Character series of the heat kernel on a batch of half-traces.

    ``radius`` bounds the hyperbolic part of every argument; the tail
    past degree k is controlled by (k+1)^2 exp(-t k(k+2)/8 + k radius),
    and summation stops once the remainder is provably below ``tol``.
    Raises when the allowed truncation cannot reach that, reporting the
    degree that would suffice.
    """
    total = np.zeros_like(half_traces, dtype=complex)
    previous = None
    current = np.ones_like(total)
    k = 0
    while k <= max_doubled_degree:
        total += ((k + 1) * math.exp(-t * k * (k + 2) / 8.0)) * current
        # once the bound ratio drops under 1/2 it stays there, so the
        # remaining tail is below the current bound, hence below tol
        if _bound_converged(t, k, radius, tol):
            return total
        if previous is None:
            previous, current = current, 2.0 * half_traces * current
        else:
            previous, current = current, 2.0 * half_traces * current - previous
        k += 1
    needed = _required_degree(t, radius, tol, max_doubled_degree)
    raise ValueError(
        "heat series truncated at doubled degree %d has not converged; "
        "roughly %d is needed for tolerance %.1e"
        % (max_doubled_degree, needed, tol)
    )


def heat_kernel(t, group_element, tol=1e-10, max_doubled_degree=240):
    """Heat kernel at time t, normalized to unit Haar mass.

    Character expansion with coefficients (2l+1) exp(-t l(l+1)/2),
    summed over all half integers l until the analytic tail bound
    guarantees ``tol``.  The argument may live in the determinant-one
    complexification; convergence then costs more terms, governed by
    the polar radius of the argument.
    """
    _finite_positive(t, "time")
    half = np.asarray([group_element.trace / 2.0], dtype=complex)
    radius = _kak_radius(group_element.matrix)
    value = _heat_series(t, half, radius, tol, max_doubled_degree)[0]
    return complex(value)


@dataclass(frozen=True)
class PeterWeylCoeffs:
    """Matrix Fourier data: one coefficient block per doubled degree.

    A function with blocks C_m synthesizes to
    sum_m sqrt(m+1) sum_{ij} C_m[i, j] rep_matrix(m/2, g)[i, j],
    under which the squared norm is the plain sum of squared block
    entries and the normalized character of degree l has the single
    block I / sqrt(2l+1).
    """

    blocks: tuple

    def __post_init__(self):
        stored = []
        for index, block in enumerate(self.blocks):
            mat = np.array(block, dtype=complex)
            if mat.shape != (index + 1, index + 1):
                raise ValueError(
                    "block %d must have shape (%d, %d), got %r"
                    % (index, index + 1, index + 1, mat.shape)
                )
            mat.setflags(write=False)
            stored.append(mat)
        object.__setattr__(self, "blocks", tuple(stored))

    @classmethod
    def zeros(cls, doubled_cutoff):
        return cls(
            tuple(
                np.zeros((k + 1, k + 1), dtype=complex)
                for k in range(doubled_cutoff + 1)
            )
        )

    @classmethod
    def character(cls, degree):
        m = _doubled(degree)
        blocks = [np.zeros((k + 1, k + 1), dtype=complex) for k in range(m + 1)]
        blocks[m] = np.eye(m + 1, dtype=complex) / math.sqrt(m + 1)
        return cls(tuple(blocks))

    @property
    def doubled_cutoff(self):
        return len(self.blocks) - 1

    def norm_sq(self):
        return float(sum(np.sum(np.abs(b) ** 2) for b in self.blocks))

    def synthesize(self, group_element):
        mats = group_element.matrix[None, :, :]
        total = 0.0 + 0.0j
        for k, block in enumerate(self.blocks):
            if not np.any(block):
                continue
            entries = _rep_entries(k, mats)[0]
            total += math.sqrt(k + 1) * np.sum(block * entries)
        return complex(total)


def transform_group(coeffs, group_element, hbar):
    """Heat-smoothed synthesis at a (possibly complexified) argument.

    Each degree block is damped by exp(-hbar l(l+1)/2) and the result
    is synthesized at ``group_element``.  For the normalized character
    of degree l this returns exp(-hbar l(l+1)/2) times the character.
    """
    _finite_positive(hbar, "hbar")
    damped = tuple(
        math.exp(-hbar * k * (k + 2) / 8.0) * block
        for k, block in enumerate(coeffs.blocks)
    )
    return PeterWeylCoeffs(damped).synthesize(group_element)


def transform_group_quadrature(
    coeffs, group_element, hbar, rule, tol=1e-9, max_doubled_degree=240
):
    """Same transform as a group convolution against the heat kernel.

    Evaluates integral of rho_hbar(g x^{-1}) f(x) over the unitary
    group with ``rule`` an Euler-angle product rule; f is synthesized
    from ``coeffs`` at the quadrature nodes.  Agreement with the
    coefficient route requires the rule to resolve products up to the
    heat truncation plus the cutoff of f.
    """
    _finite_positive(hbar, "hbar")
    angles = np.asarray(rule.nodes, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise ValueError("rule nodes must be Euler angle triples")
    mats = euler_matrix(angles)
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
    kernel_vals = _heat_series(hbar, half_traces, radius, tol, max_doubled_degree)
    blocks = [(k, b) for k, b in enumerate(coeffs.blocks) if np.any(b)]
    f_vals = np.zeros(mats.shape[0], dtype=complex)
    for start in range(0, mats.shape[0], _NODE_CHUNK):
        chunk = mats[start : start + _NODE_CHUNK]
        part = f_vals[start : start + _NODE_CHUNK]  # a view: += fills f_vals
        for k, block in blocks:
            entries = _rep_entries(k, chunk)
            part += math.sqrt(k + 1) * np.einsum("ij,kij->k", block, entries)
    return complex(np.sum(rule.weights * kernel_vals * f_vals))


def euler_matrix(angles):
    """Unitary matrices from Euler angle triples (phi, theta, psi).

    Convention: rotation about z by phi, about y by theta, about z by
    psi, each as the standard half-angle unitary.  Accepts any leading
    batch shape; the angles occupy the last axis.
    """
    ang = np.asarray(angles, dtype=float)
    if ang.shape[-1] != 3:
        raise ValueError("expected angle triples on the last axis")
    phi, theta, psi = ang[..., 0], ang[..., 1], ang[..., 2]
    half_sum = 0.5 * (phi + psi)
    half_diff = 0.5 * (phi - psi)
    cos_half = np.cos(0.5 * theta)
    sin_half = np.sin(0.5 * theta)
    out = np.empty(ang.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_half * np.exp(-1j * half_sum)
    out[..., 0, 1] = -sin_half * np.exp(-1j * half_diff)
    out[..., 1, 0] = sin_half * np.exp(1j * half_diff)
    out[..., 1, 1] = cos_half * np.exp(1j * half_sum)
    return out


def euler_quadrature(n_phi, n_theta, n_psi):
    """Product rule for Haar integration in Euler angles.

    Trapezoid in phi over [0, 2pi) and in psi over [0, 4pi), Gauss
    nodes in cos(theta); the half-angle entry functions force the 4pi
    period on one axis.  Weights sum to one.  ``exact_degree`` records
    the largest total doubled degree 2l + 2l' for which products of
    representation entries integrate exactly: phi resolves integer
    frequency differences up to n_phi - 1, psi half-integer ones up to
    (n_psi - 1)/2, and the cos(theta) rule polynomial degree l + l'
    up to 2 n_theta - 1.  Nodes are (phi, theta, psi) rows, so this
    rule is consumed through ``euler_matrix``, not serialized.
    """
    if n_phi < 1 or n_theta < 1 or n_psi < 1:
        raise ValueError("each angle needs at least one node")
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    cosines, gauss_weights = _legendre_table(n_theta)
    thetas = np.arccos(cosines)
    psis = 4.0 * np.pi * np.arange(n_psi) / n_psi
    grid_phi, grid_theta, grid_psi = np.meshgrid(
        phis, thetas, psis, indexing="ij"
    )
    nodes = np.stack(
        [grid_phi.ravel(), grid_theta.ravel(), grid_psi.ravel()], axis=1
    )
    weights = np.broadcast_to(
        gauss_weights[None, :, None] / (2.0 * n_phi * n_psi), grid_phi.shape
    ).ravel()
    exact = min(2 * (n_phi - 1), n_psi - 1, 2 * (2 * n_theta - 1))
    return QuadratureRule(
        nodes=nodes,
        weights=np.array(weights),
        exact_degree=exact,
        total_mass=1.0,
    )
