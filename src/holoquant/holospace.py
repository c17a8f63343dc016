"""Reproducing-kernel machinery for four holomorphic Hilbert spaces.

Supported spaces, their domains, weights, and monomial norms:

    segal-bargmann    C^d   mu_t(z) = (pi t)^(-d) exp(-|z|^2/t)   n! t^n (per axis)
    bergman           disk  1/pi normalization absorbed in norms  pi/(n+1)
    weighted-bergman  disk  (1 - |z|^2)^a dA, a > -1              pi n! G(a+1)/G(n+a+2)
    hardy             disk  boundary integral over dtheta         2 pi

Elements are finite Taylor expansions.  Since every space has an orthogonal
monomial basis with a closed-form norm, inner products, kernels, and bound
checks reduce to exact coefficient arithmetic; quadrature enters only where
an operation is *defined* by an integral (reproduction, projection, isometry
checks).

Closed-form kernels:

    segal-bargmann    K(z, w) = exp(z . conj(w) / t)
    bergman           K(z, w) = (1/pi) (1 - z conj(w))^(-2)
    weighted-bergman  K(z, w) = ((a+1)/pi) (1 - z conj(w))^(-(a+2))
    hardy             K(z, w) = (2 pi)^(-1) (1 - z conj(w))^(-1)

The weighted-Bergman and Hardy forms follow from summing the normalized
monomial series; ``kernel_from_basis`` provides the independent check.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .quadrature import QuadratureRule

__all__ = [
    "HoloFunction",
    "SpaceSpec",
    "holo_equiv",
    "kernel",
    "kernel_from_basis",
    "log_weight_laplacian",
    "monomial_norms",
    "pointwise_bound_check",
    "reproduce",
    "su11_act",
    "translate",
]

_KINDS = ("segal-bargmann", "bergman", "weighted-bergman", "hardy")


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """Which holomorphic Hilbert space, with its scale/weight parameters."""

    kind: str
    scale: float = 1.0
    weight: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.weight <= -1.0:
            raise ValueError("weight exponent must satisfy a > -1")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.dimension > 1 and self.kind != "segal-bargmann":
            raise ValueError("disk spaces are one-dimensional")

    @classmethod
    def segal_bargmann(cls, t: float = 1.0, dimension: int = 1) -> "SpaceSpec":
        return cls("segal-bargmann", scale=t, dimension=dimension)

    @classmethod
    def bergman(cls) -> "SpaceSpec":
        return cls("bergman")

    @classmethod
    def weighted_bergman(cls, a: float) -> "SpaceSpec":
        return cls("weighted-bergman", weight=a)

    @classmethod
    def hardy(cls) -> "SpaceSpec":
        return cls("hardy")

    @property
    def on_disk(self) -> bool:
        return self.kind != "segal-bargmann"


def monomial_norms(space: SpaceSpec, count: int) -> np.ndarray:
    """Squared norms of 1, z, ..., z^(count-1), one space axis at a time."""
    if count < 1:
        raise ValueError("count must be positive")
    out = np.empty(count)
    if space.kind == "segal-bargmann":
        # Python floats turn inf on overflow without a warning
        scale, value = float(space.scale), 1.0
        out[0] = value
        for n in range(1, count):
            value = value * n * scale
            out[n] = value
    elif space.kind == "bergman":
        out[:] = math.pi / np.arange(1, count + 1)
    elif space.kind == "weighted-bergman":
        a = space.weight
        out[0] = math.pi / (a + 1.0)
        for n in range(1, count):
            out[n] = out[n - 1] * n / (n + a + 1.0)
    else:
        out[:] = 2.0 * math.pi
    # the running products can leave the float range (n! t^n passes 1.8e308
    # at n = 171 when t = 1); norms and inner products built on an infinite
    # or zero entry come out NaN or infinite, so refuse them.  Every factor
    # is positive, so such an entry carries through to the last one.
    if not 0.0 < out[-1] < math.inf:
        bad = ~np.isfinite(out) | (out == 0.0)
        raise ValueError(
            "squared monomial norms leave the float range: at most %d "
            "coefficients are representable in this space, %d requested"
            % (int(np.argmax(bad)), count))
    return out


def _orthonormal_powers(first, z, step: float, count: int) -> np.ndarray:
    """Rows first * z^n / sqrt(n! step^n), n < count, as a running product."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((count,) + z.shape, dtype=complex)
    out[0] = first
    del first  # a caller's temporary row (a whole Husimi grid) is freed here
    for n in range(1, count):
        out[n] = out[n - 1] * z / math.sqrt(step * n)
    return out


def _check_in_domain(space: SpaceSpec, *points):
    # boundary points are admitted (the Hardy inner product lives there);
    # kernel evaluation separately requires |z conj(w)| < 1
    if space.on_disk:
        for p in points:
            if np.any(np.abs(np.asarray(p)) > 1.0 + 1e-12):
                raise ValueError("point lies outside the closed unit disk")


@dataclasses.dataclass(frozen=True)
class HoloFunction:
    """Finite Taylor expansion in a fixed space.

    ``coefficients`` has one axis per complex dimension (a vector when d = 1).
    """

    coefficients: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=complex)
        if coef.ndim != self.space.dimension:
            raise ValueError("coefficient array rank must equal the dimension")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return max(s - 1 for s in self.coefficients.shape)

    def __call__(self, z):
        c = self.coefficients
        if self.space.dimension == 1:
            return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), c)
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            value = c
            for axis in range(c.ndim):
                value = np.polynomial.polynomial.polyval(z[axis], value)
            return complex(value)
        return np.array([self(point) for point in z])

    def norm_sq(self) -> float:
        c = self.coefficients
        total = np.abs(c) ** 2
        for axis in range(c.ndim):
            norms = monomial_norms(self.space, c.shape[axis])
            total = np.tensordot(norms, total, axes=(0, 0))
        return float(total)


def kernel(space: SpaceSpec, z, w):
    """Closed-form reproducing kernel K(z, w), broadcasting over arrays.

    For ``dimension > 1`` the last axis of z and w indexes the coordinates.
    """
    if space.kind == "segal-bargmann":
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if space.dimension == 1:
            dot = z * np.conj(w)
        else:
            dot = np.sum(z * np.conj(w), axis=-1)
        return np.exp(dot / space.scale)
    _check_in_domain(space, z, w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    prod = z * np.conj(w)
    if np.any(np.abs(prod) >= 1.0):
        raise ValueError("kernel undefined where z conj(w) reaches the boundary")
    core = 1.0 - prod
    if space.kind == "bergman":
        return (1.0 / math.pi) * core**-2
    if space.kind == "weighted-bergman":
        return ((space.weight + 1.0) / math.pi) * core ** -(space.weight + 2.0)
    return 1.0 / (2.0 * math.pi * core)


def kernel_from_basis(space: SpaceSpec, z, w, truncation: int):
    """Partial kernel sum over the normalized monomial basis up to z^M.

    At z = w the partial sums increase monotonically to K(z, z).  For
    ``dimension > 1`` the sum runs over the box of multi-indices with every
    component at most M, which factors into per-axis sums.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    _check_in_domain(space, z, w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    prod = z * np.conj(w)
    # sum |e_n(z) e_n(w)| terms by the norm-ratio recurrence; this avoids
    # forming n! t^n, which overflows beyond n ~ 170
    term = np.full_like(prod, 1.0 / monomial_norms(space, 1)[0])
    total = term.copy()
    for n in range(truncation):
        if space.kind == "segal-bargmann":
            ratio = 1.0 / (space.scale * (n + 1))
        elif space.kind == "bergman":
            ratio = (n + 2.0) / (n + 1.0)
        elif space.kind == "weighted-bergman":
            ratio = (n + space.weight + 2.0) / (n + 1.0)
        else:
            ratio = 1.0
        term = term * prod * ratio
        total = total + term
    if space.kind == "segal-bargmann" and space.dimension > 1:
        return np.prod(total, axis=-1)
    return total


def pointwise_bound_check(space: SpaceSpec, f: HoloFunction, z) -> dict:
    """Ratio |F(z)|^2 / (K(z,z) ||F||^2), which never exceeds 1.

    The ratio reaches 1 exactly when F is proportional to the coherent
    vector at z, so the report doubles as a sharpness probe.  A ratio
    beyond 1 + 1e-10 indicates an inconsistent kernel and raises.
    """
    if f.space != space:
        raise ValueError("F does not live in the given space")
    _check_in_domain(space, z)
    value_sq = float(np.abs(f(z)) ** 2)
    diag = float(np.real(kernel(space, z, z)))
    norm_sq = f.norm_sq()
    bound = diag * norm_sq
    ratio = 0.0 if bound == 0.0 else value_sq / bound
    if ratio > 1.0 + 1e-10:
        raise ValueError(f"pointwise bound violated: ratio {ratio}")
    return {"ratio": ratio, "value_sq": value_sq, "kernel_diag": diag,
            "norm_sq": norm_sq}


def reproduce(space: SpaceSpec, f, z, rule: QuadratureRule):
    """Integrate K(z, .) f(.) against the space's weight.

    ``rule`` must integrate the space's own measure (mu_t for the Gaussian
    space, the weighted area for disk spaces, the boundary dtheta rule for
    Hardy) with exactness covering deg(f) plus the kernel tail at z.  When
    f is holomorphic this returns f(z); for a general callable it returns
    the holomorphic projection evaluated at z.
    """
    if isinstance(f, HoloFunction) and f.space != space:
        raise ValueError("F does not live in the given space")
    _check_in_domain(space, z)
    values = f(rule.nodes)
    return rule.weights @ (kernel(space, z, rule.nodes) * values)


def _exp_series(c: complex, count: int) -> np.ndarray:
    out = np.empty(count, dtype=complex)
    out[0] = 1.0
    for m in range(1, count):
        out[m] = out[m - 1] * c / m
    return out


def _shift_coefficients(coef: np.ndarray, a: complex) -> np.ndarray:
    """Taylor coefficients of p(z - a) from those of p(z), by Horner shifts."""
    out = np.array(coef, dtype=complex)
    n = len(out)
    for i in range(1, n):
        for j in range(n - 2, i - 2, -1):
            out[j] -= a * out[j + 1]
    return out


def _translate_axis(coef: np.ndarray, axis: int, a: complex, t: float,
                    extra: int) -> np.ndarray:
    moved = np.moveaxis(np.asarray(coef, dtype=complex), axis, 0)
    in_len = moved.shape[0]
    out_len = in_len + extra
    flat = moved.reshape(in_len, -1)
    series = _exp_series(np.conj(a) / t, out_len)
    damp = math.exp(-abs(a) ** 2 / (2.0 * t))
    out = np.zeros((out_len, flat.shape[1]), dtype=complex)
    for col in range(flat.shape[1]):
        shifted = _shift_coefficients(flat[:, col], a)
        out[:, col] = damp * np.convolve(series, shifted)[:out_len]
    return np.moveaxis(out.reshape((out_len,) + moved.shape[1:]), 0, axis)


def _trim_trailing_zeros(coef: np.ndarray) -> np.ndarray:
    for axis in range(coef.ndim):
        moved = np.moveaxis(coef, axis, 0)
        keep = moved.shape[0]
        while keep > 1 and not np.any(moved[keep - 1]):
            keep -= 1
        coef = np.moveaxis(moved[:keep], 0, axis)
    return coef


def translate(a, f: HoloFunction, t: float | None = None,
              series_factor: float = 40.0) -> HoloFunction:
    """Unitarized translation on the Gaussian-measure space,

        (T_a F)(z) = exp(-|a|^2 / 2t) exp(conj(a) . z / t) F(z - a).

    The exponential factor is expanded to ``max(16, ceil(|a|^2
    series_factor / t))`` extra coefficients per axis, which keeps the
    discarded tail of the coefficient sequence below 1e-9 in norm for
    |a|^2/t up to about 4; exact trailing zeros are trimmed, so a = 0
    returns F unchanged.
    """
    space = f.space
    if space.kind != "segal-bargmann":
        raise ValueError("translation is defined on the Gaussian-measure space only")
    if t is None:
        t = space.scale
    elif t != space.scale:
        raise ValueError("scale does not match the space of F")
    a_vec = np.atleast_1d(np.asarray(a, dtype=complex))
    if a_vec.shape != (space.dimension,):
        raise ValueError("translation vector dimension mismatch")
    coef = f.coefficients
    for axis in range(space.dimension):
        ai = complex(a_vec[axis])
        extra = max(16, math.ceil(abs(ai) ** 2 * series_factor / t))
        coef = _translate_axis(coef, axis, ai, t, extra)
    return HoloFunction(_trim_trailing_zeros(coef), space)


def _check_su11(g: np.ndarray, tol: float = 1e-12):
    if g.shape != (2, 2):
        raise ValueError("group element must be a 2x2 matrix")
    alpha, beta = g[0, 0], g[0, 1]
    if (abs(g[1, 0] - np.conj(beta)) > tol
            or abs(g[1, 1] - np.conj(alpha)) > tol
            or abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0) > tol):
        raise ValueError("matrix does not satisfy the su(1,1) constraints")
    return alpha, beta


def su11_act(g, f: HoloFunction, a: float | None = None,
             out_degree: int | None = None) -> HoloFunction:
    """Weighted disk-automorphism action

        (U_g F)(z) = phi_g(z) F(g^(-1) . z),
        g . z = (alpha z + beta) / (conj(beta) z + conj(alpha)),
        phi_g(z) = (alpha - conj(beta) z)^(-(a+2)),

    with the principal branch of the power.  The multiplier makes U_g unitary
    on the weight-a Bergman space; |conj(beta)/alpha| < 1 keeps the branch
    single-valued on the disk, and composition holds up to a unimodular
    constant for non-integer a.
    """
    g = np.asarray(g, dtype=complex)
    alpha, beta = _check_su11(g)
    space = f.space
    if space.kind not in ("bergman", "weighted-bergman"):
        raise ValueError("the action is defined on Bergman-type spaces only")
    if a is None:
        a = space.weight
    elif a != space.weight:
        raise ValueError("weight does not match the space of F")
    coef = f.coefficients
    if out_degree is None:
        out_degree = len(coef) - 1 + 48
    length = out_degree + 1
    q = np.conj(beta) / alpha
    log_alpha = np.log(alpha)
    out = np.zeros(length, dtype=complex)
    # (conj(alpha) z - beta)^n built up by repeated convolution
    mobius_num = np.ones(1, dtype=complex)
    for n, cn in enumerate(coef):
        if n > 0:
            mobius_num = np.convolve(mobius_num, np.array([-beta, np.conj(alpha)]))
        if cn == 0.0:
            continue
        power = n + a + 2.0
        series = np.empty(length, dtype=complex)
        series[0] = 1.0
        for m in range(1, length):
            series[m] = series[m - 1] * q * (power + m - 1) / m
        term = np.convolve(mobius_num, series)[:length]
        out += cn * np.exp(-power * log_alpha) * term
    return HoloFunction(out, space)


def holo_equiv(phi: HoloFunction, f: HoloFunction,
               rule: QuadratureRule | None = None,
               out_degree: int | None = None) -> HoloFunction:
    """Multiplication map F -> phi F between holomorphically equivalent spaces.

    The product is formed on Taylor coefficients.  The coefficients keep the
    source-space tag; the caller tracks the target weight alpha / |phi|^2.
    When ``rule`` is supplied, phi is required to be nonzero at every node,
    since a zero would make the weight ratio degenerate there.
    """
    if phi.space.dimension != 1 or f.space.dimension != 1:
        raise ValueError("equivalence maps are implemented for dimension 1")
    if rule is not None:
        values = phi(rule.nodes)
        if np.any(values == 0.0):
            raise ValueError("phi vanishes at a quadrature node; the "
                             "equivalence degenerates")
    product = np.convolve(phi.coefficients, f.coefficients)
    if out_degree is not None:
        product = product[:out_degree + 1]
    return HoloFunction(product, f.space)


def log_weight_laplacian(phi: HoloFunction, z: complex, step: float = 1e-3) -> float:
    """Five-point Laplacian of log|phi|^2 at z.

    Vanishes (to O(step^2)) exactly when |phi|^2 is the ratio of two weights
    that differ by a holomorphic change of density.
    """
    z = complex(z)
    samples = [z + step, z - step, z + 1j * step, z - 1j * step, z]
    vals = np.abs(phi(np.array(samples))) ** 2
    if np.any(vals == 0.0):
        raise ValueError("phi vanishes on the stencil")
    logs = np.log(vals)
    return float((logs[0] + logs[1] + logs[2] + logs[3] - 4.0 * logs[4]) / step**2)
