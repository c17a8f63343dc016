"""Numerical integration rules shared by every other module.

Four measures appear throughout the package:

* the centered Gaussian on the line
      rho_h(x) = (2 pi h)^(-1/2) exp(-x^2 / 2h),
  the weight for the heat-convolution transforms (``gauss_hermite``);

* the rotation-invariant Gaussian on the plane
      mu_t(z) = (pi t)^(-1) exp(-|z|^2 / t),
  the weight of the holomorphic Gaussian-measure space (``complex_gaussian``
  with ``weight="mu"``);

* the strip weight
      nu_h(z) = (pi h)^(-1/2) exp(-(Im z)^2 / h),
  Gaussian in Im z only; its Re z marginal is Lebesgue, so the rule truncates
  Re z to a finite window (``complex_gaussian`` with ``weight="nu"``);

* the weighted area measure (1 - |z|^2)^a dA on the unit disk, a > -1
  (``disk_rule``), and the class-function measure (2/pi) sin^2(theta) dtheta
  on conjugacy classes of 2x2 special unitary matrices (``su2_class_rule``).

All rules are deterministic for fixed inputs and immutable once built, so they
can be shared freely across threads.

The node tables behind the rules (Hermite, Legendre and Jacobi roots with their
weights, found by the Golub-Welsch eigenproblem) are solved once per process
for each order and shared read-only.  The tables depend only on the order (and
the Jacobi exponent), never on ``hbar`` or ``scale``.  ``gauss_hermite`` also
keeps each rule it builds, per (n, hbar), and returns that same immutable rule
on a repeated call; the other constructors scale the nodes themselves and build
and validate a fresh ``QuadratureRule`` on every call.  scipy supplies the
Jacobi roots and is imported on the first ``disk_rule`` call, not with this
module.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule",
    "gauss_hermite",
    "complex_gaussian",
    "disk_rule",
    "su2_class_rule",
]


# Orders in use are a few dozen per process; the bound only stops a caller that
# sweeps orders from growing the tables without limit.  The caches are typed so
# that an order numpy rejects (a float) never hits an int order's entry.
_TABLE_CACHE_SIZE = 128


def _finite_positive(value, name):
    """Raise ValueError unless ``value`` is a finite number above zero."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("%s must be finite and positive, got %r" % (name, value))


def _read_only(nodes: np.ndarray, weights: np.ndarray):
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _hermite_table(n):
    """``hermgauss(n)``, solved once per order and returned read-only."""
    return _read_only(*hermgauss(n))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _legendre_table(n):
    """``leggauss(n)``, solved once per order and returned read-only."""
    return _read_only(*leggauss(n))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _jacobi_table(n, a: float):
    """``roots_jacobi(n, a, 0)``, solved once per (n, a) and returned read-only."""
    from scipy.special import roots_jacobi

    return _read_only(*roots_jacobi(n, a, 0.0))


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Nodes, strictly positive weights, and a polynomial exactness guarantee.

    ``integrate(f)`` evaluates ``f`` on the node array in one vectorized call
    and returns the weighted sum.  Weights always include the target measure's
    density, so ``integrate(lambda z: 1.0)`` returns ``total_mass``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    total_mass: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(nodes):
            raise ValueError("nodes and weights must have matching length")
        if np.any(weights <= 0.0):
            raise ValueError("all quadrature weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.weights)

    def integrate(self, f) -> complex:
        values = np.asarray(f(self.nodes))
        return self.weights @ values

    def to_json_dict(self) -> dict:
        if np.iscomplexobj(self.nodes):
            nodes = [[float(z.real), float(z.imag)] for z in self.nodes]
        else:
            nodes = [float(x) for x in self.nodes]
        return {
            "nodes": nodes,
            "weights": [float(w) for w in self.weights],
            "exact_degree": int(self.exact_degree),
        }


def gauss_hermite(n: int, hbar: float = 1.0) -> QuadratureRule:
    """Rule integrating against rho_h(x) = (2 pi h)^(-1/2) exp(-x^2/2h).

    Nodes are the rescaled roots of the n-th Hermite polynomial (computed by
    the symmetric-tridiagonal eigenvalue method), so polynomials of degree
    <= 2n - 1 are integrated exactly.  Total weight is 1.  Repeated calls
    with the same arguments return the same immutable rule.
    """
    if n < 1:
        raise ValueError("need at least one node")
    _finite_positive(hbar, "hbar")
    # float() lets a NumPy scalar or 0-d array share the Python float's
    # entry; the scaled nodes are the same either way
    return _gauss_hermite_rule(n, float(hbar))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _gauss_hermite_rule(n, hbar):
    """The ``gauss_hermite`` rule, built once per (n, hbar) and shared."""
    x, w = _hermite_table(n)
    return QuadratureRule(
        nodes=x * math.sqrt(2.0 * hbar),
        weights=w / math.sqrt(math.pi),
        exact_degree=2 * n - 1,
        total_mass=1.0,
    )


def complex_gaussian(
    n: int,
    scale: float = 1.0,
    weight: str = "mu",
    window: float | None = None,
    n_window: int | None = None,
) -> QuadratureRule:
    """Tensor rule on the complex plane against mu_t or nu_h.

    For ``weight="mu"`` the rule is an n x n tensor of rescaled Hermite rules,
    one per real direction; it reproduces the moment table

        integral of z^n conj(z)^m dmu_t = delta_{n,m} n! t^n

    exactly whenever n + m <= 2n - 1, and has total mass 1.

    For ``weight="nu"`` the density is Gaussian only in Im z, so the rule
    pairs a Hermite rule in Im z with a Gauss-Legendre rule of ``n_window``
    points (default ``6 n + 40``) on the Re z window [-W, W], W defaulting to
    ``12 sqrt(scale)``.  Integrands used elsewhere in the package decay like
    exp(-x^2 / 2h) in Re z, so the window truncation error is below
    exp(-72) of their scale.  Total mass equals the strip mass 2W.
    """
    if n < 1:
        raise ValueError("need at least one node per direction")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if weight == "mu":
        x, w = _hermite_table(n)
        x = x * math.sqrt(scale)
        w = w / math.sqrt(math.pi)
        nodes = (x[:, None] + 1j * x[None, :]).ravel()
        weights = (w[:, None] * w[None, :]).ravel()
        return QuadratureRule(
            nodes=nodes,
            weights=weights,
            exact_degree=2 * n - 1,
            total_mass=1.0,
        )
    if weight == "nu":
        half_width = 12.0 * math.sqrt(scale) if window is None else float(window)
        if half_width <= 0.0:
            raise ValueError("window must be positive")
        m = 6 * n + 40 if n_window is None else int(n_window)
        if m < 1:
            raise ValueError("need at least one window node")
        y, wy = _hermite_table(n)
        y = y * math.sqrt(scale)
        wy = wy / math.sqrt(math.pi)
        u, wu = _legendre_table(m)
        x = u * half_width
        wx = wu * half_width
        nodes = (x[:, None] + 1j * y[None, :]).ravel()
        weights = (wx[:, None] * wy[None, :]).ravel()
        return QuadratureRule(
            nodes=nodes,
            weights=weights,
            exact_degree=2 * n - 1,
            total_mass=2.0 * half_width,
        )
    raise ValueError(f"unknown weight tag {weight!r}, expected 'mu' or 'nu'")


def disk_rule(n_radial: int, n_angular: int, a: float = 0.0) -> QuadratureRule:
    """Rule for integral of f(z) (1 - |z|^2)^a dA over the unit disk.

    Radial direction: Gauss-Jacobi with exponent a in the s = r^2 variable,
    which builds the weight into the rule instead of resolving an endpoint
    singularity.  Angular direction: equispaced trapezoid, exact for
    trigonometric polynomials of degree <= n_angular - 1.  Monomials
    z^n conj(z)^m integrate exactly for n + m <= min(2 n_radial - 1,
    n_angular - 1); total mass is pi / (a + 1).
    """
    if a <= -1.0:
        raise ValueError("weight exponent must satisfy a > -1")
    if n_radial < 1 or n_angular < 1:
        raise ValueError("need at least one node per direction")
    xj, wj = _jacobi_table(n_radial, float(a))
    s = 0.5 * (xj + 1.0)
    # int_0^1 (1-s)^a h(s) ds = 2^(-a-1) sum w_j h(s_j); the half below is the
    # Jacobian of dA = (1/2) ds dtheta
    wr = 0.5 * (2.0 ** (-a - 1.0)) * wj
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    nodes = (np.sqrt(s)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(wr * wt, n_angular)
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        exact_degree=min(2 * n_radial - 1, n_angular - 1),
        total_mass=math.pi / (a + 1.0),
    )


def su2_class_rule(n: int) -> QuadratureRule:
    """Class-function rule: (2/pi) int_0^pi f(theta) sin^2(theta) dtheta.

    Conjugation-invariant functions of a special unitary 2x2 matrix depend
    only on the eigenvalue angle theta, and the full Haar integral reduces to
    this weighted interval integral.  Nodes theta_j = j pi/(n+1) with weights
    2 sin^2(theta_j)/(n+1) make the rule exact for even trigonometric
    polynomials of degree <= 2n - 1 (this is the Chebyshev second-kind rule
    in the variable cos theta); total mass is 1.
    """
    if n < 1:
        raise ValueError("need at least one node")
    j = np.arange(1, n + 1)
    theta = j * np.pi / (n + 1)
    weights = 2.0 * np.sin(theta) ** 2 / (n + 1)
    return QuadratureRule(
        nodes=theta,
        weights=weights,
        exact_degree=2 * n - 1,
        total_mass=1.0,
    )
