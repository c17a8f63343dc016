"""Gaussian integral transforms between wave functions and holomorphic functions.

Three unitary transforms share one heat-kernel integrand (scale h throughout):

* ``transform_A``: L^2(R, dx) -> holomorphic L^2(C, mu_h).  On the Hermite
  basis it is pure bookkeeping, e_n -> z^n / sqrt(h^n n!), so it is computed
  on coefficients and is an exact isometry there.  ``transform_A_integral``
  evaluates the defining integral
      (pi h)^(-1/4) int exp((-z^2 + 2 sqrt(2) x z - x^2)/2h) f(x) dx
  by quadrature as an independent route to the same values.

* ``transform_B``: L^2(R, rho_h dx) -> holomorphic L^2(C, mu_h), with
  rho_h(x) = (2 pi h)^(-1/2) exp(-x^2/2h), defined by
      (B f)(z) = (2 pi h)^(-1/2) int exp(-(z - x)^2/2h) f(x) dx.
  The orthonormal source basis is q_n(x) = He_n(x/sqrt(h))/sqrt(n!), and
  B q_n = z^n / sqrt(h^n n!).  Two quadrature routes are provided: the
  completed square centered at Re z, and the factored form
      exp(-z^2/2h) int exp(z x / h) f(x) rho_h(x) dx.

* ``transform_C``: the same convolution integral applied to an L^2(R, dx)
  function, landing in the strip-weight space with
      nu_h(z) = (pi h)^(-1/2) exp(-(Im z)^2 / h),
  kernel K(z, w) = (4 pi h)^(-1/2) exp(-(z - conj w)^2 / 4h), and the
  pointwise link (C f)(z) = (4 pi h)^(-1/4) exp(-z^2/4h) (A f)(z / sqrt 2).

The ground-state map divides by e_0 and rescales the axis, which on
coefficients is the identity: it just retags an L^2(dx) expansion as an
L^2(rho_h dx) expansion (e_n goes exactly to q_n).

Coherent states ψ_z have Hermite coefficients conj((C e_n)(z)), so that
<ψ_z, f> = (C f)(z); their overlaps reproduce the strip kernel, and

    H_ψ(x, p) = |C ψ(x - i p)|^2 (pi h)^(-1/2) exp(-p^2/h)

is the Husimi density: nonnegative, total mass ||ψ||^2 (the substitution
z = x - i p turns the mass integral into the nu_h-norm of C ψ), and bounded
by (2 pi h)^(-1) ||ψ||^2 via the pointwise kernel bound.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fock import _hermite_rows, hermite_table
from .holospace import HoloFunction, SpaceSpec, _orthonormal_powers
from .quadrature import QuadratureRule, gauss_hermite

__all__ = [
    "WaveFunction",
    "coherent_overlap",
    "coherent_state",
    "ground_state_transform",
    "holomorphy_residual",
    "husimi",
    "husimi_mass",
    "invert_C",
    "resolution_check",
    "transform_A",
    "transform_A_integral",
    "transform_B",
    "transform_B_factored",
    "transform_C",
    "transform_C_from_A",
]

_REPRESENTATIONS = ("lebesgue", "gaussian-weight")


def _gaussian_weight_table(nmax: int, x, scale: float) -> np.ndarray:
    """Orthonormal polynomials q_n(x) = He_n(x/sqrt h)/sqrt(n!) for rho_h."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    u = x / math.sqrt(scale)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = u
    for n in range(1, nmax):
        out[n + 1] = (u * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


@dataclasses.dataclass(frozen=True)
class WaveFunction:
    """Finite expansion in the orthonormal basis of the tagged measure.

    ``lebesgue`` expansions use the Hermite functions e_n in L^2(dx);
    ``gaussian-weight`` expansions use the polynomials q_n in L^2(rho_h dx).
    Both bases are orthonormal, so the squared norm is the coefficient sum
    either way.
    """

    hermite_coefficients: np.ndarray
    scale: float = 1.0
    representation: str = "lebesgue"

    def __post_init__(self):
        coef = np.array(self.hermite_coefficients, dtype=complex)
        if coef.ndim != 1 or len(coef) == 0:
            raise ValueError("coefficients must form a nonempty vector")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.representation not in _REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        coef.setflags(write=False)
        object.__setattr__(self, "hermite_coefficients", coef)

    @property
    def degree(self) -> int:
        return len(self.hermite_coefficients) - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.hermite_coefficients) ** 2))

    def __call__(self, x):
        c = self.hermite_coefficients
        if self.representation == "lebesgue":
            table = hermite_table(len(c) - 1, x, self.scale)
        else:
            table = _gaussian_weight_table(len(c) - 1, x, self.scale)
        # the one dot call np.tensordot(c, table, axes=(0, 0)) makes, without
        # its Python-level axis bookkeeping; same BLAS call, same bytes
        flat = table.reshape(len(c), -1)
        return np.dot(c.reshape(1, -1), flat).reshape(table.shape[1:])


def _require(psi: WaveFunction, representation: str, op: str):
    if psi.representation != representation:
        raise ValueError(f"{op} expects a {representation!r} expansion, "
                         f"got {psi.representation!r}")


def _monomial_isometry(coef: np.ndarray, scale: float) -> np.ndarray:
    # c_n -> c_n / sqrt(h^n n!), built by the running-product recurrence
    out = np.array(coef, dtype=complex)
    factor = 1.0
    for n in range(1, len(out)):
        factor /= math.sqrt(scale * n)
        out[n] *= factor
    return out


def transform_A(psi: WaveFunction) -> HoloFunction:
    """Coefficient form of the Lebesgue-side transform: e_n -> normalized z^n."""
    _require(psi, "lebesgue", "transform_A")
    coef = _monomial_isometry(psi.hermite_coefficients, psi.scale)
    return HoloFunction(coef, SpaceSpec.segal_bargmann(psi.scale))


def transform_A_integral(psi: WaveFunction, z, rule: QuadratureRule):
    """Defining integral of the A transform, evaluated by quadrature.

    ``rule`` must integrate rho_h at the wave function's scale; the x^2 part
    of the kernel is folded into that weight, leaving the bounded factor
    exp((-z^2 + 2 sqrt(2) x z)/2h) on the nodes.
    """
    _require(psi, "lebesgue", "transform_A_integral")
    h = psi.scale
    z = np.asarray(z, dtype=complex)
    x = rule.nodes
    values = psi(x)
    kern = np.exp((-z[..., None] ** 2 + 2.0 * math.sqrt(2.0) * x * z[..., None])
                  / (2.0 * h))
    out = (math.pi * h) ** -0.25 * math.sqrt(2.0 * math.pi * h) \
        * ((kern * values) @ rule.weights)
    return out if out.ndim else complex(out)


def _heat_nodes(scale: float, n_nodes: int):
    rule = gauss_hermite(n_nodes, scale)
    return rule.nodes, rule.weights


def transform_B(psi: WaveFunction, z, n_nodes: int = 120):
    """Heat convolution of a gaussian-weight expansion, square completed.

    Writing z = a + ib and centering the Gaussian at a, the integral becomes
    e^{b^2/2h} times the rho_h average of e^{i b y / h} f(a + y), which a
    Gauss-Hermite rule handles directly.
    """
    _require(psi, "gaussian-weight", "transform_B")
    h = psi.scale
    z = np.asarray(z, dtype=complex)
    y, w = _heat_nodes(h, n_nodes)
    a = z.real[..., None]
    b = z.imag[..., None]
    integrand = np.exp(1j * b * y / h) * psi(a + y)
    out = np.exp(b[..., 0] ** 2 / (2.0 * h)) * (integrand @ w)
    return out if out.ndim else complex(out)


def transform_B_factored(psi: WaveFunction, z, n_nodes: int = 120):
    """Same transform through the factored form e^{-z^2/2h} E[e^{zx/h} f]."""
    _require(psi, "gaussian-weight", "transform_B_factored")
    h = psi.scale
    z = np.asarray(z, dtype=complex)
    x, w = _heat_nodes(h, n_nodes)
    values = psi(x)
    out = np.exp(-z[..., None] ** 2 / (2.0 * h)) * np.exp(z[..., None] * x / h)
    out = (out * values) @ w
    return out if out.ndim else complex(out)


def transform_C(psi: WaveFunction, z, n_nodes: int = 110):
    """Heat convolution of a Lebesgue expansion.

    The expansion's own Gaussian combines with the kernel's into the
    rho_{h/2} weight, so the quadrature sees only the polynomial part of
    psi times exp(z x / h).
    """
    _require(psi, "lebesgue", "transform_C")
    h = psi.scale
    z = np.asarray(z, dtype=complex)
    rule = gauss_hermite(n_nodes, h / 2.0)
    x = rule.nodes
    c = psi.hermite_coefficients
    # polynomial part p_n = e_n * exp(x^2/2h): same recurrence, Gaussian-free seed
    table = _hermite_rows((math.pi * h) ** -0.25, x, h, len(c) - 1)
    # tensordot's single dot call, as in WaveFunction.__call__
    flat = table.reshape(len(c), -1)
    poly = np.dot(c.reshape(1, -1), flat).reshape(table.shape[1:])
    kern = np.exp(z[..., None] * x / h)
    prefactor = np.exp(-z**2 / (2.0 * h)) * math.sqrt(math.pi * h) \
        / math.sqrt(2.0 * math.pi * h)
    out = prefactor * ((kern * poly) @ rule.weights)
    return out if out.ndim else complex(out)


def transform_C_from_A(psi: WaveFunction, z, rule: QuadratureRule):
    """Second route to the C values through the pointwise A-C link."""
    _require(psi, "lebesgue", "transform_C_from_A")
    h = psi.scale
    z = np.asarray(z, dtype=complex)
    a_vals = transform_A_integral(psi, z / math.sqrt(2.0), rule)
    return (4.0 * math.pi * h) ** -0.25 * np.exp(-z**2 / (4.0 * h)) * a_vals


def _c_transform_of_basis(count: int, z, scale: float) -> np.ndarray:
    """(C e_n)(z) for n < count: (4 pi h)^(-1/4) e^{-z^2/4h} (z/sqrt2)^n/sqrt(h^n n!)."""
    z = np.asarray(z, dtype=complex)
    return _orthonormal_powers((4.0 * math.pi * scale) ** -0.25
                               * np.exp(-z**2 / (4.0 * scale)), z, 2.0 * scale, count)


def invert_C(f_values, x: float, rule: QuadratureRule):
    """Recover psi(x) from boundary values of its C transform,

        psi(x) = (2 pi h)^(-d/2) int (C psi)(x + i p) e^{-p^2/2h} dp.

    ``rule`` must be the Gauss-Hermite rule for rho_h; its weights carry
    exactly the (2 pi h)^(-1/2) e^{-p^2/2h} factor, so the recovery is the
    plain weighted sum of ``f_values`` at the nodes.  The integrand grows
    like e^{p^2/4h}, half the weight's decay rate, so the rule converges as
    the node count grows.
    """
    values = np.asarray([f_values(p) for p in rule.nodes]) \
        if callable(f_values) else np.asarray(f_values)
    return complex(rule.weights @ values)


def ground_state_transform(psi: WaveFunction) -> WaveFunction:
    """Divide by the ground state and rescale the axis by sqrt 2.

    The composite map sends e_n to q_n exactly, so the coefficients are
    untouched and only the measure tag changes; unitarity is exact.
    """
    _require(psi, "lebesgue", "ground_state_transform")
    return WaveFunction(psi.hermite_coefficients, psi.scale, "gaussian-weight")


_COHERENT_TAIL_TOL = 1e-12


def _poisson_tail_truncation(mean: float, tol: float) -> int:
    """Smallest N whose Chernoff bound e^-m (e m/N)^N on P(X >= N) is <= tol.

    X is Poisson with mean m > 0; the bound decreases in N beyond m, so a
    doubling search followed by bisection finds N in O(log m) steps.
    """
    target = math.log(tol)

    def enough(n):
        return n > mean and n - mean + n * math.log(mean / n) <= target

    lo, hi = 0, max(1, math.ceil(mean))
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def coherent_state(z: complex, scale: float = 1.0, truncation: int = 64) -> WaveFunction:
    """Hermite expansion of ψ_z, the state with <ψ_z, f> = (C f)(z).

    Coefficients are conj((C e_n)(z)); their squared moduli are proportional
    to a Poisson distribution with mean |z|^2/2h, so the default truncation
    covers |z| up to about 6.5 sqrt(h).  The squared norm of the kept
    coefficients is checked against the closed form <ψ_z, ψ_z>; if more than
    1e-12 of it is dropped, ValueError names a truncation that is enough.
    """
    if truncation < 1:
        raise ValueError("truncation must be positive")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    z = complex(z)
    coef = np.conj(_c_transform_of_basis(truncation, z, scale))
    kept = float(np.sum(np.abs(coef) ** 2))
    exact = float(coherent_overlap(z, z, scale).real)
    # written so that a NaN or infinite norm also fails the check
    if not 1.0 - kept / exact <= _COHERENT_TAIL_TOL:
        if not math.isfinite(exact) or abs(coef[0]) < np.finfo(float).tiny:
            raise ValueError(
                "z = %r at h = %g puts the coherent state's norm or leading "
                "coefficient outside the float range; no truncation is enough"
                % (z, scale))
        mean = abs(z) ** 2 / (2.0 * scale)
        raise ValueError(
            "truncation %d drops more than %.0e of the coherent state's norm "
            "at |z|^2/2h = %.6g; truncation %d is enough"
            % (truncation, _COHERENT_TAIL_TOL, mean,
               _poisson_tail_truncation(mean, _COHERENT_TAIL_TOL)))
    return WaveFunction(coef, scale, "lebesgue")


def coherent_overlap(z: complex, w: complex, scale: float):
    """Closed-form overlap <ψ_z, ψ_w>, the strip-space kernel at (z, w)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return (4.0 * math.pi * scale) ** -0.5 * np.exp(-(z - np.conj(w)) ** 2
                                                    / (4.0 * scale))


def husimi(psi: WaveFunction, grid) -> np.ndarray:
    """Husimi density at phase points x + i p (x position, p momentum).

    H(x, p) = |C psi(x - i p)|^2 (pi h)^(-1/2) e^{-p^2/h}.  The C values come
    from the closed coefficient form, so every output is an exact squared
    modulus times a positive weight: nonnegativity cannot be lost to
    quadrature error.  Requires ||psi|| = 1 within 1e-10.
    """
    _require(psi, "lebesgue", "husimi")
    if abs(psi.norm_sq() - 1.0) > 1e-10:
        raise ValueError("husimi requires a normalized state")
    h = psi.scale
    grid = np.asarray(grid, dtype=complex)
    x = grid.real
    p = grid.imag
    table = _c_transform_of_basis(len(psi.hermite_coefficients), x - 1j * p, h)
    c_vals = np.tensordot(psi.hermite_coefficients, table, axes=(0, 0))
    out = np.abs(c_vals) ** 2 * (math.pi * h) ** -0.5 * np.exp(-p**2 / h)
    return out if out.ndim else float(out)


def husimi_mass(psi: WaveFunction, n_p: int = 60, n_x: int = 481,
                x_halfwidth: float | None = None) -> float:
    """Total Husimi mass by Gauss-Hermite in p and a wide trapezoid in x.

    The p weight e^{-p^2/h} net of the density's own e^{+p^2/2h} growth is
    exactly the rho_{h/2} shape, so the p integral uses that rule.  The x
    window defaults to (12 + 2 sqrt(deg)) sqrt(h), beyond which the density
    of a degree-deg expansion is below 1e-12 of its peak.
    """
    _require(psi, "lebesgue", "husimi_mass")
    h = psi.scale
    deg = psi.degree
    if x_halfwidth is None:
        x_halfwidth = (12.0 + 2.0 * math.sqrt(deg)) * math.sqrt(h)
    # the rho_{h/2} rule's weights are exactly (pi h)^(-1/2) e^{-p^2/h} dp,
    # the full p-dependent factor of the density beyond |C psi|^2
    p_rule = gauss_hermite(n_p, h / 2.0)
    x = np.linspace(-x_halfwidth, x_halfwidth, n_x)
    dx = x[1] - x[0]
    table = _c_transform_of_basis(len(psi.hermite_coefficients),
                                  x[:, None] - 1j * p_rule.nodes[None, :], h)
    c_vals = np.tensordot(psi.hermite_coefficients, table, axes=(0, 0))
    per_x = np.abs(c_vals) ** 2 @ p_rule.weights
    return float(np.sum(per_x) * dx)


def resolution_check(f: WaveFunction, g: WaveFunction, rule: QuadratureRule) -> float:
    """Residual of the coherent-state resolution of the identity.

    Computes the quadrature of <f, ψ_z><ψ_z, g> against nu_h over the rule's
    nodes and returns its distance from <f, g>.
    """
    _require(f, "lebesgue", "resolution_check")
    _require(g, "lebesgue", "resolution_check")
    if f.scale != g.scale:
        raise ValueError("states live at different scales")
    count = max(len(f.hermite_coefficients), len(g.hermite_coefficients))
    table = _c_transform_of_basis(count, rule.nodes, f.scale)
    cf = np.tensordot(f.hermite_coefficients,
                      table[:len(f.hermite_coefficients)], axes=(0, 0))
    cg = np.tensordot(g.hermite_coefficients,
                      table[:len(g.hermite_coefficients)], axes=(0, 0))
    integral = rule.weights @ (np.conj(cf) * cg)
    fc = np.pad(f.hermite_coefficients, (0, count - len(f.hermite_coefficients)))
    gc = np.pad(g.hermite_coefficients, (0, count - len(g.hermite_coefficients)))
    exact = np.vdot(fc, gc)
    return float(abs(integral - exact))


def holomorphy_residual(func, z: complex, step: float = 1e-3) -> float:
    """Central-difference Cauchy-Riemann residual |df/dconj(z)| at z."""
    z = complex(z)
    fx = (func(z + step) - func(z - step)) / (2.0 * step)
    fy = (func(z + 1j * step) - func(z - 1j * step)) / (2.0 * step)
    return float(abs(0.5 * (fx + 1j * fy)))
