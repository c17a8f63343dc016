"""Phase-space polynomial algebra, ordering schemes, and Toeplitz operators.

Classical observables are polynomials in position and momentum variables
(x_1..x_d, p_1..p_d) carrying the Poisson bracket

    {f, g} = sum_k df/dx_k dg/dp_k - df/dp_k dg/dx_k.

A quantization ordering turns each monomial into an operator on the truncated
Hermite basis.  Five schemes are provided for one degree of freedom:

* pdo-standard: x^n p^m -> X^n P^m (all X factors to the left),
* pdo-reverse:  x^n p^m -> P^m X^n,
* weyl:         the average of all distinct orderings of n X's and m P's,
* wick:         rewrite in u = x - ip, v = x + ip and map u^j v^k to
                (X - iP)^j (X + iP)^k (creation factors to the left),
* anti-wick:    the same rewrite mapped to (X + iP)^k (X - iP)^j.

Anti-Wick ordering is also reachable through Toeplitz operators: multiply by
a symbol on the Gaussian holomorphic space and project back.  In the
orthonormal monomial basis z^n / sqrt(n! t^n) the generator matrices are

    T_z[n+1, n] = sqrt(t (n+1)),      T_zbar = (T_z)^adjoint,

and a general polynomial symbol maps through zbar^a z^b -> (T_zbar)^a (T_z)^b.
Substituting x = (z + zbar)/sqrt(2), p = i(z - zbar)/sqrt(2) into a
phase-space symbol and building the Toeplitz matrix reproduces the anti-Wick
matrix on the leading block; `antiwick_toeplitz_bridge` measures that residual.

The anti-Wick and Weyl schemes are linked by Gaussian smoothing of symbols:
quantizing f anti-Wick equals quantizing exp(scale Laplacian / 4) f in the
Weyl scheme, with the Laplacian taken over all 2d phase-space variables.
`heat_smooth` applies the (terminating) series, and the pair weyl_moment /
husimi_moment exposes the same identity at the level of state expectations.
"""

import dataclasses
import enum
import itertools
import math
import types
from typing import Mapping, Tuple

import numpy as np

from .fock import FockOperator, HermiteBasisSpec, position_momentum
from .holospace import HoloFunction, _orthonormal_powers
from .quadrature import QuadratureRule, gauss_hermite
from .transform import WaveFunction, husimi

__all__ = [
    "OrderingScheme",
    "PhaseSymbol",
    "SBSymbol",
    "antiwick_toeplitz_bridge",
    "commutator_vs_poisson",
    "exact_block_size",
    "heat_smooth",
    "husimi_moment",
    "phase_to_sb",
    "poisson",
    "quantize",
    "toeplitz",
    "toeplitz_coherent_form",
    "toeplitz_quadrature",
    "weyl_moment",
]


def _as_powers(value, dimension: int) -> Tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        value = (int(value),)
    powers = tuple(int(v) for v in value)
    if len(powers) != dimension or any(v < 0 for v in powers):
        raise ValueError("powers must be %d nonnegative integers" % dimension)
    return powers


def _pruned(terms: dict) -> dict:
    return {key: complex(c) for key, c in terms.items() if c != 0.0}


@dataclasses.dataclass(frozen=True)
class PhaseSymbol:
    """Polynomial in (x, p) variables: terms map (x powers, p powers) to
    coefficients.  Zero coefficients are pruned on construction."""

    terms: Mapping[Tuple[Tuple[int, ...], Tuple[int, ...]], complex]
    dimension: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        cleaned = {}
        for (n, m), c in dict(self.terms).items():
            key = (_as_powers(n, self.dimension), _as_powers(m, self.dimension))
            cleaned[key] = cleaned.get(key, 0.0) + complex(c)
        object.__setattr__(self, "terms",
                           types.MappingProxyType(_pruned(cleaned)))

    @classmethod
    def zero(cls, dimension: int = 1) -> "PhaseSymbol":
        return cls({}, dimension)

    @classmethod
    def monomial(cls, coefficient, x_power=0, p_power=0,
                 dimension: int = 1) -> "PhaseSymbol":
        return cls({(x_power, p_power): coefficient}, dimension)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(n) + sum(m) for n, m in self.terms)

    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c in self.terms.values())

    def _check_same(self, other: "PhaseSymbol"):
        if self.dimension != other.dimension:
            raise ValueError("symbols have different dimensions")

    def __add__(self, other: "PhaseSymbol") -> "PhaseSymbol":
        self._check_same(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0.0) + c
        return PhaseSymbol(merged, self.dimension)

    def __sub__(self, other: "PhaseSymbol") -> "PhaseSymbol":
        return self + (-1.0) * other

    def __neg__(self) -> "PhaseSymbol":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PhaseSymbol):
            self._check_same(other)
            out = {}
            for (n1, m1), c1 in self.terms.items():
                for (n2, m2), c2 in other.terms.items():
                    key = (tuple(a + b for a, b in zip(n1, n2)),
                           tuple(a + b for a, b in zip(m1, m2)))
                    out[key] = out.get(key, 0.0) + c1 * c2
            return PhaseSymbol(out, self.dimension)
        return PhaseSymbol({key: complex(other) * c
                            for key, c in self.terms.items()}, self.dimension)

    __rmul__ = __mul__

    def differentiate(self, variable: str, axis: int = 0) -> "PhaseSymbol":
        if variable not in ("x", "p"):
            raise ValueError("variable must be 'x' or 'p'")
        slot = 0 if variable == "x" else 1
        out = {}
        for key, c in self.terms.items():
            powers = key[slot]
            k = powers[axis]
            if k == 0:
                continue
            dropped = powers[:axis] + (k - 1,) + powers[axis + 1:]
            new_key = (dropped, key[1]) if slot == 0 else (key[0], dropped)
            out[new_key] = out.get(new_key, 0.0) + k * c
        return PhaseSymbol(out, self.dimension)

    def evaluate(self, x, p):
        if self.dimension != 1:
            raise ValueError("pointwise evaluation is for dimension 1")
        x = np.asarray(x)
        p = np.asarray(p)
        total = np.zeros(np.broadcast(x, p).shape, dtype=complex)
        for (n, m), c in self.terms.items():
            total += c * x ** n[0] * p ** m[0]
        return total


class OrderingScheme(enum.Enum):
    PDO_STANDARD = "pdo-standard"
    PDO_REVERSE = "pdo-reverse"
    WEYL = "weyl"
    WICK = "wick"
    ANTI_WICK = "anti-wick"


def poisson(f: PhaseSymbol, g: PhaseSymbol) -> PhaseSymbol:
    """Exact polynomial Poisson bracket {f, g}."""
    f._check_same(g)
    out = PhaseSymbol.zero(f.dimension)
    for axis in range(f.dimension):
        out = out + f.differentiate("x", axis) * g.differentiate("p", axis)
        out = out - f.differentiate("p", axis) * g.differentiate("x", axis)
    return out


def exact_block_size(truncation: int, *symbols: PhaseSymbol) -> int:
    """Size of the leading block unaffected by basis truncation.

    Quantizing a degree-k symbol at truncation N corrupts only the last k
    rows and columns, so claims of the form "equals on the leading block"
    hold on the first N - max(degree) indices.
    """
    degree = max((s.degree() for s in symbols), default=0)
    block = truncation - degree
    if block <= 0:
        raise ValueError("truncation %d too small for degree %d"
                         % (truncation, degree))
    return block


def _uv_rewrite(f: PhaseSymbol) -> dict:
    # exact change of basis x = (u + v)/2, p = i(u - v)/2 with u = x - ip,
    # v = x + ip; returns {(u power, v power): coefficient}
    out = {}
    for (n, m), c in f.terms.items():
        n, m = n[0], m[0]
        for j in range(n + 1):
            xc = math.comb(n, j) * 0.5 ** n
            for k in range(m + 1):
                pc = math.comb(m, k) * (0.5j) ** m * (-1.0) ** (m - k)
                key = (j + k, (n - j) + (m - k))
                out[key] = out.get(key, 0.0) + c * xc * pc
    return _pruned(out)


def _weyl_monomial(x_mat: np.ndarray, p_mat: np.ndarray, n: int,
                   m: int) -> np.ndarray:
    size = x_mat.shape[0]
    if n + m == 0:
        return np.eye(size, dtype=complex)
    total = np.zeros((size, size), dtype=complex)
    for x_slots in itertools.combinations(range(n + m), n):
        word = np.eye(size, dtype=complex)
        for slot in range(n + m):
            word = word @ (x_mat if slot in x_slots else p_mat)
        total += word
    return total / math.comb(n + m, n)


def quantize(scheme: OrderingScheme, f: PhaseSymbol,
             spec: HermiteBasisSpec) -> FockOperator:
    """Apply an ordering scheme to a polynomial symbol, one degree of freedom.

    The result is exact on the leading block of exact_block_size(truncation,
    f) indices; an error is raised when even that block would be empty.
    """
    if f.dimension != 1:
        raise ValueError("quantization is implemented for dimension 1")
    exact_block_size(spec.truncation, f)
    x_op, p_op = position_momentum(spec)
    x_mat, p_mat = x_op.entries, p_op.entries
    total = np.zeros((spec.truncation, spec.truncation), dtype=complex)

    if scheme in (OrderingScheme.WICK, OrderingScheme.ANTI_WICK):
        minus = x_mat - 1j * p_mat
        plus = x_mat + 1j * p_mat
        for (j, k), c in _uv_rewrite(f).items():
            left = np.linalg.matrix_power(minus, j)
            right = np.linalg.matrix_power(plus, k)
            if scheme is OrderingScheme.WICK:
                total += c * (left @ right)
            else:
                total += c * (right @ left)
        return FockOperator(total, spec.truncation, spec.scale)

    for (n, m), c in f.terms.items():
        n, m = n[0], m[0]
        if scheme is OrderingScheme.PDO_STANDARD:
            word = (np.linalg.matrix_power(x_mat, n)
                    @ np.linalg.matrix_power(p_mat, m))
        elif scheme is OrderingScheme.PDO_REVERSE:
            word = (np.linalg.matrix_power(p_mat, m)
                    @ np.linalg.matrix_power(x_mat, n))
        elif scheme is OrderingScheme.WEYL:
            word = _weyl_monomial(x_mat, p_mat, n, m)
        else:
            raise ValueError("unknown ordering scheme")
        total += c * word
    return FockOperator(total, spec.truncation, spec.scale)


def heat_smooth(f: PhaseSymbol, scale: float) -> PhaseSymbol:
    """Apply exp(scale Laplacian / 4) termwise; the series terminates.

    The Laplacian acts on all 2d phase-space variables, so each step lowers
    the total degree by two and polynomial inputs stay polynomial.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    out = f
    layer = f
    k = 0
    factor = 1.0
    while layer.terms:
        k += 1
        factor *= scale / (4.0 * k)
        next_layer = PhaseSymbol.zero(f.dimension)
        for axis in range(f.dimension):
            next_layer = next_layer + layer.differentiate("x", axis).differentiate("x", axis)
            next_layer = next_layer + layer.differentiate("p", axis).differentiate("p", axis)
        layer = next_layer
        if layer.terms:
            out = out + factor * layer
    return out


def commutator_vs_poisson(f: PhaseSymbol, g: PhaseSymbol,
                          spec: HermiteBasisSpec,
                          scheme: OrderingScheme = OrderingScheme.WEYL) -> dict:
    """Compare (1/i hbar)[Q(f), Q(g)] with Q({f, g}) on the exact block.

    Dirac's correspondence makes the two sides equal when deg f + deg g <= 2;
    higher degrees genuinely disagree, and the returned report carries both
    leading blocks so the obstruction can be inspected rather than asserted
    away.
    """
    q_f = quantize(scheme, f, spec)
    q_g = quantize(scheme, g, spec)
    q_bracket = quantize(scheme, poisson(f, g), spec)
    block = exact_block_size(spec.truncation, f * g)
    lhs = ((q_f @ q_g - q_g @ q_f).entries / (1j * spec.scale))[:block, :block]
    rhs = q_bracket.entries[:block, :block]
    return {
        "commutator_side": lhs,
        "bracket_side": rhs,
        "difference": lhs - rhs,
        "block_size": block,
        "max_abs_difference": float(np.max(np.abs(lhs - rhs))),
    }


@dataclasses.dataclass(frozen=True)
class SBSymbol:
    """Polynomial in z and conj(z): terms map (z power, zbar power) to
    coefficients."""

    terms: Mapping[Tuple[int, int], complex]

    def __post_init__(self):
        cleaned = {}
        for (b, a), c in dict(self.terms).items():
            if b < 0 or a < 0:
                raise ValueError("powers must be nonnegative")
            key = (int(b), int(a))
            cleaned[key] = cleaned.get(key, 0.0) + complex(c)
        object.__setattr__(self, "terms",
                           types.MappingProxyType(_pruned(cleaned)))

    @classmethod
    def monomial(cls, coefficient, z_power=0, zbar_power=0) -> "SBSymbol":
        return cls({(z_power, zbar_power): coefficient})

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape, dtype=complex)
        for (b, a), c in self.terms.items():
            total += c * z ** b * np.conj(z) ** a
        return total


def _shift_matrix(truncation: int, scale: float) -> np.ndarray:
    n = np.arange(1, truncation)
    z_mat = np.zeros((truncation, truncation), dtype=complex)
    z_mat[n, n - 1] = np.sqrt(scale * n)
    return z_mat


def toeplitz(phi: SBSymbol, truncation: int, scale: float) -> FockOperator:
    """Matrix of multiply-then-project in the orthonormal monomial basis.

    Multiplication by z is the lower shift with entries sqrt(scale (n+1));
    its adjoint implements scale d/dz; a general term zbar^a z^b becomes
    the derivative power composed after the multiplication power.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    z_mat = _shift_matrix(truncation, scale)
    d_mat = z_mat.conj().T
    total = np.zeros((truncation, truncation), dtype=complex)
    for (b, a), c in phi.terms.items():
        total += c * (np.linalg.matrix_power(d_mat, a)
                      @ np.linalg.matrix_power(z_mat, b))
    return FockOperator(total, truncation, scale)


def toeplitz_quadrature(phi: SBSymbol, truncation: int, scale: float,
                        rule: QuadratureRule) -> np.ndarray:
    """Cross-check path: entries <u_m, phi u_n> by Gaussian quadrature."""
    nodes = np.asarray(rule.nodes, dtype=complex)
    table = _orthonormal_powers(1.0, nodes, scale, truncation)
    weighted = table.conj() * (rule.weights * phi.evaluate(nodes))
    return weighted @ table.T


def phase_to_sb(f: PhaseSymbol) -> SBSymbol:
    """Exact substitution x = (z + zbar)/sqrt(2), p = i(z - zbar)/sqrt(2).

    This is the symbol correspondence under which Toeplitz operators on the
    Gaussian space realize the anti-Wick ordering.
    """
    if f.dimension != 1:
        raise ValueError("the bridge is implemented for dimension 1")
    root = math.sqrt(0.5)
    out = {}
    for (n, m), c in f.terms.items():
        n, m = n[0], m[0]
        base = c * root ** (n + m) * 1j ** m
        for j in range(n + 1):
            xc = math.comb(n, j)
            for k in range(m + 1):
                pc = math.comb(m, k) * (-1.0) ** (m - k)
                key = (j + k, (n - j) + (m - k))
                out[key] = out.get(key, 0.0) + base * xc * pc
    return SBSymbol(out)


def antiwick_toeplitz_bridge(f: PhaseSymbol, spec: HermiteBasisSpec) -> float:
    """Max-abs leading-block gap between the Toeplitz route and anti-Wick.

    The coefficient-level transform carrying the Hermite basis to the
    orthonormal monomials is the identity matrix, so the two operator
    matrices are compared entrywise.
    """
    t_mat = toeplitz(phase_to_sb(f), spec.truncation, spec.scale).entries
    q_mat = quantize(OrderingScheme.ANTI_WICK, f, spec).entries
    block = exact_block_size(spec.truncation, f)
    return float(np.max(np.abs((t_mat - q_mat)[:block, :block])))


def weyl_moment(psi: WaveFunction, f: PhaseSymbol):
    """Expectation <psi, Q_weyl(f) psi> on a truncation large enough to be
    exact; real for real symbols."""
    if psi.representation != "lebesgue":
        raise ValueError("weyl_moment expects a lebesgue-representation state")
    if abs(psi.norm_sq() - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    coef = psi.hermite_coefficients
    size = len(coef) + max(f.degree(), 0) + 2
    spec = HermiteBasisSpec(size, psi.scale)
    op = quantize(OrderingScheme.WEYL, f, spec)
    padded = np.zeros(size, dtype=complex)
    padded[:len(coef)] = coef
    value = complex(np.vdot(padded, op.apply(padded)))
    return value.real if f.is_real() else value


def husimi_moment(psi: WaveFunction, f: PhaseSymbol, n_nodes: int = None):
    """Phase-space expectation of f against the Husimi density.

    The density is a bivariate Gaussian times a polynomial, so a tensor
    Gauss-Hermite grid with enough nodes integrates it exactly; the Gaussian
    factors are divided back out of the sampled density before reweighting.
    Equality with weyl_moment(psi, heat_smooth(f, scale)) is the smoothing
    theorem this pair of functions exists to exhibit.
    """
    if f.dimension != 1:
        raise ValueError("husimi_moment is implemented for dimension 1")
    h = psi.scale
    degree = f.degree() + 2 * psi.degree
    if n_nodes is None:
        n_nodes = degree // 2 + 4
    rule = gauss_hermite(n_nodes, h)
    x = rule.nodes
    grid = x[:, None] + 1j * x[None, :]
    density = husimi(psi, grid)
    gauss = np.exp(-x ** 2 / (2.0 * h)) / math.sqrt(2.0 * math.pi * h)
    integrand = density / gauss[:, None] / gauss[None, :]
    values = f.evaluate(x[:, None], x[None, :]) * integrand
    total = complex(rule.weights @ values @ rule.weights)
    return total.real if f.is_real() else total


def toeplitz_coherent_form(phi: SBSymbol, f: HoloFunction, g: HoloFunction,
                           rule: QuadratureRule) -> float:
    """Max pairwise gap between three routes to <F, T_phi G>.

    Routes: the Toeplitz matrix acting on orthonormal-basis coefficients;
    direct quadrature of <F, phi G>; and the coherent-vector form, where both
    factors are resynthesized from the truncated kernel expansion at each
    node before the same quadrature is applied.
    """
    space = f.space
    if space.kind != "segal-bargmann" or g.space != space:
        raise ValueError("both functions must live in one Gaussian space")
    if space.dimension != 1:
        raise ValueError("implemented for dimension 1")
    t = space.scale
    z_deg = max((b for b, _ in phi.terms), default=0)
    zb_deg = max((a for _, a in phi.terms), default=0)
    size = max(f.degree, g.degree) + z_deg + zb_deg + 2

    def on_coefficients(func):
        out = np.zeros(size, dtype=complex)
        scaling = 1.0
        for n, c in enumerate(func.coefficients):
            out[n] = c * scaling
            scaling *= math.sqrt(t * (n + 1.0))
        return out

    a_vec = on_coefficients(f)
    b_vec = on_coefficients(g)
    matrix_route = complex(np.vdot(a_vec, toeplitz(phi, size, t).apply(b_vec)))

    nodes = np.asarray(rule.nodes, dtype=complex)
    phi_vals = phi.evaluate(nodes)
    quad_route = complex(np.sum(
        rule.weights * np.conj(f(nodes)) * phi_vals * g(nodes)))

    table = _orthonormal_powers(1.0, nodes, t, size)
    f_nodes = a_vec @ table
    g_nodes = b_vec @ table
    coherent_route = complex(np.sum(
        rule.weights * phi_vals * np.conj(f_nodes) * g_nodes))

    return max(abs(matrix_route - quad_route),
               abs(matrix_route - coherent_route),
               abs(quad_route - coherent_route))
