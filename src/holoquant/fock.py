"""Truncated harmonic-oscillator matrices on the Hermite basis.

Everything acts on the span of the first N normalized Hermite functions

    e_0(x) = (pi h)^(-1/4) exp(-x^2 / 2h),
    e_{n+1}(x) = sqrt(2/(h(n+1))) x e_n(x) - sqrt(n/(n+1)) e_{n-1}(x),

where h is the semiclassical scale.  The ladder matrices satisfy

    a e_n = sqrt(h n) e_{n-1},      a_dag e_n = sqrt(h (n+1)) e_{n+1},

with e_N dropped, and X = (a + a_dag)/sqrt(2), P = (a - a_dag)/(i sqrt(2)).
No finite pair of matrices can satisfy [X, P] = i h I globally (take traces),
so the canonical commutation relations hold exactly on the leading
(N-1) x (N-1) block only; the (N-1, N-1) corner of [a, a_dag] equals
h (1 - N).  All assertions in this package respect that truncation edge.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "MAX_HERMITE_INDEX",
    "FockOperator",
    "HermiteBasisSpec",
    "commutator",
    "hermite_eval",
    "hermite_table",
    "ladder",
    "position_momentum",
    "svn_ladder_identities",
    "tensor",
]

MAX_HERMITE_INDEX = 512


@dataclasses.dataclass(frozen=True)
class HermiteBasisSpec:
    """Finite Hermite basis: indices 0..truncation-1 at semiclassical scale."""

    truncation: int
    scale: float = 1.0

    def __post_init__(self):
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")


@dataclasses.dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix tagged with its truncation and scale.

    Arithmetic stays inside a fixed (truncation, scale) pair; mixing two
    different bases raises instead of silently broadcasting.
    """

    entries: np.ndarray
    truncation: int
    scale: float

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (self.truncation, self.truncation):
            raise ValueError("entries must be a truncation x truncation matrix")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def _like(self, entries: np.ndarray) -> "FockOperator":
        return FockOperator(entries, self.truncation, self.scale)

    def _check_compatible(self, other: "FockOperator"):
        if self.truncation != other.truncation or self.scale != other.scale:
            raise ValueError("operators live on different bases")

    def adjoint(self) -> "FockOperator":
        return self._like(self.entries.conj().T)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check_compatible(other)
        return self._like(self.entries + other.entries)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._check_compatible(other)
        return self._like(self.entries - other.entries)

    def __neg__(self) -> "FockOperator":
        return self._like(-self.entries)

    def __mul__(self, c) -> "FockOperator":
        return self._like(self.entries * complex(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check_compatible(other)
        return self._like(self.entries @ other.entries)

    def power(self, k: int) -> "FockOperator":
        if k < 0:
            raise ValueError("only nonnegative powers are defined")
        return self._like(np.linalg.matrix_power(self.entries, k))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(vec, dtype=complex)

    @classmethod
    def zeros(cls, spec: HermiteBasisSpec) -> "FockOperator":
        return cls(np.zeros((spec.truncation, spec.truncation), dtype=complex),
                   spec.truncation, spec.scale)

    @classmethod
    def identity(cls, spec: HermiteBasisSpec) -> "FockOperator":
        return cls(np.eye(spec.truncation, dtype=complex),
                   spec.truncation, spec.scale)


def ladder(spec: HermiteBasisSpec):
    """Annihilation and creation matrices (a, a_dag) on the truncated basis."""
    n = np.arange(1, spec.truncation)
    amp = np.sqrt(spec.scale * n)
    a = np.zeros((spec.truncation, spec.truncation), dtype=complex)
    a[n - 1, n] = amp
    lower = FockOperator(a, spec.truncation, spec.scale)
    return lower, lower.adjoint()


def position_momentum(spec: HermiteBasisSpec):
    """Self-adjoint X = (a + a_dag)/sqrt(2) and P = (a - a_dag)/(i sqrt(2))."""
    a, a_dag = ladder(spec)
    x = (a + a_dag) * (1.0 / math.sqrt(2.0))
    p = (a - a_dag) * (1.0 / (1j * math.sqrt(2.0)))
    return x, p


def hermite_table(nmax: int, x, scale: float = 1.0) -> np.ndarray:
    """Values of e_0 .. e_nmax at x, stacked along a new leading axis.

    The recurrence runs on the normalized functions themselves, so entries
    stay O(1) and no factorial or Gaussian overflow occurs for large n.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    x = np.asarray(x, dtype=float)
    first = (math.pi * scale) ** -0.25 * np.exp(-x * x / (2.0 * scale))
    return _hermite_rows(first, x, scale, nmax)


def _hermite_rows(first, x: np.ndarray, scale: float, nmax: int) -> np.ndarray:
    """Rows 0..nmax of the module docstring's recurrence, from row ``first``."""
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = first
    if nmax >= 1:
        out[1] = math.sqrt(2.0 / scale) * x * out[0]
    for n in range(1, nmax):
        out[n + 1] = (math.sqrt(2.0 / (scale * (n + 1))) * x * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out


def hermite_eval(n: int, x, scale: float = 1.0, max_index: int = MAX_HERMITE_INDEX):
    """n-th normalized Hermite function at x (scalar or array)."""
    if not 0 <= n < max_index:
        raise ValueError(f"Hermite index must lie in [0, {max_index})")
    values = hermite_table(n, x, scale)[n]
    return values if values.ndim else float(values)


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    """AB - BA on a common basis."""
    a._check_compatible(b)
    return a @ b - b @ a


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    """Kronecker product for building two-mode operators on demand."""
    if a.scale != b.scale:
        raise ValueError("tensor factors must share the semiclassical scale")
    return FockOperator(np.kron(a.entries, b.entries),
                        a.truncation * b.truncation, a.scale)


def svn_ladder_identities(spec: HermiteBasisSpec) -> dict:
    """Check the number-operator and repeated-creation identities.

    With E = a_dag a and v_n = a_dag^n e_0, verifies on indices n, m < N - 1:
    E e_n = h n e_n, a v_n = h n v_{n-1}, and <v_n, v_m> = delta_{nm} h^n n!.
    Returns the individual and overall maximum residuals.
    """
    n_max = spec.truncation - 1
    h = spec.scale
    a, a_dag = ladder(spec)
    energy = (a_dag @ a).entries
    target = np.diag(h * np.arange(spec.truncation, dtype=float))
    energy_res = float(np.max(np.abs(energy[:n_max, :n_max] - target[:n_max, :n_max])))

    vecs = np.zeros((n_max + 1, spec.truncation), dtype=complex)
    vecs[0, 0] = 1.0
    for n in range(n_max):
        vecs[n + 1] = a_dag.apply(vecs[n])

    lowering_res = 0.0
    for n in range(n_max):
        lhs = a.apply(vecs[n])
        rhs = h * n * vecs[n - 1] if n >= 1 else np.zeros_like(lhs)
        lowering_res = max(lowering_res, float(np.max(np.abs(lhs - rhs))))

    gram = vecs[:n_max] @ vecs[:n_max].conj().T
    expect = np.diag([h**n * math.factorial(n) for n in range(n_max)])
    gram_res = float(np.max(np.abs(gram - expect)))

    return {
        "energy_eigenvalue": energy_res,
        "lowering": lowering_res,
        "gram": gram_res,
        "max_residual": max(energy_res, lowering_res, gram_res),
    }
