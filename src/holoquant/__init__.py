"""Holomorphic function spaces, Gaussian-kernel transforms, and quantization.

The package is organized bottom-up:

* ``quadrature``: integration rules for the Gaussian, disk, and class-function
  measures everything else integrates against.
* ``fock``: truncated ladder and position/momentum matrices on the Hermite
  basis, plus stable Hermite-function evaluation.
* ``holospace``: reproducing kernels, pointwise bounds, translations, and
  disk-automorphism actions for four holomorphic Hilbert spaces.
* ``transform``: the Gaussian integral transforms between position wave
  functions and holomorphic functions, coherent states, and Husimi densities.
* ``quantize``: ordering schemes for polynomial phase-space symbols, Toeplitz
  operators, and the bridges between them.
* ``su2``: irreducible representations, characters, the heat kernel, and the
  analogous transform on the special unitary group.
* ``cli``: command-line front end.
* ``invariants``: the self-test registry that ``holoquant selftest`` and the
  acceptance suite both run; loaded only when one of them asks for it.
"""

from .fock import (
    FockOperator,
    HermiteBasisSpec,
    commutator,
    hermite_eval,
    hermite_table,
    ladder,
    position_momentum,
    svn_ladder_identities,
    tensor,
)
from .holospace import (
    HoloFunction,
    SpaceSpec,
    holo_equiv,
    kernel,
    kernel_from_basis,
    monomial_norms,
    pointwise_bound_check,
    reproduce,
    su11_act,
    translate,
)
from .quadrature import (
    QuadratureRule,
    complex_gaussian,
    disk_rule,
    gauss_hermite,
    su2_class_rule,
)
from .quantize import (
    OrderingScheme,
    PhaseSymbol,
    SBSymbol,
    antiwick_toeplitz_bridge,
    commutator_vs_poisson,
    exact_block_size,
    heat_smooth,
    husimi_moment,
    phase_to_sb,
    poisson,
    quantize,
    toeplitz,
    toeplitz_coherent_form,
    toeplitz_quadrature,
    weyl_moment,
)
from .su2 import (
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
from .transform import (
    WaveFunction,
    coherent_overlap,
    coherent_state,
    ground_state_transform,
    husimi,
    husimi_mass,
    invert_C,
    resolution_check,
    transform_A,
    transform_B,
    transform_C,
)

__all__ = [
    "AlgebraElement",
    "FockOperator",
    "GroupElement",
    "HermiteBasisSpec",
    "HoloFunction",
    "OrderingScheme",
    "PeterWeylCoeffs",
    "PhaseSymbol",
    "QuadratureRule",
    "SBSymbol",
    "SpaceSpec",
    "WaveFunction",
    "antiwick_toeplitz_bridge",
    "character",
    "coherent_overlap",
    "coherent_state",
    "commutator",
    "commutator_vs_poisson",
    "complex_gaussian",
    "disk_rule",
    "euler_matrix",
    "euler_quadrature",
    "exact_block_size",
    "gauss_hermite",
    "ground_state_transform",
    "group_exp",
    "heat_kernel",
    "heat_smooth",
    "hermite_eval",
    "hermite_table",
    "holo_equiv",
    "husimi",
    "husimi_mass",
    "husimi_moment",
    "invert_C",
    "kernel",
    "kernel_from_basis",
    "ladder",
    "monomial_norms",
    "phase_to_sb",
    "pointwise_bound_check",
    "poisson",
    "polar_decompose",
    "position_momentum",
    "quantize",
    "rep_matrix",
    "reproduce",
    "resolution_check",
    "su11_act",
    "su2_class_rule",
    "svn_ladder_identities",
    "tensor",
    "toeplitz",
    "toeplitz_coherent_form",
    "toeplitz_quadrature",
    "transform_A",
    "transform_B",
    "transform_C",
    "transform_group",
    "transform_group_quadrature",
    "translate",
    "weyl_moment",
]

__version__ = "1.0.0"
