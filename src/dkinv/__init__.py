"""Closed-form inversion of dilation-difference kernel operators.

The package works with operators S = I + K on vector-valued L^2(0, l),
where the kernel block k_ij depends only on d_i*x - d_j*t for positive
dilation factors d_1 >= ... >= d_p and admits a finite exponential
realization k(x) = theta2^H e^{i x beta^H} theta1.  For such data:

* :mod:`dkinv.kernels` holds the realization data and kernel evaluators;
* :mod:`dkinv.inversion` builds the fundamental solution of the associated
  linear system in closed form and from it the inverse kernel of S;
* :mod:`dkinv.canonical` evaluates the rational Weyl function, its spectral
  data, and recovers the Hamiltonian of the matching canonical system;
* :mod:`dkinv.discretization` re-derives the operator, its inverse and the
  transfer matrix on midpoint grids as the independent cross-check that
  ``dkinv verify`` runs;
* :mod:`dkinv.cli` exposes the batch pipelines.
"""

from .kernels import (
    DiagonalStructure,
    Realization,
    RealizationIdentityError,
)
from .inversion import (
    FundamentalSolution,
    InverseKernel,
    SingularCornerReport,
    SingularOperatorError,
    branch_projector,
    null_basis_values,
)
from .canonical import (
    DefectiveEigenvalueError,
    HamiltonianGrid,
    HerglotzData,
    IntervalSingularityError,
    SimilarityFactor,
    WeylFunction,
    WeylPoleError,
    apply_triangular_adjoint,
    hamiltonian_factor,
    herglotz_data,
    inverse_kernel_for_interval,
    recover_hamiltonian,
    recovery_correction,
    similarity_factor,
    weyl_value,
)

__all__ = [
    "DefectiveEigenvalueError",
    "DiagonalStructure",
    "FundamentalSolution",
    "HamiltonianGrid",
    "HerglotzData",
    "IntervalSingularityError",
    "InverseKernel",
    "Realization",
    "RealizationIdentityError",
    "SimilarityFactor",
    "SingularCornerReport",
    "SingularOperatorError",
    "WeylFunction",
    "WeylPoleError",
    "apply_triangular_adjoint",
    "branch_projector",
    "hamiltonian_factor",
    "herglotz_data",
    "inverse_kernel_for_interval",
    "null_basis_values",
    "recover_hamiltonian",
    "recovery_correction",
    "similarity_factor",
    "weyl_value",
]

__version__ = "0.1.0"
