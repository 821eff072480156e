"""Midpoint-grid counterparts of the closed-form machinery.

The operator S and the inverse kernel are discretized by a midpoint
Nystrom rule, and the transfer matrix of the discrete system stands in for
the canonical system's matrizant.  ``dkinv verify`` runs its composition,
positivity and Weyl-inequality checks on these; the closed-form modules
never call into this one.

Discrete objects follow a component-major layout: a block vector sample f
on nodes x_0..x_{N-1} is flattened as f[i*N + a] = f_i(x_a), so operators
on L^2-valued p-vectors become (p*N) x (p*N) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import expm as _batch_expm
from scipy.linalg import cholesky, lu_factor, lu_solve, solve_triangular

from .inversion import InverseKernel
from .kernels import Realization
# spectral_norm is read as discretization.spectral_norm by the benchmark's
# composition check.
from .linalg import (exchange_j, exp_samples, frob, lanczos_extremes,
                     operator_norm, spectral_norm)

__all__ = [
    "DiscreteOperator",
    "composition_residual",
    "discrete_matrizant",
    "discretize_inverse",
    "discretize_operator",
    "positivity_spectrum",
    "profile_samples",
]


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Midpoint-rule matrix I + h*K on component-major node samples."""

    nodes: np.ndarray    # midpoint nodes, shape (N,)
    weight: float        # uniform quadrature weight h = l / N
    matrix: np.ndarray   # (p*N) x (p*N)
    components: int      # p

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _midpoint_nodes(length: float, count: int) -> Tuple[np.ndarray, float]:
    h = length / count
    return (np.arange(count) + 0.5) * h, h


def discretize_operator(r: Realization, count: int) -> DiscreteOperator:
    """Nystrom matrix of S = I + integral operator on [0, l].

    The kernel block (i, j) is sampled at (d_i x_a - d_j x_b); values with
    positive argument come from the exponential form, negative ones from its
    Hermitian reflection, and near-collisions (within 1e-13 of the interval
    scale) are averaged so the matrix is exactly Hermitian whenever the data
    produce a Hermitian kernel.
    """
    if count < 8:
        raise ValueError("need at least 8 quadrature nodes")
    xs, h = _midpoint_nodes(r.length, count)
    n, p, d = r.n, r.p, r.diag.d
    beta_h = r.beta.conj().T

    row_block = np.empty((p * count, n), dtype=complex)
    col_block = np.empty((n, p * count), dtype=complex)
    for i in range(p):
        args = 1j * (d[i] * xs)[:, None, None] * beta_h[None, :, :]
        row_block[i * count:(i + 1) * count, :] = np.einsum(
            "v,avw->aw", np.conj(r.theta2[:, i]), _batch_expm(args))
        col_block[:, i * count:(i + 1) * count] = np.einsum(
            "avw,w->va", _batch_expm(-args), r.theta1[:, i])

    matrix = row_block @ col_block         # valid where d_i x_a >= d_j x_b
    coords = np.kron(d, xs)
    diff = coords[:, None] - coords[None, :]
    tol = 1e-13 * d[0] * max(r.length, 1.0)
    below, near = diff < -tol, np.abs(diff) <= tol
    # Mirror (conjugate-transpose) entries are read from the valid side,
    # which neither write touches.
    mirror = matrix.T[below]
    matrix[below] = np.conjugate(mirror, out=mirror)
    matrix[near] = 0.5 * (matrix[near] + matrix.T[near].conj())
    matrix *= h
    matrix[np.diag_indices(p * count)] += 1.0
    return DiscreteOperator(nodes=xs, weight=h, matrix=matrix, components=p)


def discretize_inverse(kernel: InverseKernel, count: int) -> DiscreteOperator:
    """Nystrom matrix of I + inverse kernel, on the same midpoint nodes."""
    if count < 8:
        raise ValueError("need at least 8 quadrature nodes")
    r = kernel.realization
    xs, h = _midpoint_nodes(r.length, count)
    tol = 1e-13 * r.diag.d[0] * max(r.length, 1.0)
    matrix = kernel.block_values(xs, xs, line_tol=tol)
    matrix *= h
    matrix[np.diag_indices(r.p * count)] += 1.0
    return DiscreteOperator(nodes=xs, weight=h, matrix=matrix,
                            components=r.p)


def composition_residual(kernel: InverseKernel, op: DiscreteOperator) -> float:
    """||T_N S_N - I||_2 for S_N = ``op`` and T_N = I + inverse kernel.

    T_N is built on the nodes of ``op`` and lives only for this call.  The
    norm comes from power iteration on the matvecs v -> T(Sv) - v and
    w -> conj((conj(w) T) S) - w, so neither the product nor a conjugate
    transpose is formed.
    """
    t_mat = discretize_inverse(kernel, op.nodes.size).matrix
    s_mat = op.matrix
    return operator_norm(lambda v: t_mat @ (s_mat @ v) - v,
                         lambda w: ((w.conj() @ t_mat) @ s_mat).conj() - w,
                         op.size)


def _bounded_below(herm: np.ndarray, shift: float) -> bool:
    """True iff herm - shift*I has a Cholesky factor.

    By Sylvester's law of inertia success proves that no eigenvalue of the
    Hermitian ``herm`` lies below ``shift``.  The factor overwrites one copy:
    herm.copy().T is conj(herm), Fortran-ordered with the same spectrum.
    """
    shifted = herm.copy().T
    shifted[np.diag_indices_from(shifted)] -= shift
    try:
        cholesky(shifted, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def positivity_spectrum(op: DiscreteOperator) -> Tuple[float, float]:
    """Extreme eigenvalues of the (Hermitian) discretized operator.

    Refuses matrices whose anti-Hermitian part exceeds discretization dust;
    the remaining symmetrization only removes rounding noise, and is
    skipped when the matrix is exactly Hermitian, as the S_N of
    :func:`discretize_operator` is.  The extremes come from Lanczos
    (:func:`lanczos_extremes`).  The minimum theta is certified by a Cholesky factor of H - (theta - delta) I with delta =
    1e-10 max(1, |theta|), so the true minimum lies in [theta - delta,
    theta]; the maximum is a Ritz value, a lower bound on the true maximum.
    A dense ``eigvalsh`` answers instead when Lanczos does not converge, the
    certificate fails, or theta <= delta: near a singular or indefinite
    operator the sign of the minimum is rounding noise.
    """
    herm = op.matrix
    if not np.array_equal(herm, herm.conj().T):
        skew = frob(herm - herm.conj().T)
        if skew > 1e-8 * (1.0 + frob(herm)):
            raise ValueError(
                f"matrix is not Hermitian (skew part {skew:.3e}); "
                "positivity is undefined"
            )
        herm = 0.5 * (herm + herm.conj().T)
    ritz = lanczos_extremes(herm)
    if ritz is not None:
        low, high = ritz
        delta = 1e-10 * max(1.0, abs(low))
        if low > delta and _bounded_below(herm, low - delta):
            return low, high
    evals = np.linalg.eigvalsh(herm)
    return float(evals[0]), float(evals[-1])


def profile_samples(r: Realization, xs: np.ndarray) -> np.ndarray:
    """Component-major samples of the block profile [Phi1(x), indicator].

    Row (i, a) holds [Phi1(x_a)[i, :], e_i^T]; this (p*N) x 2p matrix is the
    discrete stand-in for the pair of profiles that generate both the
    operator identity and the transfer function below.  Phi1 is the edge
    profile of :meth:`Realization.edge_profile`, row i being (d_i/2) e_i +
    theta2[:, i]^H Psi(d_i x) theta1 with Psi(u) = int_0^u e^{iw beta^H} dw,
    read off :func:`exp_samples` of ``r.primitive_generator`` at all p*N
    points u = d_i x_a.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.min() < 0 or xs.max() > r.length * (1 + 1e-12):
        raise ValueError(f"profile points outside [0, {r.length}]")
    count = xs.size
    n, p, d = r.n, r.p, r.diag.d
    psi = exp_samples(r.primitive_generator, np.kron(d, xs))[:, :n, n:]
    comp = np.repeat(np.arange(p), count)
    rows = np.arange(p * count)
    out = np.zeros((p * count, 2 * p), dtype=complex)
    out[:, :p] = np.einsum("av,avw->aw", r.theta2.conj().T[comp], psi) \
        @ r.theta1
    out[rows, comp] += 0.5 * d[comp]
    out[rows, p + comp] = 1.0
    return out


def _midpoint_integrator(count: int, h: float) -> np.ndarray:
    """Lower-triangular midpoint rule for f -> integral_0^x f on the nodes."""
    return h * (np.tril(np.ones((count, count)), -1) + 0.5 * np.eye(count))


def discrete_matrizant(r: Realization, op: DiscreteOperator,
                       lams: Sequence[complex]) -> np.ndarray:
    """Transfer-function values of the discrete system, one per lambda.

    W_N = I + i*lambda*h * J Pi^H S^{-1} (I - lambda A)^{-1} Pi, the exact
    matrizant of the discretized problem; it converges to the canonical
    system's matrizant at the right endpoint as the grid refines.  ``op`` is
    the Nystrom matrix S of ``r``.  Pi^H S^{-1} = (S^{-H} Pi)^H is one LU
    solve for all lambdas.  A = i*D (x) tri is block-diagonal in the
    component-major layout, so I - lambda A is solved one lower-triangular
    block I - i*lambda*d_i*tri at a time.  Returns shape (len(lams), 2p, 2p).
    """
    count = op.nodes.size
    pi = profile_samples(r, op.nodes)
    tri = _midpoint_integrator(count, op.weight)
    factor = lu_factor(op.matrix)
    if not np.all(np.diag(factor[0])):
        raise np.linalg.LinAlgError("Nystrom matrix is exactly singular")
    # J Pi^H S^{-1}, from the conjugate-transposed solve S^H X = Pi.
    j_pi_s = exchange_j(r.p) @ lu_solve(factor, pi, trans=2).conj().T
    out = np.empty((len(lams), 2 * r.p, 2 * r.p), dtype=complex)
    resolvent = np.empty_like(pi)
    for k, lam in enumerate(lams):
        for i, d_i in enumerate(r.diag.d):
            rows = slice(i * count, (i + 1) * count)
            resolvent[rows] = solve_triangular(
                np.eye(count) - 1j * lam * d_i * tri, pi[rows], lower=True)
        out[k] = np.eye(2 * r.p) \
            + 1j * lam * op.weight * (j_pi_s @ resolvent)
    return out
