"""Midpoint-grid counterparts of the closed-form machinery.

The operator S and the inverse kernel are discretized by a midpoint
Nystrom rule, and the transfer matrix of the discrete system stands in for
the canonical system's matrizant.  ``dkinv verify`` runs its composition,
positivity and Weyl-inequality checks on these; the closed-form modules
never call into this one.

Discrete objects follow a component-major layout: a block vector sample f
on nodes x_0..x_{N-1} is flattened as f[i*N + a] = f_i(x_a), so operators
on L^2-valued p-vectors become (p*N) x (p*N) matrices.

Like the rest of the package it runs on numpy alone: the positivity
certificate is ``np.linalg.cholesky``, Lanczos solves its small tridiagonal
with ``np.linalg.eigh``, the transfer matrix takes one ``np.linalg.solve``
of S^H and a vectorized scan for the midpoint resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .inversion import InverseKernel
from .kernels import Realization
# spectral_norm is read as discretization.spectral_norm by the benchmark's
# composition check.
from .linalg import (_start_vector, exchange_j, exp_samples, frob,
                     operator_norm, spectral_norm)

__all__ = [
    "DiscreteOperator",
    "composition_residual",
    "discrete_matrizant",
    "discretize_inverse",
    "discretize_operator",
    "lanczos_extremes",
    "positivity_spectrum",
    "profile_samples",
]

# Krylov dimension after which lanczos_extremes gives up.
LANCZOS_MAX_DIM = 300
# Lanczos tests convergence at every step up to this dimension, then at
# every 4th: each test is a dense O(k^3) eigh of the k x k tridiagonal.
LANCZOS_EVERY_STEP = 32


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
    p, d = r.p, r.diag.d
    coords = np.kron(d, xs)
    comp = np.repeat(np.arange(p), count)
    # Rows theta2[:, i]^H e^{i y beta^H} and columns e^{-i y beta^H}
    # theta1[:, i] at y = d_i x_a: one exp_samples call for each sign.
    gen = 1j * r.beta.conj().T
    row_block = np.einsum("av,avw->aw", r.theta2.conj().T[comp],
                          exp_samples(gen, coords))
    col_block = np.einsum("avw,aw->va", exp_samples(gen, -coords),
                          r.theta1.T[comp])

    matrix = row_block @ col_block         # valid where d_i x_a >= d_j x_b
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
    Hermitian ``herm`` lies below ``shift``.  The shift is applied to
    ``herm`` in place and its diagonal restored from a copy afterwards, so
    the factor is the one n x n array allocated.  It factors herm.T, which
    is conj(herm) with the same spectrum: numpy's lower Cholesky is faster
    on that Fortran-ordered view.
    """
    diag = np.diag_indices_from(herm)
    saved = herm[diag]
    herm[diag] -= shift
    try:
        np.linalg.cholesky(herm.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        herm[diag] = saved
    return True


def lanczos_extremes(h: np.ndarray) -> Optional[Tuple[float, float]]:
    """Extreme Ritz values (theta_min, theta_max) of a Hermitian matrix.

    Lanczos with full reorthogonalization from the start vector of
    :func:`spectral_norm`, stopping once the residual bound |beta_k y_k| of
    both extreme Ritz values is at most 1e-12 max(1, |theta|).  Returns None
    when that does not happen within LANCZOS_MAX_DIM steps.  Ritz values
    interlace, theta_min >= lambda_min and theta_max <= lambda_max, and a
    converged one lies within its bound of some eigenvalue; but a Krylov
    space that misses the extreme eigenvectors converges to inner
    eigenvalues, so a caller that needs the true minimum must certify it.
    The test runs at every step up to LANCZOS_EVERY_STEP, then at every 4th
    step, the last one and on breakdown (beta_k = 0).
    """
    size = h.shape[0]
    steps = min(LANCZOS_MAX_DIM, size)
    basis = np.empty((steps, size), dtype=complex)  # Lanczos vectors as rows
    # The tridiagonal, lower triangle only; row k + 1 takes beta_k.
    tri = np.zeros((steps + 1, steps))
    ends = [0, -1]
    q = _start_vector(size)
    for k in range(steps):
        basis[k] = q
        active = basis[:k + 1]
        w = h @ q
        coef = active.conj() @ w
        tri[k, k] = coef[k].real
        w -= coef @ active
        w -= (active.conj() @ w) @ active  # second pass: twice is enough
        beta = np.linalg.norm(w)
        if (k < LANCZOS_EVERY_STEP or k % 4 == 3 or k == steps - 1
                or beta == 0.0):
            theta, vecs = np.linalg.eigh(tri[:k + 1, :k + 1])
            bound = beta * np.abs(vecs[-1, ends])
            if np.all(bound <= 1e-12 * np.maximum(1.0, np.abs(theta[ends]))):
                return float(theta[0]), float(theta[-1])
        tri[k + 1, k] = beta
        q = w / beta
    return None


def positivity_spectrum(op: DiscreteOperator) -> Tuple[float, float]:
    """Extreme eigenvalues of the (Hermitian) discretized operator.

    Refuses matrices whose anti-Hermitian part exceeds discretization dust;
    the remaining symmetrization only removes rounding noise, and is
    skipped when the matrix is exactly Hermitian, as the S_N of
    :func:`discretize_operator` is.  The extremes come from Lanczos
    (:func:`lanczos_extremes`).  The minimum theta is certified by a
    Cholesky factor of H - (theta - delta) I with
    delta = 1e-10 max(1, |theta|), so the true minimum lies in
    [theta - delta, theta]; the maximum is a Ritz value, a lower bound on
    the true maximum.
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
    operator identity and the transfer function below.  Phi1 is
    :meth:`Realization.edge_profile` at all nodes, in the same layout.
    """
    xs = np.asarray(xs, dtype=float)
    return np.hstack([r.edge_profile(xs),
                      np.repeat(np.eye(r.p), xs.size, axis=0)])


def _midpoint_resolvents(samples: np.ndarray, d: np.ndarray, h: float,
                         lams: np.ndarray) -> np.ndarray:
    """(I - lambda A)^{-1} samples for every lambda, A = i*D (x) tri.

    ``samples`` is component-major, (p*N) x m; tri = h (L + I/2), with L
    the strictly lower all-ones matrix, is the midpoint rule for
    f -> integral_0^x f.  Block i, with c = i*lambda*d_i*h, solves
    (1 - c/2) y_a - c s_a = f_a for the running sum s_a = y_0 + ... +
    y_{a-1}: forward substitution, run as one scan over the nodes for every
    lambda and component at once.  Returns shape (len(lams), p*N, m).
    """
    p = d.size
    count = samples.shape[0] // p
    coef = 1j * h * np.multiply.outer(lams, d)[:, :, None]  # (L, p, 1)
    alpha = 1.0 - 0.5 * coef
    kappa = coef / alpha
    # ys[a, k, i] is row a of block i for lams[k]; it starts as f_a / alpha.
    ys = samples.reshape(p, count, -1).transpose(1, 0, 2)[:, None] / alpha
    total = np.zeros_like(ys[0])
    for row in ys:
        row += kappa * total
        total += row
    return ys.transpose(1, 2, 0, 3).reshape(lams.size, p * count, -1)


def discrete_matrizant(r: Realization, op: DiscreteOperator,
                       lams: Sequence[complex]) -> np.ndarray:
    """Transfer-function values of the discrete system, one per lambda.

    W_N = I + i*lambda*h * J Pi^H S^{-1} (I - lambda A)^{-1} Pi, the exact
    matrizant of the discretized problem; it converges to the canonical
    system's matrizant at the right endpoint as the grid refines.  ``op`` is
    the Nystrom matrix S of ``r``.  Pi^H S^{-1} = X^H for S^H X = Pi, one
    solve for all lambdas, taken as S^T conj(X) = conj(Pi) so that no
    conjugate copy of S is made; an exactly singular S raises
    ``LinAlgError``.  A = i*D (x) tri is block-diagonal in the
    component-major layout, and :func:`_midpoint_resolvents` applies
    (I - lambda A)^{-1}.  Returns shape (len(lams), 2p, 2p).
    """
    lams = np.asarray(lams, dtype=complex)
    pi = profile_samples(r, op.nodes)
    j_pi_s = exchange_j(r.p) @ np.linalg.solve(op.matrix.T, pi.conj()).T
    resolvents = _midpoint_resolvents(pi, r.diag.d, op.weight, lams)
    return np.eye(2 * r.p) \
        + 1j * op.weight * lams[:, None, None] * (j_pi_s @ resolvents)
