"""Grid-based oracles for the closed-form machinery.

Everything in this module deliberately avoids the closed-form inversion
path: operators are discretized by a midpoint Nystrom rule, the fundamental
solution is re-integrated with classical Runge-Kutta, and the Weyl function
is reproduced by direct Fourier quadrature of the kernel column.  Tests
compare both sides, and ``dkinv verify`` runs the Nystrom and discrete
matrizant checks from here; the closed-form modules never call into it.

Discrete objects follow a component-major layout: a block vector sample f
on nodes x_0..x_{N-1} is flattened as f[i*N + a] = f_i(x_a), so operators
on L^2-valued p-vectors become (p*N) x (p*N) matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm as _batch_expm
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from .canonical import weyl_value
from .inversion import FundamentalSolution, InverseKernel
from .kernels import Realization
from .linalg import as_matrix, exchange_j, frob, spectral_norm

__all__ = [
    "DiscreteOperator",
    "Rk4Fundamental",
    "discrete_matrizant",
    "discretize_inverse",
    "discretize_operator",
    "fourier_transform_residual",
    "identity_residual",
    "node_gram",
    "positivity_spectrum",
    "reverse_cholesky",
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
    block = kernel.block_values(xs, xs, line_tol=tol)
    matrix = np.eye(r.p * count, dtype=complex) + h * block
    return DiscreteOperator(nodes=xs, weight=h, matrix=matrix,
                            components=r.p)


def positivity_spectrum(op: DiscreteOperator) -> Tuple[float, float]:
    """Extreme eigenvalues of the (Hermitian) discretized operator.

    Refuses matrices whose anti-Hermitian part exceeds discretization dust;
    the remaining symmetrization only removes rounding noise.
    """
    m = op.matrix
    skew = frob(m - m.conj().T)
    if skew > 1e-8 * (1.0 + frob(m)):
        raise ValueError(
            f"matrix is not Hermitian (skew part {skew:.3e}); "
            "positivity is undefined"
        )
    evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(evals[0]), float(evals[-1])


def profile_samples(r: Realization, xs: np.ndarray) -> np.ndarray:
    """Component-major samples of the block profile [Phi1(x), indicator].

    Row (i, a) holds [Phi1(x_a)[i, :], e_i^T]; this (p*N) x 2p matrix is the
    discrete stand-in for the pair of profiles that generate both the
    operator identity and the transfer function below.
    """
    count = xs.size
    p = r.p
    out = np.zeros((p * count, 2 * p), dtype=complex)
    for a, x in enumerate(xs):
        prof = r.edge_profile(float(x))
        for i in range(p):
            out[i * count + a, :p] = prof[i, :]
            out[i * count + a, p + i] = 1.0
    return out


def _midpoint_integrator(count: int, h: float) -> np.ndarray:
    """Lower-triangular midpoint rule for f -> integral_0^x f on the nodes."""
    return h * (np.tril(np.ones((count, count)), -1) + 0.5 * np.eye(count))


def _volterra_matrix(r: Realization, count: int, h: float) -> np.ndarray:
    """Discrete A = i * D (x) (lower-triangular midpoint integration)."""
    return 1j * np.kron(np.diag(r.diag.d), _midpoint_integrator(count, h))


def identity_residual(r: Realization, count: int) -> float:
    """Relative residual of the discrete operator identity.

    Checks A S - S A^H = i h Pi J Pi^H in the scaled spectral norm, where A
    is the discrete Volterra integrator, S the Nystrom matrix and Pi the
    profile samples.  For data satisfying the structure identity this decays
    with the grid; otherwise it stalls at an O(1) level.
    """
    op = discretize_operator(r, count)
    a_mat = _volterra_matrix(r, count, op.weight)
    pi = profile_samples(r, op.nodes)
    jmat = exchange_j(r.p)
    lhs = a_mat @ op.matrix - op.matrix @ a_mat.conj().T
    rhs = 1j * op.weight * (pi @ jmat @ pi.conj().T)
    return spectral_norm(lhs - rhs) / spectral_norm(op.matrix)


def discrete_matrizant(r: Realization, op: DiscreteOperator,
                       lams: Sequence[complex]) -> np.ndarray:
    """Transfer-function values of the discrete system, one per lambda.

    W_N = I + i*lambda*h * J Pi^H S^{-1} (I - lambda A)^{-1} Pi, the exact
    matrizant of the discretized problem; it converges to the canonical
    system's matrizant at the right endpoint as the grid refines.  ``op`` is
    the Nystrom matrix S of ``r``; Pi is sampled and S is LU-factored once
    for all lambdas.  A = i*D (x) tri is block-diagonal in the
    component-major layout, so I - lambda A is solved one lower-triangular
    block I - i*lambda*d_i*tri at a time.  Returns shape (len(lams), 2p, 2p).
    """
    count = op.nodes.size
    pi = profile_samples(r, op.nodes)
    tri = _midpoint_integrator(count, op.weight)
    factor = lu_factor(op.matrix)
    if not np.all(np.diag(factor[0])):
        raise np.linalg.LinAlgError("Nystrom matrix is exactly singular")
    j_pi = exchange_j(r.p) @ pi.conj().T
    out = np.empty((len(lams), 2 * r.p, 2 * r.p), dtype=complex)
    resolvent = np.empty_like(pi)
    for k, lam in enumerate(lams):
        for i, d_i in enumerate(r.diag.d):
            rows = slice(i * count, (i + 1) * count)
            resolvent[rows] = solve_triangular(
                np.eye(count) - 1j * lam * d_i * tri, pi[rows], lower=True)
        out[k] = np.eye(2 * r.p) \
            + 1j * lam * op.weight * (j_pi @ lu_solve(factor, resolvent))
    return out


def node_gram(r: Realization, x: float, count: int) -> np.ndarray:
    """h * Pi^H S^{-1} Pi for the problem restricted to [0, x].

    Its derivative in x converges to the recovered Hamiltonian, which makes
    a central difference of this Gram matrix an independent finite-difference
    oracle for H(x).
    """
    if not 0.0 < x <= r.length * (1 + 1e-12):
        raise ValueError(f"restriction point {x} outside (0, {r.length}]")
    rx = r.with_length(float(min(x, r.length)))
    op = discretize_operator(rx, count)
    pi = profile_samples(rx, op.nodes)
    return op.weight * (pi.conj().T @ np.linalg.solve(op.matrix, pi))


def reverse_cholesky(m) -> np.ndarray:
    """Upper-triangular R with R R^H = m, for Hermitian positive definite m.

    Obtained by running a standard Cholesky factorization on the matrix with
    rows and columns reversed.  This is the discrete counterpart of the
    upper-lower factorization of the inverse operator.
    """
    m = as_matrix(m, "reverse_cholesky operand")
    flipped = m[::-1, ::-1]
    lower = np.linalg.cholesky(0.5 * (flipped + flipped.conj().T))
    return lower[::-1, ::-1]


# ---------------------------------------------------------------------------
# Runge-Kutta fundamental solution
# ---------------------------------------------------------------------------

class Rk4Fundamental:
    """Classical RK4 integration of the fundamental system U' = M(y) U.

    The generator is M(y) = e^{-yA} Y_j e^{yA} with the rank-structured Y_j
    of the active segment; steps are aligned to the segment breakpoints so
    no step straddles a change of Y_j.  All step nodes are stored; values in
    between come from a single partial RK4 step.  This is a plain ODE march
    with none of the closed-form structure, which is the point.
    """

    def __init__(self, realization: Realization, steps: int = 2000):
        if steps < 100:
            raise ValueError("need at least 100 integration steps")
        r = realization
        self.realization = r
        n = r.n
        dim = 2 * n
        self.interval = r.diag.levels[0] * r.length
        gen = np.zeros((dim, dim), dtype=complex)
        gen[:n, :n] = 1j * r.beta.conj().T
        gen[n:, n:] = 1j * r.beta
        self._generator = gen
        stack = np.vstack([-r.theta1, r.theta2])
        adj = np.hstack([r.theta2.conj().T, r.theta1.conj().T])
        dinv = r.diag.inv_matrix

        lefts, seg_levels = FundamentalSolution._segment_grid(r.diag, r.length)
        rights = lefts[1:] + [self.interval]
        segments = list(zip(lefts, rights, seg_levels))
        y_mats = {}
        for _, _, level in segments:
            y_mats[level] = stack @ dinv @ r.diag.projector(level) @ adj

        from .linalg import mat_exp
        nodes = [0.0]
        values = [np.eye(dim, dtype=complex)]
        levels = []          # generator level on [nodes[k], nodes[k+1]]
        u = values[0]
        for left, right, level in segments:
            seg_len = right - left
            n_steps = max(1, math.ceil(steps * seg_len / self.interval))
            h = seg_len / n_steps
            half_pos = mat_exp(0.5 * h * gen)
            half_neg = mat_exp(-0.5 * h * gen)
            e_pos = mat_exp(left * gen)
            e_neg = mat_exp(-left * gen)
            y_mat = y_mats[level]
            m_lo = e_neg @ y_mat @ e_pos
            for k in range(n_steps):
                e_pos = half_pos @ e_pos
                e_neg = half_neg @ e_neg
                m_mid = e_neg @ y_mat @ e_pos
                e_pos = half_pos @ e_pos
                e_neg = half_neg @ e_neg
                m_hi = e_neg @ y_mat @ e_pos
                k1 = m_lo @ u
                k2 = m_mid @ (u + 0.5 * h * k1)
                k3 = m_mid @ (u + 0.5 * h * k2)
                k4 = m_hi @ (u + h * k3)
                u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                nodes.append(left + (k + 1) * h)
                values.append(u)
                levels.append(level)
                m_lo = m_hi
        self._nodes = np.array(nodes)
        self._values = values
        self._levels = levels
        self._y_mats = y_mats

    def _slope(self, y: float, level: int) -> np.ndarray:
        from .linalg import mat_exp
        e_pos = mat_exp(y * self._generator)
        e_neg = mat_exp(-y * self._generator)
        return e_neg @ self._y_mats[level] @ e_pos

    def value(self, y: float) -> np.ndarray:
        """U(y) from the stored march plus at most one partial RK4 step."""
        if y < -1e-12 or y > self.interval * (1 + 1e-12):
            raise ValueError(f"argument {y} outside [0, {self.interval}]")
        y = min(max(y, 0.0), self.interval)
        idx = bisect_right(self._nodes, y) - 1
        if idx >= len(self._levels):       # exactly the right endpoint
            return self._values[-1].copy()
        y0 = self._nodes[idx]
        h = y - y0
        if h <= 1e-15 * max(1.0, self.interval):
            return self._values[idx].copy()
        level = self._levels[idx]
        u = self._values[idx]
        m_lo = self._slope(y0, level)
        m_mid = self._slope(y0 + 0.5 * h, level)
        m_hi = self._slope(y0 + h, level)
        k1 = m_lo @ u
        k2 = m_mid @ (u + 0.5 * h * k1)
        k3 = m_mid @ (u + 0.5 * h * k2)
        k4 = m_hi @ (u + h * k3)
        return u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# Fourier-side check of the Weyl function
# ---------------------------------------------------------------------------

def fourier_transform_residual(r: Realization, lam: complex) -> float:
    """Relative gap between the Fourier quadrature and the resolvent formula.

    Integrates lambda * int_0^X e^{i lambda x} s(x)^H dx * D by adaptive
    quadrature (the integrand decays like e^{-Im(lambda) x}) and compares
    with the closed resolvent expression for phi(lambda).  X is
    ln(1e10) / Im(lambda), where that decay reaches 1e-10; Im(lambda) >= 0.1
    is required so the truncation at X is harmless.
    """
    if lam.imag < 0.1 - 1e-15:
        raise ValueError("need Im(lambda) >= 0.1 for a convergent transform")
    end = math.log(1e10) / lam.imag
    phi = weyl_value(r, lam)

    def integrand(x: float) -> np.ndarray:
        return np.exp(1j * lam * x) * r.integrated_kernel(x).conj().T

    chunk, _ = quad_vec(integrand, 0.0, end,
                        epsabs=1e-12, epsrel=1e-12, limit=600)
    transform = lam * chunk @ r.diag.matrix
    return frob(transform - phi) / frob(phi)
