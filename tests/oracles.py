"""Reference implementations the tests compare the package against.

None of these run in the CLI.  Each one reaches its answer by a route the
production code does not take: adaptive quadrature of the triangular
factor, a cubic spline and Runge-Kutta for the canonical system's
matrizant, classical RK4 for the fundamental solution, a finite-difference
Gram matrix for H(x), the discrete operator identity, direct Fourier
quadrature of the kernel column for the Weyl function, and a 40-digit
mpmath matrix exponential.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Tuple, Union

import mpmath
import numpy as np
from scipy.integrate import quad_vec, simpson
from scipy.interpolate import CubicSpline

from dkinv.canonical import HamiltonianGrid, WeylFunction, weyl_value
from dkinv.discretization import discretize_operator, profile_samples
from dkinv.inversion import InverseKernel
from dkinv.kernels import Realization
from dkinv.linalg import exchange_j, frob, mat_exp, spectral_norm


# ---------------------------------------------------------------------------
# Triangular factor by adaptive quadrature
# ---------------------------------------------------------------------------

def quadrature_triangular_adjoint(
    kernel: InverseKernel,
    f: Union[np.ndarray, Callable[[float], np.ndarray]],
) -> np.ndarray:
    """f(x) + int_0^x T_x(x, t) f(t) dt by adaptive quadrature.

    The reference for :func:`dkinv.canonical.apply_triangular_adjoint`.  f
    is a constant matrix with p rows or a callable returning one; the
    quadrature is split at every ratio point x*d_a/d_b where the
    integrand's branch or segment changes.
    """
    kernel._require_invertible()
    r = kernel.realization
    x = r.length
    if callable(f):
        fval = f
    else:
        const = np.atleast_2d(np.asarray(f, dtype=complex))
        fval = lambda _t, _c=const: _c  # noqa: E731 - trivial closure
    end_value = np.atleast_2d(np.asarray(fval(x), dtype=complex))
    if end_value.shape[0] != r.p:
        raise ValueError(f"profile must have {r.p} rows, got {end_value.shape}")

    p, d = r.p, r.diag.d
    fund = kernel.fund
    rows = np.vstack([fund.left_row(i, x) for i in range(p)])
    rows_upper = rows @ kernel.upper_factor
    rows_lower = rows @ kernel.p_cross

    ratios = sorted({x * da / db for da in d for db in d})
    breaks = [v for v in ratios if 1e-14 * x < v < x * (1 - 1e-14)]

    def integrand(t: float) -> np.ndarray:
        cols = np.empty((fund.state_dim, p), dtype=complex)
        for j in range(p):
            cols[:, j] = fund.right_col(j, t)
        upper = rows_upper @ cols
        lower = -(rows_lower @ cols)
        mask = (d[:, None] * x) >= (d[None, :] * t)
        t_matrix = np.where(mask, upper, lower)
        return t_matrix @ np.atleast_2d(np.asarray(fval(t), dtype=complex))

    integral, _ = quad_vec(integrand, 0.0, x, points=breaks,
                           epsabs=1e-10, epsrel=1e-10, limit=400)
    return end_value + integral


def edge_input(r: Realization) -> Callable[[float], np.ndarray]:
    """The profile route's input t -> [Phi1(t), I] as a callable."""
    eye_p = np.eye(r.p)
    return lambda t: np.hstack([r.edge_profile(t), eye_p])


# ---------------------------------------------------------------------------
# Matrizant and energy inequality on the spline-interpolated Hamiltonian
# ---------------------------------------------------------------------------

def spline_hamiltonian(grid: HamiltonianGrid) -> Callable[[float], np.ndarray]:
    """Cubic-spline H(x) through the grid samples, symmetrized."""
    spline = CubicSpline(grid.xs, grid.hams, axis=0)

    def hamiltonian(x: float) -> np.ndarray:
        h = spline(x)
        return 0.5 * (h + h.conj().T)

    return hamiltonian


def matrizant(
    grid: HamiltonianGrid,
    lam: complex,
    return_trajectory: bool = False,
):
    """Solve W' = i*lambda*J*H(x)*W, W(0) = I, to the grid's right end.

    Fourth-order Runge-Kutta over the spline interpolant of H, with twice
    as many steps as grid intervals (at least 400); the grid must be dense
    enough to pin the spline (at least 200 samples).  With
    ``return_trajectory`` the step nodes and all intermediate W values come
    back for trajectory integrals.
    """
    if grid.xs.size < 200:
        raise ValueError("Hamiltonian grid too coarse: need >= 200 samples")
    hamiltonian = spline_hamiltonian(grid)
    jmat = exchange_j(grid.p).astype(complex)
    end = float(grid.xs[-1])
    steps = 2 * max(grid.xs.size - 1, 200)
    h = end / steps

    def slope_matrix(x: float) -> np.ndarray:
        return 1j * lam * (jmat @ hamiltonian(x))

    w = np.eye(2 * grid.p, dtype=complex)
    nodes = np.linspace(0.0, end, steps + 1)
    trajectory = [w]
    m_lo = slope_matrix(0.0)
    for k in range(steps):
        x0 = nodes[k]
        m_mid = slope_matrix(x0 + 0.5 * h)
        m_hi = slope_matrix(x0 + h)
        k1 = m_lo @ w
        k2 = m_mid @ (w + 0.5 * h * k1)
        k3 = m_mid @ (w + 0.5 * h * k2)
        k4 = m_hi @ (w + h * k3)
        w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        trajectory.append(w)
        m_lo = m_hi
    if return_trajectory:
        return nodes, trajectory
    return w


def energy_inequality(
    grid: HamiltonianGrid,
    w: WeylFunction,
    lam: complex,
) -> Tuple[float, float]:
    """Accumulated H-weighted energy of the Weyl column versus its bound.

    lhs integrates trace([I, i*phi^H] W^H H W [I; -i*phi]) along the
    matrizant trajectory; rhs = trace(Im phi) / Im lambda is the
    l-independent bound.  For a true Weyl function lhs <= rhs at every l.
    """
    if lam.imag <= 0:
        raise ValueError("spectral parameter must lie in the upper half-plane")
    phi = w.value(lam)
    column = np.vstack([np.eye(grid.p), -1j * phi])
    hamiltonian = spline_hamiltonian(grid)
    nodes, trajectory = matrizant(grid, lam, return_trajectory=True)
    values = np.empty(nodes.size)
    for k, (x, wmat) in enumerate(zip(nodes, trajectory)):
        weighted = hamiltonian(x) @ wmat @ column
        values[k] = np.trace(column.conj().T @ wmat.conj().T @ weighted).real
    lhs = float(simpson(values, x=nodes))
    rhs = float(np.trace((phi - phi.conj().T) / 2j).real / lam.imag)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Grid oracles: the discrete operator identity and the node Gram matrix
# ---------------------------------------------------------------------------

def volterra_matrix(r: Realization, count: int, h: float) -> np.ndarray:
    """Discrete A = i * D (x) (lower-triangular midpoint integration)."""
    tri = h * (np.tril(np.ones((count, count)), -1) + 0.5 * np.eye(count))
    return 1j * np.kron(np.diag(r.diag.d), tri)


def identity_residual(r: Realization, count: int) -> float:
    """Relative residual of the discrete operator identity.

    Checks A S - S A^H = i h Pi J Pi^H in the scaled spectral norm, where A
    is the discrete Volterra integrator, S the Nystrom matrix and Pi the
    profile samples.  For data satisfying the structure identity this decays
    with the grid; otherwise it stalls at an O(1) level.
    """
    op = discretize_operator(r, count)
    a_mat = volterra_matrix(r, count, op.weight)
    pi = profile_samples(r, op.nodes)
    jmat = exchange_j(r.p)
    lhs = a_mat @ op.matrix - op.matrix @ a_mat.conj().T
    rhs = 1j * op.weight * (pi @ jmat @ pi.conj().T)
    return spectral_norm(lhs - rhs) / spectral_norm(op.matrix)


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


# ---------------------------------------------------------------------------
# Runge-Kutta fundamental solution
# ---------------------------------------------------------------------------

class Rk4Fundamental:
    """Classical RK4 integration of the fundamental system U' = M(y) U.

    The generator is M(y) = e^{-yA} Y e^{yA} with the rank-structured Y of
    the active segment; steps are aligned to the segment breakpoints so no
    step straddles a change of Y.  The segments come from the dilation
    levels directly: between the consecutive breakpoints d~_{m+1} l and
    d~_m l the components with d_j >= d~_m are alive.  All step nodes are
    stored; values in between come from a single partial RK4 step.  This is
    a plain ODE march with none of the closed-form structure, which is the
    point.
    """

    def __init__(self, realization: Realization, steps: int = 2000):
        if steps < 100:
            raise ValueError("need at least 100 integration steps")
        r = realization
        self.realization = r
        n, p = r.n, r.p
        dim = 2 * n
        levels, counts = r.diag.levels, r.diag.counts
        self.interval = levels[0] * r.length
        gen = np.zeros((dim, dim), dtype=complex)
        gen[:n, :n] = 1j * r.beta.conj().T
        gen[n:, n:] = 1j * r.beta
        self._generator = gen
        stack = np.vstack([-r.theta1, r.theta2])
        adj = np.hstack([r.theta2.conj().T, r.theta1.conj().T])
        dinv = r.diag.inv_matrix

        segments = []        # (left, right, Y), innermost first
        for m in range(levels.size - 1, -1, -1):
            left = levels[m + 1] * r.length if m + 1 < levels.size else 0.0
            alive = np.zeros(p)
            alive[:int(counts[:m + 1].sum())] = 1.0
            segments.append((left, levels[m] * r.length,
                             stack @ dinv @ np.diag(alive) @ adj))

        nodes = [0.0]
        values = [np.eye(dim, dtype=complex)]
        y_mats = []          # generator's Y on [nodes[k], nodes[k+1]]
        u = values[0]
        for left, right, y_mat in segments:
            seg_len = right - left
            n_steps = max(1, math.ceil(steps * seg_len / self.interval))
            h = seg_len / n_steps
            half_pos = mat_exp(0.5 * h * gen)
            half_neg = mat_exp(-0.5 * h * gen)
            e_pos = mat_exp(left * gen)
            e_neg = mat_exp(-left * gen)
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
                y_mats.append(y_mat)
                m_lo = m_hi
        self._nodes = np.array(nodes)
        self._values = values
        self._y_mats = y_mats

    def _slope(self, y: float, y_mat: np.ndarray) -> np.ndarray:
        e_pos = mat_exp(y * self._generator)
        e_neg = mat_exp(-y * self._generator)
        return e_neg @ y_mat @ e_pos

    def value(self, y: float) -> np.ndarray:
        """U(y) from the stored march plus at most one partial RK4 step."""
        if y < -1e-12 or y > self.interval * (1 + 1e-12):
            raise ValueError(f"argument {y} outside [0, {self.interval}]")
        y = min(max(y, 0.0), self.interval)
        idx = bisect_right(self._nodes, y) - 1
        if idx >= len(self._y_mats):       # exactly the right endpoint
            return self._values[-1].copy()
        y0 = self._nodes[idx]
        h = y - y0
        if h <= 1e-15 * max(1.0, self.interval):
            return self._values[idx].copy()
        y_mat = self._y_mats[idx]
        u = self._values[idx]
        m_lo = self._slope(y0, y_mat)
        m_mid = self._slope(y0 + 0.5 * h, y_mat)
        m_hi = self._slope(y0 + h, y_mat)
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


# ---------------------------------------------------------------------------
# Matrix exponential in extended precision
# ---------------------------------------------------------------------------

def mp_expm(a, digits: int = 40) -> np.ndarray:
    """e^a computed by mpmath at ``digits`` significant digits, rounded once
    to complex128: the reference for the package's double-precision Pade
    kernel."""
    with mpmath.workdps(digits):
        value = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=complex).tolist()))
        return np.array(value.tolist(), dtype=complex)
