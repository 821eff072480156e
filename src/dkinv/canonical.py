"""Rational Weyl functions and recovery of the canonical-system Hamiltonian.

Given realization data satisfying the structure identity, the rational
matrix function

    phi(lambda) = (i/2) D + theta1^H (beta - lambda I)^{-1} theta2

has nonnegative imaginary part in the upper half-plane.  Its spectral data
split into an absolutely continuous density on the real line plus point
jumps at the real eigenvalues of beta.  Working back, the Hamiltonian H(x)
of the canonical system  w' = i*lambda*J*H(x)*w  with Weyl function phi is
recovered through a triangular factorization of the inverse operators on
growing subintervals [0, x]: the factor gamma(x) comes from applying the
adjoint triangular factor to explicit profiles, and H = gamma^H gamma.

Everything here sits on top of the closed-form inversion engine; the only
quadrature is the one-dimensional adaptive integration inside the
triangular-factor application and nothing is ever discretized on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad_vec, simpson
from scipy.interpolate import CubicSpline
from scipy.linalg import null_space

from .inversion import InverseKernel
from .kernels import DiagonalStructure, Realization
from .linalg import as_matrix, eig_spectrum, exchange_j, frob, mat_exp, solve

__all__ = [
    "DefectiveEigenvalueError",
    "HamiltonianGrid",
    "HerglotzData",
    "IntervalSingularityError",
    "SimilarityFactor",
    "WeylFunction",
    "WeylPoleError",
    "apply_triangular_adjoint",
    "energy_inequality",
    "hamiltonian_factor",
    "herglotz_data",
    "inverse_kernel_for_interval",
    "matrizant",
    "recover_hamiltonian",
    "recovery_correction",
    "similarity_factor",
    "weyl_value",
]

_QUAD_KW = dict(epsabs=1e-10, epsrel=1e-10, limit=400)


class WeylPoleError(ValueError):
    """The requested spectral parameter sits on a pole of phi."""


class DefectiveEigenvalueError(ValueError):
    """A real state eigenvalue has a nontrivial Jordan structure."""


class IntervalSingularityError(ValueError):
    """The operator restricted to [0, x] is not invertible."""

    def __init__(self, critical_x: float, rcond: float):
        super().__init__(
            f"restricted operator is singular near x = {critical_x:.6g} "
            f"(corner rcond {rcond:.3e})"
        )
        self.critical_x = critical_x
        self.rcond = rcond


# ---------------------------------------------------------------------------
# Weyl function and its spectral data
# ---------------------------------------------------------------------------

def weyl_value(r: Realization, lam: complex) -> np.ndarray:
    """phi(lambda) = (i/2) D + theta1^H (beta - lambda I)^{-1} theta2.

    Defined for any realization data (the structure identity is not needed
    to evaluate the formula); raises :class:`WeylPoleError` within 1e-12 of
    the state spectrum.
    """
    beta = r.beta
    gap = np.min(np.abs(eig_spectrum(beta) - lam))
    if gap <= 1e-12 * max(1.0, frob(beta)):
        raise WeylPoleError(f"lambda = {lam} is a pole of the Weyl function")
    n = beta.shape[0]
    resolvent_term = r.theta1.conj().T @ solve(beta - lam * np.eye(n), r.theta2)
    return 0.5j * r.diag.matrix + resolvent_term


@dataclass(eq=False)
class WeylFunction:
    """phi(lambda) for a realization with the structure identity enforced."""

    realization: Realization

    def __post_init__(self):
        self.realization.require_identity()

    def value(self, lam: complex) -> np.ndarray:
        return weyl_value(self.realization, lam)

    def high_frequency_limit(self) -> np.ndarray:
        """iD/2, the value phi approaches along the imaginary axis."""
        return 0.5j * self.realization.diag.matrix


@dataclass(frozen=True, eq=False)
class HerglotzData:
    """Spectral data of phi: a.c. density plus point jumps on the real line."""

    realization: Realization
    points: np.ndarray          # real eigenvalues of beta, ascending
    jumps: Tuple[np.ndarray, ...]  # Hermitian nonnegative jump matrices

    def density(self, t: float) -> np.ndarray:
        """rho(t) = (1/2pi) zeta(t)^H D zeta(t), Hermitian nonnegative."""
        r = self.realization
        n, p = r.n, r.p
        gap = r.theta2 - r.theta1
        zeta = np.eye(p) - 1j * r.diag.inv_matrix @ gap.conj().T \
            @ solve(t * np.eye(n) - r.beta, r.theta2)
        return zeta.conj().T @ r.diag.matrix @ zeta / (2 * np.pi)


def _real_point_spectrum(beta: np.ndarray, theta2: np.ndarray):
    """Real eigenvalues of beta with their clustered jump matrices.

    Jumps are the residues of theta2^H (z I - beta)^{-1} theta2, computed
    through the spectral projector of each real-eigenvalue cluster.  A real
    eigenvalue whose geometric multiplicity falls short of its cluster size
    has a Jordan block there — no simple-pole residue exists and the case is
    rejected.
    """
    scale = max(1.0, frob(beta))
    vals, vecs = np.linalg.eig(beta)
    real_idx = [k for k in range(vals.size) if abs(vals[k].imag) <= 1e-10 * scale]
    if not real_idx:
        return np.empty(0), ()
    real_idx.sort(key=lambda k: vals[k].real)
    clusters: List[List[int]] = [[real_idx[0]]]
    for k in real_idx[1:]:
        if vals[k].real - vals[clusters[-1][-1]].real <= 1e-8 * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    vecs_inv = np.linalg.inv(vecs)
    points, jumps = [], []
    for idx in clusters:
        z = float(np.mean(vals[idx].real))
        shifted = beta - z * np.eye(beta.shape[0])
        sv = np.linalg.svd(shifted, compute_uv=False)
        geometric = int(np.sum(sv <= 1e-8 * scale))
        if geometric < len(idx):
            raise DefectiveEigenvalueError(
                f"real eigenvalue {z:.6g} has geometric multiplicity "
                f"{geometric} < algebraic {len(idx)}; no simple-pole residue"
            )
        projector = vecs[:, idx] @ vecs_inv[idx, :]
        nu = theta2.conj().T @ projector @ theta2
        points.append(z)
        jumps.append(0.5 * (nu + nu.conj().T))
    return np.array(points), tuple(jumps)


def herglotz_data(w: WeylFunction) -> HerglotzData:
    """Density evaluator and point jumps of the Weyl function's measure."""
    r = w.realization
    points, jumps = _real_point_spectrum(r.beta, r.theta2)
    return HerglotzData(realization=r, points=points, jumps=jumps)


# ---------------------------------------------------------------------------
# Triangular factor application and gamma recovery
# ---------------------------------------------------------------------------

def inverse_kernel_for_interval(r: Realization, x: float) -> InverseKernel:
    """Inverse kernel of the operator restricted to [0, x].

    The fundamental solution and branch projector are rebuilt for the
    shortened interval; a singular corner raises
    :class:`IntervalSingularityError` carrying the critical length.
    """
    if not 0.0 < x <= r.length * (1 + 1e-12):
        raise ValueError(f"interval length {x} outside (0, {r.length}]")
    kernel = InverseKernel.from_realization(r.with_length(min(x, r.length)))
    if not kernel.invertible:
        raise IntervalSingularityError(x, kernel.singular_report.rcond)
    return kernel


def apply_triangular_adjoint(
    kernel: InverseKernel,
    f: Union[np.ndarray, Callable[[float], np.ndarray]],
) -> np.ndarray:
    """Evaluate the adjoint triangular factor at the interval's right end.

    Computes f(x) + int_0^x T_x(x, r) f(r) dr where T_x is the inverse
    kernel on [0, x], x being the length ``kernel`` was built for, and f
    is either a constant matrix with p rows or a callable returning one.
    The quadrature is split at every ratio point x*d_a/d_b where the
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

    integral, _ = quad_vec(integrand, 0.0, x, points=breaks, **_QUAD_KW)
    return end_value + integral


def recovery_correction(r: Realization, x: float,
                        kernel: Optional[InverseKernel] = None) -> np.ndarray:
    """Closed-form correction matrix entering the explicit gamma formula.

    Row s is

        e_s (theta2^H e^{i d_s x beta^H}
             + [theta2^H, theta1^H] e^{d_s x A} U(d_s x)
               (P U(d_1 x)^{-1} - U(d_s x)^{-1} + I - P) [I_n; 0])
        (beta^H)^{-1} theta1

    with U and the branch projector P rebuilt for interval length x.
    Requires an invertible state matrix.
    """
    beta = r.beta
    sv = np.linalg.svd(beta, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < 1e-12:
        raise ValueError("closed-form correction needs an invertible state matrix")
    if not 0.0 < x <= r.length * (1 + 1e-12):
        raise ValueError(f"evaluation point {x} outside (0, {r.length}]")

    if kernel is None or abs(kernel.realization.length - x) > 1e-12 * x:
        kernel = inverse_kernel_for_interval(r, x)
    fund, proj = kernel.fund, kernel.p_cross
    if proj is None:
        raise IntervalSingularityError(x, kernel.singular_report.rcond)

    n, p, d = r.n, r.p, r.diag.d
    eye2n = np.eye(2 * n)
    embed = np.vstack([np.eye(n), np.zeros((n, n))])  # [I_n; 0]
    corner_inv = fund.inverse(d[0] * x)
    right_factor = solve(beta.conj().T, r.theta1)
    adj = fund.adj_row  # [theta2^H, theta1^H]

    out = np.empty((p, p), dtype=complex)
    for s in range(p):
        y = d[s] * x
        middle = proj @ corner_inv - fund.inverse(y) + eye2n - proj
        direct = r.theta2.conj().T[s, :] @ mat_exp(1j * y * beta.conj().T)
        bracket = adj[s, :] @ fund.propagated(y) @ middle @ embed
        out[s, :] = (direct + bracket) @ right_factor
    return out


def hamiltonian_factor(
    r: Realization,
    x: float,
    route: str = "auto",
    kernel: Optional[InverseKernel] = None,
) -> np.ndarray:
    """gamma(x), the p x 2p factor of the recovered Hamiltonian.

    Two equivalent routes exist.  The closed route applies the triangular
    factor to a constant block row and subtracts the explicit correction —
    it needs an invertible state matrix.  The quadrature route applies the
    factor to the x-dependent profile [Phi1, I] directly.  "auto", the
    route recovery always takes, prefers the closed route whenever the
    state matrix allows it; ``route`` selects one route explicitly only so
    that the two can be cross-checked against each other.
    """
    r.require_identity()
    if route not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown route {route!r}")
    if kernel is None:
        kernel = inverse_kernel_for_interval(r, x)
    p = r.p
    eye_p = np.eye(p)

    if route == "auto":
        sv = np.linalg.svd(r.beta, compute_uv=False)
        route = "closed" if sv[0] > 0 and sv[-1] / sv[0] >= 1e-12 else "quadrature"

    if route == "closed":
        const = np.hstack([
            0.5 * r.diag.matrix
            + 1j * r.theta2.conj().T @ solve(r.beta.conj().T, r.theta1),
            eye_p,
        ])
        base = apply_triangular_adjoint(kernel, const)
        corr = recovery_correction(r, x, kernel=kernel)
        return base - 1j * np.hstack([corr, np.zeros((p, p))])

    def profile(t: float) -> np.ndarray:
        return np.hstack([r.edge_profile(t), eye_p])

    return apply_triangular_adjoint(kernel, profile)


@dataclass(frozen=True, eq=False)
class HamiltonianGrid:
    """Sampled recovery output: gamma(x) and H(x) = gamma^H gamma on a grid."""

    xs: np.ndarray       # strictly increasing sample points in (0, l]
    gammas: np.ndarray   # (M, p, 2p)
    hams: np.ndarray     # (M, 2p, 2p), Hermitian nonnegative
    diag: DiagonalStructure

    @property
    def p(self) -> int:
        return self.diag.p

    @cached_property
    def interpolant(self) -> CubicSpline:
        return CubicSpline(self.xs, self.hams, axis=0)

    def hamiltonian(self, x: float) -> np.ndarray:
        """Spline-interpolated H(x), symmetrized against interpolation dust."""
        h = self.interpolant(x)
        return 0.5 * (h + h.conj().T)


def recover_hamiltonian(
    r: Realization,
    xs: Sequence[float],
) -> HamiltonianGrid:
    """Recover gamma and H on a strictly increasing grid of points in (0, l].

    Each point is independent: the fundamental solution and inverse kernel
    are rebuilt for the interval [0, x] and the points run one after another.
    """
    r.require_identity()
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("need a one-dimensional, nonempty sample grid")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample grid must be strictly increasing")
    if xs[0] <= 0 or xs[-1] > r.length * (1 + 1e-12):
        raise ValueError(f"sample points must lie in (0, {r.length}]")

    gammas = np.array([hamiltonian_factor(r, x) for x in xs])
    hams = np.einsum("mij,mik->mjk", gammas.conj(), gammas)
    hams = 0.5 * (hams + np.conj(np.transpose(hams, (0, 2, 1))))
    return HamiltonianGrid(xs=xs, gammas=gammas, hams=hams, diag=r.diag)


# ---------------------------------------------------------------------------
# Matrizant, energy inequality, similarity
# ---------------------------------------------------------------------------

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
    p = grid.p
    jmat = exchange_j(p).astype(complex)
    end = float(grid.xs[-1])
    steps = 2 * max(grid.xs.size - 1, 200)
    h = end / steps

    def slope_matrix(x: float) -> np.ndarray:
        return 1j * lam * (jmat @ grid.hamiltonian(x))

    w = np.eye(2 * p, dtype=complex)
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
    p = grid.p
    column = np.vstack([np.eye(p), -1j * phi])
    nodes, trajectory = matrizant(grid, lam, return_trajectory=True)
    values = np.empty(nodes.size)
    for k, (x, wmat) in enumerate(zip(nodes, trajectory)):
        weighted = grid.hamiltonian(x) @ wmat @ column
        values[k] = np.trace(column.conj().T @ wmat.conj().T @ weighted).real
    lhs = float(simpson(values, x=nodes))
    rhs = float(np.trace((phi - phi.conj().T) / 2j).real / lam.imag)
    return lhs, rhs


@dataclass(frozen=True)
class SimilarityFactor:
    """Invertible L with L^{-1} diag(D, 0) L = J gamma^H gamma."""

    transform: np.ndarray  # L
    inverse: np.ndarray    # closed-form L^{-1}
    residual: float        # || L^{-1} diag(D,0) L - J gamma^H gamma ||_F


def similarity_factor(gx: np.ndarray, diag: DiagonalStructure) -> SimilarityFactor:
    """Build the similarity reducing J*H(x) to the constant J*diag(D, 0).

    The top block of L is D^{-1/2} gamma; the bottom block spans the null
    space of gamma*J, normalized so that -X J X^H = I.  The closed-form
    inverse is [J gamma^H D^{-1/2}, -J X^H].
    """
    gx = as_matrix(gx, "gamma")
    p = diag.p
    if gx.shape != (p, 2 * p):
        raise ValueError(f"gamma must be {p} x {2 * p}, got {gx.shape}")
    jmat = exchange_j(p).astype(complex)
    metric_residual = frob(gx @ jmat @ gx.conj().T - diag.matrix)
    if metric_residual > 1e-6 * (1.0 + frob(diag.matrix)):
        raise ValueError(
            f"gamma J gamma^H deviates from D by {metric_residual:.3e}; "
            "not a valid Hamiltonian factor"
        )
    kernel = null_space(gx @ jmat)
    if kernel.shape[1] != p:
        raise ValueError(
            f"null space of gamma*J has dimension {kernel.shape[1]}, expected {p}"
        )
    x_rows = kernel.conj().T
    gram = -(x_rows @ jmat @ x_rows.conj().T)
    gram = 0.5 * (gram + gram.conj().T)
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 0:
        raise ValueError("null-space block is degenerate with respect to J")
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    x_norm = inv_sqrt @ x_rows

    d_half_inv = np.diag(diag.d ** -0.5).astype(complex)
    transform = np.vstack([d_half_inv @ gx, x_norm])
    inverse = np.hstack([
        jmat @ gx.conj().T @ d_half_inv,
        -(jmat @ x_norm.conj().T),
    ])
    h_const = np.zeros((2 * p, 2 * p), dtype=complex)
    h_const[:p, :p] = diag.matrix
    residual = frob(inverse @ h_const @ transform - jmat @ gx.conj().T @ gx)
    return SimilarityFactor(transform=transform, inverse=inverse,
                            residual=float(residual))
