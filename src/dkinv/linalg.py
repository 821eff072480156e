"""Dense complex linear-algebra substrate.

Thin, contract-enforcing wrappers around numpy/scipy, the batched matrix
exponential of one generator at many times, the two block
structure matrices used throughout the package, and the two Krylov
iterations (a power-iteration norm and Lanczos extremes) that stand in for
dense SVD and eigenvalue calls on large matrices.  Everything here is a
pure function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DimensionError",
    "SingularMatrixError",
    "RCOND_MIN",
    "as_matrix",
    "mat_exp",
    "exp_samples",
    "eig_spectrum",
    "solve",
    "exchange_j",
    "symplectic_j",
    "frob",
    "spectral_norm",
    "operator_norm",
    "lanczos_extremes",
]

# Reciprocal 2-norm condition number below which a solve is refused.
RCOND_MIN = 1e-12

# Residual bound enforced by solve(), relative to the right-hand side.
SOLVE_RESIDUAL = 1e-10

# Krylov dimension after which lanczos_extremes gives up.
LANCZOS_MAX_DIM = 300

# Taylor degree of exp_samples: the smallest K whose truncation bound at
# |t| ||m||_1 <= 1/2, (1/2)^(K+1) / (K+1)! * e^(1/2), is below 2^-53.
TAYLOR_DEGREE = 14


class DimensionError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class SingularMatrixError(ValueError):
    """Matrix singular to working tolerance; carries the condition estimate."""

    def __init__(self, message: str, rcond: float):
        super().__init__(f"{message} (rcond estimate {rcond:.3e})")
        self.rcond = rcond


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex ndarray with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(a, name: str) -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def frob(a) -> float:
    """Frobenius norm, the package-wide default for tolerance scaling."""
    return float(np.linalg.norm(a))


def mat_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade core).

    Exact to roundoff for nilpotent input, where the series terminates.
    """
    return sla.expm(_square(m, "mat_exp operand"))


def exp_samples(m, s) -> np.ndarray:
    """e^{s_k m} for one square m and many real s_k, shape (len(s), n, n).

    One generator at many times is the setting of Al-Mohy and Higham,
    "Computing the action of the matrix exponential" (SIAM J. Sci. Comput.
    33(2), 2011).  Anchors c sit on the grid of spacing 1/||m||_1 nearest
    each s_k, and each sample is e^{cm} times the degree-TAYLOR_DEGREE
    Taylor polynomial of e^{tm} at t = s_k - c, where |t| ||m||_1 <= 1/2.
    Only the anchors go through the Pade ``expm``; the polynomials of all
    samples are one matrix product, and each occupied anchor multiplies
    its own samples in place.  The TAYLOR_DEGREE products that build
    the polynomial pay off only when they save at least as many Pade
    evaluations, so with fewer samples than anchors plus TAYLOR_DEGREE
    every sample is its own anchor.
    """
    m = _square(m, "exp_samples operand")
    s = np.asarray(s, dtype=float).reshape(-1)
    if not np.isfinite(s).all():
        raise ValueError("exp_samples times contain non-finite entries")
    if s.size <= TAYLOR_DEGREE:  # too few to save TAYLOR_DEGREE anchors
        return sla.expm(s[:, None, None] * m)
    scale = np.linalg.norm(m, 1) or 1.0  # any spacing serves m = 0
    ticks = np.rint(s * scale)
    first = ticks.min()
    count = int(ticks.max() - first) + 1
    if s.size - count < TAYLOR_DEGREE:
        return sla.expm(s[:, None, None] * m)
    anchors = sla.expm(((first + np.arange(count)) / scale)[:, None, None] * m)
    # (m / ||m||_1)^k / k! against (t ||m||_1)^k, |t| ||m||_1 <= 1/2.
    size, unit = m.shape[0], m / scale
    powers = np.empty((TAYLOR_DEGREE + 1, size, size), dtype=complex)
    powers[0] = np.eye(size)
    for k in range(1, TAYLOR_DEGREE + 1):
        np.matmul(powers[k - 1], unit / k, out=powers[k])
    taylor = (np.vander(s * scale - ticks, TAYLOR_DEGREE + 1, increasing=True)
              @ powers.reshape(TAYLOR_DEGREE + 1, -1)).reshape(-1, size, size)
    slot = (ticks - first).astype(int)
    for k in np.unique(slot):
        at = slot == k
        taylor[at] = anchors[k] @ taylor[at]
    return taylor


def eig_spectrum(m) -> np.ndarray:
    """Eigenvalues with multiplicity, in no particular order."""
    return np.linalg.eigvals(_square(m, "eig_spectrum operand"))


def solve(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs, refusing matrices singular to tolerance.

    Raises SingularMatrixError when the reciprocal condition number drops
    below RCOND_MIN, or when even one refinement step cannot push the
    normwise backward error ||m x - rhs|| / (||m|| ||x|| + ||rhs||) under
    SOLVE_RESIDUAL.  The backward-error normalization matters: solving
    close to a pole (resolvents near a real eigenvalue) legitimately
    produces ||x|| >> ||rhs||, and a bound relative to ||rhs|| alone would
    reject those solutions even when they are as good as the conditioning
    allows.
    """
    m = _square(m, "solve matrix")
    r = np.asarray(rhs, dtype=complex)
    if r.shape[0] != m.shape[0]:
        raise DimensionError(
            f"rhs leading dimension {r.shape[0]} != matrix size {m.shape[0]}"
        )
    sv = np.linalg.svd(m, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularMatrixError("matrix is singular to working precision", rcond)
    norm_m = frob(m)
    x = np.linalg.solve(m, r)

    def backward_error(cand: np.ndarray) -> float:
        denom = norm_m * frob(cand) + frob(r)
        if denom == 0.0:  # zero rhs, zero solution: exact
            return 0.0
        return frob(m @ cand - r) / denom

    if backward_error(x) > SOLVE_RESIDUAL:
        x = x + np.linalg.solve(m, r - m @ x)  # one refinement step
        if backward_error(x) > SOLVE_RESIDUAL:
            raise SingularMatrixError("solve residual above contract", rcond)
    return x


def exchange_j(p: int) -> np.ndarray:
    """2p x 2p block exchange matrix [[0, I_p], [I_p, 0]] (involution)."""
    j = np.zeros((2 * p, 2 * p), dtype=complex)
    j[:p, p:] = np.eye(p)
    j[p:, :p] = np.eye(p)
    return j


def symplectic_j(n: int) -> np.ndarray:
    """2n x 2n block matrix [[0, -I_n], [I_n, 0]] (squares to -I)."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _start_vector(size: int) -> np.ndarray:
    """Fixed, slightly skewed unit vector, so repeated runs agree to the bit."""
    v = np.ones(size, dtype=complex) + 1e-3j * np.arange(size)
    v /= np.linalg.norm(v)
    return v


def operator_norm(forward: Callable[[np.ndarray], np.ndarray],
                  adjoint: Callable[[np.ndarray], np.ndarray],
                  size: int) -> float:
    """Largest singular value of a linear map on C^size, given by matvecs.

    Power iteration on adjoint(forward(v)): at most 200 steps, stopping
    once the estimate moves by at most 1e-9 relative.  ``adjoint`` applies
    the conjugate transpose of ``forward``.  A map that sends an iterate to
    exactly zero has norm 0 returned as such, never divided by.
    """
    v = _start_vector(size)
    estimate = 0.0
    for _ in range(200):
        w = forward(v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_next = adjoint(w)
        norm_next = np.linalg.norm(v_next)
        previous, estimate = estimate, float(norm_w)
        if norm_next == 0.0:
            return estimate
        v = v_next / norm_next
        if abs(estimate - previous) <= 1e-9 * estimate:
            break
    return estimate


def spectral_norm(a) -> float:
    """Largest singular value of a dense matrix, by :func:`operator_norm`.

    Deterministic (fixed start vector) so repeated runs agree to the bit; a
    few hundred matvecs beat a full SVD by orders of magnitude on the large
    discretized operators this gets applied to.
    """
    a = as_matrix(a, "spectral_norm operand")
    if a.size == 0:
        return 0.0
    return operator_norm(lambda v: a @ v, lambda w: a.conj().T @ w,
                         a.shape[1])


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
    """
    size = h.shape[0]
    steps = min(LANCZOS_MAX_DIM, size)
    basis = np.empty((steps, size), dtype=complex)  # Lanczos vectors as rows
    alpha = np.empty(steps)
    beta = np.empty(steps)
    ends = [0, -1]
    q = _start_vector(size)
    for k in range(steps):
        basis[k] = q
        active = basis[:k + 1]
        w = h @ q
        coef = active.conj() @ w
        alpha[k] = coef[k].real
        w -= coef @ active
        w -= (active.conj() @ w) @ active  # second pass: twice is enough
        beta[k] = np.linalg.norm(w)
        theta, vecs = sla.eigh_tridiagonal(alpha[:k + 1], beta[:k])
        bound = beta[k] * np.abs(vecs[-1, ends])
        if np.all(bound <= 1e-12 * np.maximum(1.0, np.abs(theta[ends]))):
            return float(theta[0]), float(theta[-1])
        q = w / beta[k]
    return None
