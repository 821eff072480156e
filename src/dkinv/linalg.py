"""Dense complex linear-algebra substrate.

Thin, contract-enforcing wrappers around numpy/scipy plus the two block
structure matrices used throughout the package.  Everything here is a pure
function of its ndarray inputs and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DimensionError",
    "SingularMatrixError",
    "RCOND_MIN",
    "as_matrix",
    "mat_exp",
    "eig_spectrum",
    "solve",
    "exchange_j",
    "symplectic_j",
    "frob",
    "spectral_norm",
]

# Reciprocal 2-norm condition number below which a solve is refused.
RCOND_MIN = 1e-12

# Residual bound enforced by solve(), relative to the right-hand side.
SOLVE_RESIDUAL = 1e-10


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


def spectral_norm(a) -> float:
    """Largest singular value, by power iteration on a^H a.

    At most 200 steps, stopping once the estimate moves by at most 1e-9
    relative.  Deterministic (fixed, slightly skewed start vector) so
    repeated runs agree to the bit; a few hundred matvecs beat a full SVD
    by orders of magnitude on the large discretized operators this gets
    applied to.
    """
    a = as_matrix(a, "spectral_norm operand")
    if a.size == 0:
        return 0.0
    cols = a.shape[1]
    v = np.ones(cols, dtype=complex) + 1e-3j * np.arange(cols)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(200):
        w = a @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_next = a.conj().T @ w
        norm_next = np.linalg.norm(v_next)
        previous, estimate = estimate, float(norm_w)
        if norm_next == 0.0:
            return estimate
        v = v_next / norm_next
        if abs(estimate - previous) <= 1e-9 * estimate:
            break
    return estimate
