"""Dense complex linear-algebra substrate, on numpy alone.

Thin, contract-enforcing wrappers around numpy, a stacked scaling-and-
squaring Pade matrix exponential and the batched exponential of one
generator at many times built on it, the two block structure matrices used
throughout the package, and a power-iteration norm that stands in for dense
SVD calls on large matrices.  Everything here is a pure function of its
inputs and safe to call concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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
]

# Reciprocal 2-norm condition number below which a solve is refused.
RCOND_MIN = 1e-12

# Residual bound enforced by solve(), relative to the right-hand side.
SOLVE_RESIDUAL = 1e-10

# Taylor degree of exp_samples: the smallest K whose truncation bound at
# |t| ||m||_1 <= 1/2, (1/2)^(K+1) / (K+1)! * e^(1/2), is below 2^-53.
TAYLOR_DEGREE = 14

# 1-norm of an exponent a from which no digit of e^a is determined: the
# relative condition number of the exponential is at least ||a|| (Van Loan,
# "The sensitivity of the matrix exponential", SIAM J. Numer. Anal. 14(6),
# 1977), so rounding a alone, a relative change of 2^-53, can change e^a
# entirely.  Scaling and squaring of such an a returns rounding noise
# (zeros or an overflow), and both exponential functions refuse it.
EXP_NORM_MAX = 2.0 ** 53

# Higham, "The scaling and squaring method for the matrix exponential
# revisited" (SIAM J. Matrix Anal. Appl. 26(4), 2005), Table 2.3: the
# 1-norms theta_m up to which the unscaled degree-m Pade approximant is
# accurate to unit roundoff, and the coefficients b_0..b_m of its numerator
# p(x) (the denominator is p(-x)), for m = 3, 5, 7, 9, 13.
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                        9.504178996162932e-1, 2.097847961257068e0,
                        5.371920351148152e0])
_PADE_COEFFS = (
    (120., 60., 12., 1.),
    (30240., 15120., 3360., 420., 30., 1.),
    (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
     2162160., 110880., 3960., 90., 1.),
    (64764752532480000., 32382376266240000., 7771770303897600.,
     1187353796428800., 129060195264000., 10559470521600., 670442572800.,
     33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.),
)


def _pade_rows(b) -> np.ndarray:
    """Degree-m numerator p(x) = x u(x^2) + v(x^2) as the coefficients of
    I, a^2, a^4, a^6 in the four sums of Higham's Algorithm 2.3,
    u = a^6 hi_u + lo_u and v = a^6 hi_v + lo_v (rows in that order)."""
    odd, even = np.zeros(7), np.zeros(7)
    odd[:len(b) // 2], even[:(len(b) + 1) // 2] = b[1::2], b[0::2]
    return np.array([[0.0, *odd[4:]], odd[:4], [0.0, *even[4:]], even[:4]])


_PADE_ROWS = np.array([_pade_rows(b) for b in _PADE_COEFFS])


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


def _pade(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pade approximants of e^a for each slice of a stack, slice k of the
    degree whose :func:`_pade_rows` are rows[k].

    Every degree is evaluated in the form of Higham's degree-13 Algorithm
    2.3 (six products), the lower ones with zero coefficients, so that the
    whole stack is one pass: (v - u)^{-1} (v + u) with the odd part
    a u(a^2) and the even part v(a^2) of the numerator.
    """
    size = a.shape[-1]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    evens = np.stack([np.broadcast_to(np.eye(size), a.shape), a2, a4, a6],
                     axis=1).reshape(len(a), 4, size * size)
    hi_u, lo_u, hi_v, lo_v = (rows @ evens).reshape(
        len(a), 4, size, size).transpose(1, 0, 2, 3)
    u = a @ (a6 @ hi_u + lo_u)
    v = a6 @ hi_v + lo_v
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a for each slice of a (k, n, n) stack, by scaling and squaring.

    Higham's 2005 algorithm, slice by slice: a slice of 1-norm at most
    theta_m takes the lowest such Pade degree m unscaled; one above
    theta_13 is divided by its own power of two 2^s, the least that brings
    it under theta_13, takes degree 13, and is squared s times.  A zero
    slice is the identity exactly.  Raises ValueError when the operand is
    not finite, a slice's 1-norm reaches EXP_NORM_MAX, or the result
    overflows.
    """
    if not np.isfinite(a).all():
        raise ValueError("matrix exponential operand contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
        if not (norms < EXP_NORM_MAX).all():
            raise ValueError(
                f"matrix exponential operand has 1-norm {norms.max():.3e}; "
                "from 2^53 on no digit of its exponential is determined")
        rows = _PADE_ROWS[np.searchsorted(_PADE_THETA[:-1], norms)]
        powers = np.maximum(
            0.0, np.ceil(np.log2(norms / _PADE_THETA[-1]))).astype(int)
        out = _pade(a / np.ldexp(1.0, powers)[:, None, None], rows)
        for step in range(powers.max(initial=0)):
            sq = powers > step
            out[sq] = out[sq] @ out[sq]
    out[norms == 0.0] = np.eye(a.shape[-1])
    if not np.isfinite(out).all():
        raise ValueError("matrix exponential overflows")
    return out


def mat_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade core).

    Exact to roundoff for nilpotent input, where the series terminates.
    Raises ValueError when the operand is not finite, its 1-norm reaches
    EXP_NORM_MAX, or the result overflows.
    """
    return _expm(_square(m, "mat_exp operand")[None])[0]


def exp_samples(m, s) -> np.ndarray:
    """e^{s_k m} for one square m and many real s_k, shape (len(s), n, n).

    One generator at many times is the setting of Al-Mohy and Higham,
    "Computing the action of the matrix exponential" (SIAM J. Sci. Comput.
    33(2), 2011).  Anchors c sit on the grid of spacing 1/||m||_1 nearest
    each s_k, and each sample is e^{cm} times the degree-TAYLOR_DEGREE
    Taylor polynomial of e^{tm} at t = s_k - c, where |t| ||m||_1 <= 1/2.
    Only the anchors go through the Pade exponential; the polynomials of
    all samples are one matrix product, and each occupied anchor multiplies
    its own samples in place.  The TAYLOR_DEGREE products that build
    the polynomial pay off only when they save at least as many Pade
    evaluations, so with fewer samples than anchors plus TAYLOR_DEGREE
    every sample is its own anchor.  Raises ValueError when some
    |s_k| ||m||_1 reaches EXP_NORM_MAX or some e^{s_k m} overflows.
    """
    m = _square(m, "exp_samples operand")
    s = np.asarray(s, dtype=float).reshape(-1)
    if not np.isfinite(s).all():
        raise ValueError("exp_samples times contain non-finite entries")
    norm = np.linalg.norm(m, 1)
    with np.errstate(over="ignore"):
        reach = np.abs(s).max(initial=0.0) * norm
    if not reach < EXP_NORM_MAX:
        raise ValueError(
            f"exp_samples: |s| ||m||_1 reaches {reach:.3e}; from 2^53 on no "
            "digit of e^{s m} is determined")
    # Too few samples to save TAYLOR_DEGREE anchors, or m = 0, whose
    # exponentials the kernel sets to the identity.
    if s.size <= TAYLOR_DEGREE or norm == 0.0:
        return _expm(s[:, None, None] * m)
    ticks = np.rint(s * norm)
    first = ticks.min()
    count = int(ticks.max() - first) + 1
    if s.size - count < TAYLOR_DEGREE:
        return _expm(s[:, None, None] * m)
    anchors = _expm(((first + np.arange(count)) / norm)[:, None, None] * m)
    # (m / ||m||_1)^k / k! against (t ||m||_1)^k, |t| ||m||_1 <= 1/2.
    size, unit = m.shape[0], m / norm
    powers = np.empty((TAYLOR_DEGREE + 1, size, size), dtype=complex)
    powers[0] = np.eye(size)
    for k in range(1, TAYLOR_DEGREE + 1):
        np.matmul(powers[k - 1], unit / k, out=powers[k])
    taylor = (np.vander(s * norm - ticks, TAYLOR_DEGREE + 1, increasing=True)
              @ powers.reshape(TAYLOR_DEGREE + 1, -1)).reshape(-1, size, size)
    slot = (ticks - first).astype(int)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.unique(slot):
            at = slot == k
            taylor[at] = anchors[k] @ taylor[at]
    if not np.isfinite(taylor).all():
        raise ValueError("matrix exponential overflows")
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
