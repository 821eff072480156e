"""Dense complex linear-algebra substrate, on numpy alone.

Thin, contract-enforcing wrappers around numpy, a stacked scaling-and-
squaring Pade matrix exponential and, built on it, the batched exponential
of a stack of generators, each at many times, in one Pade call; the two
block structure matrices used throughout the package, and a power-iteration
norm that stands in for dense SVD calls on large matrices.  Everything here
is a pure function of its inputs and safe to call concurrently.
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
    """e^{s_k m_j} for a (g, n, n) stack of generators m_j, each at its own
    real times s_j (``s`` a sequence of g arrays), stacked generator by
    generator: shape (sum_j len(s_j), n, n).  One (n, n) generator with one
    array of times is the stack of one.

    One generator at many times is the setting of Al-Mohy and Higham,
    "Computing the action of the matrix exponential" (SIAM J. Sci. Comput.
    33(2), 2011).  Anchors c sit on the grid of spacing 1/||m||_1 nearest
    each s_k, and each sample is e^{cm} times the degree-TAYLOR_DEGREE
    Taylor polynomial of e^{tm} at t = s_k - c, where |t| ||m||_1 <= 1/2.
    Only the anchors go through the Pade exponential; the polynomials of
    all samples of a generator are one matrix product, and each sample is
    multiplied by its anchor in one gathered product.  The TAYLOR_DEGREE
    products that build the polynomial pay off only when they save at
    least as many Pade evaluations, so with fewer samples than anchors plus
    TAYLOR_DEGREE every sample is its own anchor; a zero generator gives
    identity copies without any.  The Pade evaluations of all generators
    are one :func:`_expm` call and their Taylor powers one stacked loop;
    the rest is done generator by generator, so that each generator's
    exponentials are the bits it gets alone.  Raises ValueError when some
    time is not finite, some |s_k| ||m_j||_1 reaches EXP_NORM_MAX or some
    e^{s_k m_j} overflows.
    """
    ms = np.asarray(m, dtype=complex)
    if ms.ndim == 2:
        ms, s = ms[None], [s]
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or len(s) != len(ms):
        raise DimensionError(f"exp_samples: operand shape {ms.shape} is not "
                             "one square matrix or a stack of them with one "
                             "array of times each")
    if not np.isfinite(ms).all():
        raise ValueError("exp_samples operand contains non-finite entries")
    times = [np.asarray(t, dtype=float).reshape(-1) for t in s]
    flat = np.concatenate([np.empty(0), *times])
    if not np.isfinite(flat).all():
        raise ValueError("exp_samples times contain non-finite entries")
    norms = np.abs(ms).sum(axis=1).max(axis=1, initial=0.0)  # 1-norms
    with np.errstate(over="ignore"):
        reach = np.array([np.abs(t).max(initial=0.0) for t in times]) * norms
    if not (reach < EXP_NORM_MAX).all():
        raise ValueError(
            f"exp_samples: |s| ||m||_1 reaches {reach.max():.3e}; from 2^53 "
            "on no digit of e^{s m} is determined")
    # The Pade operands of each nonzero generator: its anchors, with their
    # ticks kept, when the polynomial path pays off, else its own times.
    operands, ticks = [], {}
    for j, (gen, norm, t) in enumerate(zip(ms, norms, times)):
        if norm == 0.0:
            continue
        if t.size > TAYLOR_DEGREE:
            tick = np.rint(t * norm)
            first = tick.min()
            count = int(tick.max() - first) + 1
            if t.size - count >= TAYLOR_DEGREE:
                ticks[j] = tick
                t = (first + np.arange(count)) / norm
        operands.append(t[:, None, None] * gen)
    pades = iter(np.split(_expm(np.concatenate(operands)),
                          np.cumsum([len(a) for a in operands[:-1]]))
                 if operands else ())
    taylor = list(ticks)
    powers = dict(zip(taylor, _taylor_powers(
        ms[taylor] / norms[taylor, None, None]))) if taylor else {}
    size = ms.shape[-1]
    out = np.empty((flat.size, size, size), dtype=complex)
    stop = 0
    for j, (norm, t) in enumerate(zip(norms, times)):
        start, stop = stop, stop + t.size
        if norm == 0.0:
            out[start:stop] = np.eye(size)  # e^{s 0} is the identity exactly
            continue
        exps = next(pades)
        if j not in ticks:
            out[start:stop] = exps
            continue
        # (m / ||m||_1)^k / k! against (t ||m||_1)^k, |t| ||m||_1 <= 1/2.
        samples, tick = out[start:stop], ticks[j]
        np.matmul(np.vander(t * norm - tick, TAYLOR_DEGREE + 1,
                            increasing=True),
                  powers[j].reshape(TAYLOR_DEGREE + 1, -1),
                  out=samples.reshape(t.size, -1))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(exps[(tick - tick.min()).astype(int)], samples,
                      out=samples)
    if not np.isfinite(out).all():
        raise ValueError("matrix exponential overflows")
    return out


def _taylor_powers(units: np.ndarray) -> np.ndarray:
    """u^k / k! for k = 0..TAYLOR_DEGREE and each u of a (g, n, n) stack,
    shape (g, TAYLOR_DEGREE + 1, n, n), one stacked product per degree."""
    size = units.shape[-1]
    powers = np.empty((len(units), TAYLOR_DEGREE + 1, size, size),
                      dtype=complex)
    powers[:, 0] = np.eye(size)
    for k in range(1, TAYLOR_DEGREE + 1):
        np.matmul(powers[:, k - 1], units / k, out=powers[:, k])
    return powers


def eig_spectrum(m) -> np.ndarray:
    """Eigenvalues with multiplicity, in no particular order."""
    return np.linalg.eigvals(_square(m, "eig_spectrum operand"))


def solve(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs for one square m or each slice of a (k, n, n) stack
    (``rhs`` a matrix per slice), refusing singular slices.

    Raises SingularMatrixError, with the smallest offending rcond, when a
    reciprocal condition number drops below RCOND_MIN, or when one
    refinement step of the slices that need it cannot push the normwise
    backward error ||m x - rhs|| / (||m|| ||x|| + ||rhs||) under
    SOLVE_RESIDUAL.  The normalization matters: near a pole (resolvents
    near a real eigenvalue) ||x|| >> ||rhs|| legitimately, and a bound
    relative to ||rhs|| alone would reject solutions as good as the
    conditioning allows.
    """
    m = np.asarray(m, dtype=complex)
    r = np.asarray(rhs, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] \
            or r.shape[:-1] != m.shape[:-1]:
        raise DimensionError(f"solve: matrix shape {m.shape} and rhs shape "
                             f"{r.shape} do not match")
    if not np.isfinite(m).all():
        raise ValueError("solve matrix contains non-finite entries")
    m, r = (m[None], r[None]) if m.ndim == 2 else (m, r)
    sv = np.linalg.svd(m, compute_uv=False)
    rconds = sv[:, -1] / np.where(sv[:, 0] > 0, sv[:, 0], np.inf)
    if not (rconds >= RCOND_MIN).all():
        raise SingularMatrixError("matrix is singular to working precision",
                                  float(rconds.min()))

    def above_contract(x: np.ndarray) -> np.ndarray:
        # Per slice; a zero rhs with a zero solution is exact.
        res, nm, nx, nr = (np.linalg.norm(a, axis=(1, 2))
                           for a in (m @ x - r, m, x, r))
        return res > SOLVE_RESIDUAL * (nm * nx + nr)

    x = np.linalg.solve(m, r)
    bad = above_contract(x)
    if bad.any():
        x[bad] += np.linalg.solve(m[bad], (r - m @ x)[bad])
        bad = above_contract(x)
        if bad.any():
            raise SingularMatrixError("solve residual above contract",
                                      float(rconds[bad].min()))
    return x.reshape(np.shape(rhs))


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
