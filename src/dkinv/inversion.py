"""Closed-form inversion of I + (dilation-difference kernel) operators.

The dilated coordinate turns the operator into a semiseparable one whose
inverse is assembled from the fundamental solution U of a piecewise-constant
(after conjugation) linear ODE on [0, d_1*l].  The pieces:

* a doubled state generator ``A = i*diag(beta^H, beta)`` of size 2n,
* per level-segment a rank-structured correction ``Y_j`` and the shifted
  generator ``A + Y_j``, giving U in closed form segment by segment,
* the branch projector ``P`` built from the corner value U(d_1*l), whose
  lower-right block decides invertibility,
* explicit inverse-kernel entries combining a left row vector, the branch
  projector (or its complement), and a right column vector.

The corner block being singular is a meaningful outcome, not a failure: it
comes back as a :class:`SingularCornerReport` and the associated null
functions of the operator are produced by :func:`null_basis_functions`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

from .kernels import DiagonalStructure, Realization
from .linalg import RCOND_MIN, frob, mat_exp, solve, symplectic_j

__all__ = [
    "FundamentalSolution",
    "InverseKernel",
    "SingularCornerReport",
    "SingularOperatorError",
    "branch_projector",
    "null_basis_functions",
]

_FUZZ = 1e-12  # relative slack on interval-boundary comparisons


class SingularOperatorError(ValueError):
    """Entry evaluation was requested for a non-invertible operator."""

    def __init__(self, message: str, report: "SingularCornerReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SingularCornerReport:
    """Evidence that the corner block U22(a) is numerically singular."""

    rcond: float            # sigma_min(U22(a)) / sigma_max(U(a))
    null_basis: np.ndarray  # n x r orthonormal basis of Ker U22(a)


@dataclass(frozen=True)
class _Segment:
    left: float             # closed left endpoint
    right: float            # open right endpoint (closed for the last segment)
    level: int              # level index j in 2..k+1 selecting P_j
    gen_cross: np.ndarray   # A + Y_j
    exp_left_neg: np.ndarray   # e^{-left*A}
    u_left: np.ndarray         # U(left)
    right_cache: np.ndarray    # e^{left*A} U(left)
    left_cache: np.ndarray     # U(left)^{-1} e^{-left*A}
    projector: np.ndarray      # P_j (p x p)


class FundamentalSolution:
    """Piecewise closed-form fundamental solution U(y) on [0, d_1*l].

    Segment boundaries sit at the level breakpoints d~_j * l; on the segment
    with closed left endpoint L and level index j,

        U(y) = e^{-yA} e^{(y-L)(A+Y_j)} e^{LA} U(L),

    chained from U(0) = I.  A breakpoint belongs to the segment where it is
    the left endpoint; the last segment also owns its right endpoint.  All
    caches are built up front, so concurrent evaluation is safe.
    """

    def __init__(self, realization: Realization):
        r = realization
        self.realization = r
        n, p = r.n, r.p
        self.state_dim = 2 * n
        self.j_matrix = symplectic_j(n)
        self.interval = r.diag.d[0] * r.length  # = a, the dilated right end

        gen = np.zeros((2 * n, 2 * n), dtype=complex)
        gen[:n, :n] = 1j * r.beta.conj().T
        gen[n:, n:] = 1j * r.beta
        self.generator = gen  # the matrix called A above

        # [-theta1; theta2] and [theta2^H, theta1^H]: the two rank factors.
        self.stack = np.vstack([-r.theta1, r.theta2])
        self.adj_row = np.hstack([r.theta2.conj().T, r.theta1.conj().T])

        lefts, levels = self._segment_grid(r.diag, r.length)
        self.breakpoints = np.array(lefts + [self.interval])

        dinv = r.diag.inv_matrix
        segments: List[_Segment] = []
        u_left = np.eye(2 * n, dtype=complex)
        for left, nxt, level in zip(lefts, lefts[1:] + [self.interval], levels):
            proj = r.diag.projector(level)
            y_corr = self.stack @ dinv @ proj @ self.adj_row
            exp_pos = mat_exp(left * gen)
            exp_neg = mat_exp(-left * gen)
            right_cache = exp_pos @ u_left
            left_cache = self._invert(u_left) @ exp_neg
            seg = _Segment(left, nxt, level, gen + y_corr, exp_neg,
                           u_left, right_cache, left_cache, proj)
            segments.append(seg)
            # chain: U(next) = e^{-next*A} e^{(next-left)(A+Y_j)} right_cache
            u_left = mat_exp(-nxt * gen) @ mat_exp((nxt - left) * seg.gen_cross) \
                @ right_cache
        self.segments = segments
        self._corner = u_left  # U(a)
        for seg in segments:
            for arr in (seg.gen_cross, seg.exp_left_neg,
                        seg.u_left, seg.right_cache, seg.left_cache):
                arr.flags.writeable = False

    @staticmethod
    def _segment_grid(diag: DiagonalStructure, length: float):
        """Segment left ends 0 < d~_{k-1} l < ... < d~_1 l and their levels.

        The segment starting at lefts[m] has level index k+1-m, so the
        innermost segment gets P_{k+1} = I.
        """
        k = diag.num_levels
        lefts = [0.0] + [diag.levels[m] * length for m in range(k - 1, 0, -1)]
        return lefts, list(range(k + 1, 1, -1))

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """U^{-1} through the symplectic-type relation, solve as fallback.

        The residual is scaled by 1 + ||U||^2 (matching the unitarity
        invariant): for large-norm U the structured inverse is exact algebra
        while a direct solve would be limited by the condition number.
        """
        jt = self.j_matrix
        ui = jt.conj().T @ u.conj().T @ jt
        residual = frob(u @ ui - np.eye(self.state_dim))
        if residual > 1e-6 * (1.0 + frob(u) ** 2):
            ui = solve(u, np.eye(self.state_dim, dtype=complex))
        return ui

    # -- segment lookup ------------------------------------------------------

    def _locate(self, y: float) -> tuple[_Segment, float]:
        a = self.interval
        if y < -_FUZZ * a or y > a * (1 + _FUZZ):
            raise ValueError(f"coordinate {y} outside [0, {a}]")
        y = min(max(y, 0.0), a)
        idx = bisect_right(self.breakpoints[:-1], y) - 1
        idx = max(idx, 0)
        return self.segments[idx], y

    def segment_level(self, y: float) -> int:
        return self._locate(y)[0].level

    # -- evaluators ----------------------------------------------------------

    def value(self, y: float) -> np.ndarray:
        """U(y); two matrix exponentials beyond the cached segment data."""
        seg, y = self._locate(y)
        off = y - seg.left
        if off == 0.0:
            return seg.u_left
        return seg.exp_left_neg @ mat_exp(-off * self.generator) \
            @ mat_exp(off * seg.gen_cross) @ seg.right_cache

    def inverse(self, y: float) -> np.ndarray:
        return self._invert(self.value(y))

    def corner(self) -> np.ndarray:
        """U(a) at the dilated right end a = d_1*l."""
        return self._corner

    def propagated(self, y: float) -> np.ndarray:
        """e^{yA} U(y), the left-propagated solution (one exponential)."""
        seg, y = self._locate(y)
        return mat_exp((y - seg.left) * seg.gen_cross) @ seg.right_cache

    def c_times_u(self, y: float) -> np.ndarray:
        """C(y) U(y) without forming U (single exponential)."""
        seg, y = self._locate(y)
        return seg.projector @ self.adj_row \
            @ mat_exp((y - seg.left) * seg.gen_cross) @ seg.right_cache

    def left_row(self, i: int, x: float) -> np.ndarray:
        """Row factor e_i [theta2^H, theta1^H] e^{yA} U(y) at y = d_i x."""
        r = self.realization
        if not -_FUZZ <= x <= r.length * (1 + _FUZZ):
            raise ValueError(f"argument {x} outside [0, {r.length}]")
        seg, y = self._locate(r.diag.d[i] * x)
        return self.adj_row[i, :] \
            @ mat_exp((y - seg.left) * seg.gen_cross) @ seg.right_cache

    def right_col(self, j: int, t: float) -> np.ndarray:
        """Column factor U(z)^{-1} e^{-zA} [-theta1; theta2] e_j at z = d_j t."""
        r = self.realization
        if not -_FUZZ <= t <= r.length * (1 + _FUZZ):
            raise ValueError(f"argument {t} outside [0, {r.length}]")
        seg, z = self._locate(r.diag.d[j] * t)
        return seg.left_cache \
            @ mat_exp(-(z - seg.left) * seg.gen_cross) @ self.stack[:, j]


def branch_projector(
    fund: FundamentalSolution,
) -> Union[np.ndarray, SingularCornerReport]:
    """Branch projector from the corner U(a), or a singularity report.

    Returns [[0, 0], [U22(a)^{-1} U21(a), I_n]] when the lower-right corner
    block is invertible to the library rcond threshold.  Otherwise returns a
    report with an orthonormal basis of its null space — a legitimate result
    describing a non-invertible operator.

    Singularity of the block is judged against the largest singular value of
    the *whole* corner matrix U(a), not of the block alone: the block of a
    nearly singular problem can be tiny in every entry (for n = 1 it is a
    single number, whose lone singular value makes the block-relative ratio
    identically one), and only the full corner fixes the problem's scale.
    """
    n = fund.state_dim // 2
    corner = fund.corner()
    u21 = corner[n:, :n]
    u22 = corner[n:, n:]
    scale = float(np.linalg.svd(corner, compute_uv=False)[0])
    sv = np.linalg.svd(u22, compute_uv=False)
    rcond = float(sv[-1] / scale) if scale > 0 else 0.0
    if rcond < RCOND_MIN:
        _, s, vh = np.linalg.svd(u22)
        mask = s <= scale * RCOND_MIN
        basis = vh[mask].conj().T
        if basis.size == 0:  # pragma: no cover - rcond gate guarantees a vector
            basis = vh[-1:].conj().T
        return SingularCornerReport(rcond=rcond, null_basis=basis)
    proj = np.zeros((2 * n, 2 * n), dtype=complex)
    proj[n:, :n] = solve(u22, u21)
    proj[n:, n:] = np.eye(n)
    return proj


class InverseKernel:
    """Explicit entries of the inverse of I + (dilation-difference kernel).

    The inverse is again I plus an integral operator; ``entry`` evaluates its
    kernel at one point, ``block_values`` on a full grid.  Above the
    separating line d_i x = d_j t the branch complement I - P applies, below
    it -P; points exactly on a line take the upper branch (the one-sided
    limit from d_i x > d_j t).
    """

    def __init__(self, realization: Realization,
                 fund: FundamentalSolution,
                 projector: Union[np.ndarray, SingularCornerReport]):
        self.realization = realization
        self.fund = fund
        if isinstance(projector, SingularCornerReport):
            self.invertible = False
            self.singular_report = projector
            self.p_cross = None
            self.upper_factor = None
        else:
            self.invertible = True
            self.singular_report = None
            self.p_cross = projector
            self.upper_factor = np.eye(fund.state_dim) - projector
            self.p_cross.flags.writeable = False
            self.upper_factor.flags.writeable = False

    @classmethod
    def from_realization(cls, realization: Realization) -> "InverseKernel":
        fund = FundamentalSolution(realization)
        return cls(realization, fund, branch_projector(fund))

    def _require_invertible(self) -> None:
        if not self.invertible:
            raise SingularOperatorError(
                "operator is not invertible (corner block rcond "
                f"{self.singular_report.rcond:.3e}); query the null basis instead",
                self.singular_report,
            )

    def entry(self, i: int, j: int, x: float, t: float) -> complex:
        """Kernel entry of the inverse at components (i, j), points (x, t)."""
        self._require_invertible()
        d = self.realization.diag.d
        row = self.fund.left_row(i, x)
        col = self.fund.right_col(j, t)
        if d[i] * x >= d[j] * t:
            return complex(row @ self.upper_factor @ col)
        return complex(-(row @ self.p_cross @ col))

    def block_values(self, xs: np.ndarray, ts: np.ndarray,
                     line_tol: float = 0.0) -> np.ndarray:
        """Kernel values on a product grid, component-major layout.

        The result has shape (p*len(xs), p*len(ts)) with row index i*len(xs)+a
        for component i at xs[a] (columns likewise).  ``line_tol`` widens the
        band treated as on-line (assigned to the upper branch), which keeps
        grids with exact dilation collisions deterministic.
        """
        self._require_invertible()
        r = self.realization
        p, two_n = r.p, self.fund.state_dim
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        rows = np.empty((p * xs.size, two_n), dtype=complex)
        for i in range(p):
            for a, x in enumerate(xs):
                rows[i * xs.size + a] = self.fund.left_row(i, x)
        cols = np.empty((two_n, p * ts.size), dtype=complex)
        for j in range(p):
            for b, t in enumerate(ts):
                cols[:, j * ts.size + b] = self.fund.right_col(j, t)
        upper = rows @ (self.upper_factor @ cols)
        lower = -(rows @ (self.p_cross @ cols))
        d = r.diag.d
        ycoord = np.repeat(d, xs.size) * np.tile(xs, p)
        zcoord = np.repeat(d, ts.size) * np.tile(ts, p)
        diff = ycoord[:, None] - zcoord[None, :]
        return np.where(diff >= -line_tol, upper, lower)


def null_basis_functions(
    fund: FundamentalSolution,
    report: SingularCornerReport,
) -> List[Callable[[float], np.ndarray]]:
    """Null functions of the operator, one per basis vector of Ker U22(a).

    Each returned callable maps x in [0, l] to the p-vector whose component i
    is [C(y) U(y) [0; g]]_i at y = d_i x — the dilated-coordinate null
    function pulled back to the original interval.
    """
    r = fund.realization
    n, p = r.n, r.p
    funcs: List[Callable[[float], np.ndarray]] = []
    for col in range(report.null_basis.shape[1]):
        tail = np.concatenate([np.zeros(n, dtype=complex),
                               report.null_basis[:, col]])

        def h(x: float, _tail: np.ndarray = tail) -> np.ndarray:
            out = np.empty(p, dtype=complex)
            for i in range(p):
                out[i] = (fund.c_times_u(r.diag.d[i] * x) @ _tail)[i]
            return out

        funcs.append(h)
    return funcs
