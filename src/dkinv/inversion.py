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
from .linalg import RCOND_MIN, exp_samples, frob, mat_exp, solve, symplectic_j

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
        exp_neg = np.eye(2 * n, dtype=complex)  # e^{-left*A}, chained
        for left, nxt, level in zip(lefts, lefts[1:] + [self.interval], levels):
            proj = r.diag.projector(level)
            y_corr = self.stack @ dinv @ proj @ self.adj_row
            exp_pos = mat_exp(left * gen) if left else np.eye(2 * n, dtype=complex)
            right_cache = exp_pos @ u_left
            left_cache = self._invert(u_left) @ exp_neg
            seg = _Segment(left, nxt, level, gen + y_corr, exp_neg,
                           u_left, right_cache, left_cache, proj)
            segments.append(seg)
            # chain: U(next) = e^{-next*A} e^{(next-left)(A+Y_j)} right_cache
            exp_neg = mat_exp(-nxt * gen)
            u_left = exp_neg @ mat_exp((nxt - left) * seg.gen_cross) @ right_cache
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

    def _segment_exps(self, comp: np.ndarray, pts, sign: float):
        """(segment, mask, e^{sign (y-L)(A+Y_j)}) per segment holding points.

        y = d_c x for the pairs (c, x) of ``comp`` and ``pts``, x in [0, l];
        a breakpoint goes to the segment it opens, as in :meth:`_locate`.
        The mask selects the pairs in the segment, whose exponentials come
        from one :func:`exp_samples` call.
        """
        r = self.realization
        pts = np.asarray(pts, dtype=float)
        inside = (pts >= -_FUZZ) & (pts <= r.length * (1 + _FUZZ))
        if not inside.all():
            raise ValueError(f"argument {pts[~inside][0]} outside [0, {r.length}]")
        y = (r.diag.d[comp] * pts).clip(0.0, self.interval)
        idx = np.maximum(
            np.searchsorted(self.breakpoints[:-1], y, side="right") - 1, 0)
        off = sign * (y - self.breakpoints[idx])
        for k in sorted(set(idx.tolist())):
            at = idx == k
            seg = self.segments[k]
            yield seg, at, exp_samples(seg.gen_cross, off[at])

    def _rows(self, comp: np.ndarray, pts) -> np.ndarray:
        """Rows adj_row[c] e^{(y-L)(A+Y_j)} right_cache at y = d_c x."""
        out = np.empty((comp.size, self.state_dim), dtype=complex)
        for seg, at, exps in self._segment_exps(comp, pts, 1.0):
            out[at] = (self.adj_row[comp[at], None, :] @ exps
                       @ seg.right_cache)[:, 0, :]
        return out

    def _cols(self, comp: np.ndarray, pts) -> np.ndarray:
        """Columns left_cache e^{-(z-L)(A+Y_j)} stack[:, c] at z = d_c t."""
        out = np.empty((self.state_dim, comp.size), dtype=complex)
        for seg, at, exps in self._segment_exps(comp, pts, -1.0):
            out[:, at] = seg.left_cache \
                @ (exps @ self.stack.T[comp[at], :, None])[:, :, 0].T
        return out

    def left_row(self, i: int, x: float) -> np.ndarray:
        """Row factor e_i [theta2^H, theta1^H] e^{yA} U(y) at y = d_i x."""
        return self._rows(np.array([i]), [x])[0]

    def right_col(self, j: int, t: float) -> np.ndarray:
        """Column factor U(z)^{-1} e^{-zA} [-theta1; theta2] e_j at z = d_j t."""
        return self._cols(np.array([j]), [t])[:, 0]

    def left_rows(self, xs) -> np.ndarray:
        """``left_row(i, x)`` for every component i and x in ``xs``.

        Component-major: row i*len(xs) + a is left_row(i, xs[a]).  Points
        are grouped by segment, one :func:`exp_samples` call per segment.
        """
        xs = np.asarray(xs, dtype=float)
        p = self.realization.p
        return self._rows(np.repeat(np.arange(p), xs.size), np.tile(xs, p))

    def right_cols(self, ts) -> np.ndarray:
        """``right_col(j, t)`` as column j*len(ts) + b, as in :meth:`left_rows`."""
        ts = np.asarray(ts, dtype=float)
        p = self.realization.p
        return self._cols(np.repeat(np.arange(p), ts.size), np.tile(ts, p))


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
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        rows = self.fund.left_rows(xs)
        cols = self.fund.right_cols(ts)
        # The upper branch everywhere, then -P where d_i x < d_j t - line_tol.
        # The -P branch is one product: one product per component row block
        # left the CSV writer of `invert` ~20% slower afterwards (measured
        # in process on seed 9, grid 128; cause not identified).
        out = rows @ (self.upper_factor @ cols)
        lower = rows @ -(self.p_cross @ cols)
        d = r.diag.d
        zcoord = np.kron(d, ts)
        for i in range(r.p):
            block = slice(i * xs.size, (i + 1) * xs.size)
            below = (d[i] * xs)[:, None] - zcoord[None, :] < -line_tol
            np.copyto(out[block], lower[block], where=below)
        return out


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
