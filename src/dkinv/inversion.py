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
functions of the operator are evaluated by :func:`null_basis_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .kernels import Realization
from .linalg import RCOND_MIN, exp_samples, solve, symplectic_j

__all__ = [
    "FundamentalSolution",
    "InverseKernel",
    "SingularCornerReport",
    "SingularOperatorError",
    "branch_projector",
    "branch_projectors",
    "null_basis_values",
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
    """One segment of U.  From :meth:`FundamentalSolution.chain` the
    endpoints and the caches carry a leading axis over interval lengths."""

    left: float             # closed left endpoint
    right: float            # open right endpoint (closed for the last segment)
    level: int              # level index j in 2..k+1 selecting P_j
    gen_cross: np.ndarray   # A + Y_j
    right_cache: np.ndarray    # e^{left*A} U(left)
    left_cache: np.ndarray     # U(left)^{-1} e^{-left*A}
    exp_span: np.ndarray       # e^{(right-left)(A+Y_j)}
    projector: np.ndarray      # P_j (p x p)

    def at(self, k: int) -> "_Segment":
        """The segment of the k-th interval length of a chain."""
        return _Segment(float(self.left[k]), float(self.right[k]), self.level,
                        self.gen_cross, self.right_cache[k], self.left_cache[k],
                        self.exp_span[k], self.projector)


class _StateSystem:
    """The length-independent data of U and the chain of segments built
    from it: the doubled generator A, the rank factors and J."""

    def __init__(self, realization: Realization):
        r = realization
        self.realization = r
        n = r.n
        self.state_dim = 2 * n
        self.j_matrix = symplectic_j(n)

        gen = np.zeros((2 * n, 2 * n), dtype=complex)
        gen[:n, :n] = 1j * r.beta.conj().T
        gen[n:, n:] = 1j * r.beta
        self.generator = gen  # the matrix called A below

        # [-theta1; theta2] and [theta2^H, theta1^H]: the two rank factors.
        self.stack = np.vstack([-r.theta1, r.theta2])
        self.adj_row = np.hstack([r.theta2.conj().T, r.theta1.conj().T])

    def chain(self, lengths) -> tuple[List[_Segment], np.ndarray]:
        """Segments of U on [0, d_1 x] and the corner U(d_1 x), for every
        interval length x in ``lengths``.

        A breakpoint of the length-x interval is a level value times x, so
        each exponential of the chain is e^{c x M} for a fixed matrix M and
        factor c, and one :func:`exp_samples` call, with one generator per
        exponential, serves every length and segment:

            U(R) = e^{-RA} e^{(R-L)(A+Y_j)} e^{LA} U(L),   U(0) = I.

        Endpoints and caches of the returned segments, and the corners, are
        stacked along a leading axis over ``lengths``.
        """
        r = self.realization
        xs = np.asarray(lengths, dtype=float)
        gen = self.generator
        dinv = r.diag.inv_matrix
        # Left ends 0 < d~_{k-1} < ... < d~_1 per unit length; the segment
        # opened by the m-th has level index k+1-m, the innermost P_{k+1} = I.
        k = r.diag.num_levels
        factors = [0.0] + [float(r.diag.levels[m]) for m in range(k - 1, 0, -1)]
        lefts = [c * xs for c in factors]
        rights = lefts[1:] + [r.diag.d[0] * xs]
        levels = range(k + 1, 1, -1)
        projs = [r.diag.projector(level) for level in levels]
        crosses = [gen + self.stack @ dinv @ proj @ self.adj_row
                   for proj in projs]
        # Per segment e^{LA} (but at L = 0), e^{(R-L)(A+Y_j)} and e^{-RA}.
        gens, times = [], []
        for m, (cross, left, right) in enumerate(zip(crosses, lefts, rights)):
            if m:
                gens.append(gen)
                times.append(left)
            gens += [cross, gen]
            times += [right - left, -right]
        exps = iter(np.split(exp_samples(np.stack(gens), times), len(gens)))
        # U(0) = I: the first segment's caches are the identity.
        right_cache = left_cache = np.broadcast_to(
            np.eye(self.state_dim, dtype=complex), (xs.size,) + gen.shape)
        segments: List[_Segment] = []
        for m, (left, right, level, gen_cross, proj) in enumerate(
                zip(lefts, rights, levels, crosses, projs)):
            if m:  # u_left and exp_neg are U(L) and e^{-LA}, chained
                right_cache = next(exps) @ u_left
                left_cache = self._invert(u_left) @ exp_neg
            span = next(exps)
            segments.append(_Segment(left, right, level, gen_cross,
                                     right_cache, left_cache, span, proj))
            exp_neg = next(exps)
            u_left = exp_neg @ span @ right_cache
        return segments, u_left

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """U^{-1} through the symplectic-type relation, solve as fallback.

        ``u`` is one matrix or a stack of them; the matrices whose residual
        is too large go to one stacked :func:`solve`.

        The residual is scaled by 1 + ||U||^2 (matching the unitarity
        invariant): for large-norm U the structured inverse is exact algebra
        while a direct solve would be limited by the condition number.
        """
        jt = self.j_matrix
        eye = np.eye(self.state_dim, dtype=complex)
        us = u.reshape(-1, *eye.shape)  # one matrix or a stack of them
        ui = jt.conj().T @ us.conj().transpose(0, 2, 1) @ jt
        residual = np.linalg.norm(us @ ui - eye, axis=(1, 2))
        bound = 1e-6 * (1.0 + np.linalg.norm(us, axis=(1, 2)) ** 2)
        bad = residual > bound
        if bad.any():
            ui[bad] = solve(us[bad], np.broadcast_to(eye, ui[bad].shape))
        return ui.reshape(u.shape)


class FundamentalSolution(_StateSystem):
    """Piecewise closed-form fundamental solution U(y) on [0, d_1*l].

    Segment boundaries sit at the level breakpoints d~_j * l; on the segment
    with closed left endpoint L and level index j,

        U(y) = e^{-yA} e^{(y-L)(A+Y_j)} e^{LA} U(L),

    chained from U(0) = I.  A breakpoint belongs to the segment where it is
    the left endpoint; the last segment also owns its right endpoint.  All
    caches are built up front, so concurrent evaluation is safe.
    """

    def __init__(self, realization: Realization):
        super().__init__(realization)
        length = realization.length
        self.interval = realization.diag.d[0] * length  # a, the dilated end
        segments, corners = self.chain([length])
        self.segments = [seg.at(0) for seg in segments]
        self._corner = corners[0]  # U(a)
        self.lefts = np.array([seg.left for seg in self.segments])
        self.crosses = np.array([seg.gen_cross for seg in self.segments])
        for seg in self.segments:
            for arr in (seg.gen_cross, seg.right_cache, seg.left_cache,
                        seg.exp_span):
                arr.flags.writeable = False

    # -- segment lookup ------------------------------------------------------

    def _segments_at(self, ys, sign: float = 1.0):
        """(segment, mask, e^{sign (y-L)(A+Y_j)}) for each segment holding
        some of ``ys``.

        ``ys`` are dilated coordinates in [0, a], up to the relative slack
        _FUZZ, and are clamped into it.  A breakpoint belongs to the segment
        it opens; the last segment also owns a.  Every evaluator below finds
        its segments here, and the exponentials of all of them come from
        one :func:`exp_samples` call.
        """
        ys = np.asarray(ys, dtype=float)
        a = self.interval
        inside = (ys >= -_FUZZ * a) & (ys <= a * (1 + _FUZZ))
        if not inside.all():
            raise ValueError(f"coordinate {ys[~inside][0]} outside [0, {a}]")
        ys = ys.clip(0.0, a)
        idx = np.maximum(np.searchsorted(self.lefts, ys, side="right") - 1, 0)
        held = np.unique(idx)
        masks = [idx == k for k in held]
        offsets = [ys[at] - self.lefts[k] for k, at in zip(held, masks)]
        exps = exp_samples(self.crosses[held], [sign * off for off in offsets])
        stop = 0
        for k, at, off in zip(held, masks, offsets):
            start, stop = stop, stop + off.size
            yield self.segments[k], at, exps[start:stop]

    def _dilated(self, comp: np.ndarray, pts) -> np.ndarray:
        """y = d_c x for the pairs (c, x) of ``comp`` and ``pts``, x in [0, l]."""
        r = self.realization
        pts = np.asarray(pts, dtype=float)
        inside = (pts >= -_FUZZ * r.length) & (pts <= r.length * (1 + _FUZZ))
        if not inside.all():
            raise ValueError(f"argument {pts[~inside][0]} outside [0, {r.length}]")
        return r.diag.d[comp] * pts

    # -- evaluators ----------------------------------------------------------

    def propagated(self, ys) -> np.ndarray:
        """e^{yA} U(y) at the dilated points ``ys``, from one exponential
        call: one matrix for a scalar y, else a stack of shape
        ``np.shape(ys) + (2n, 2n)``."""
        flat = np.reshape(ys, -1)
        out = np.empty((flat.size,) + self.generator.shape, dtype=complex)
        for seg, at, exps in self._segments_at(flat):
            out[at] = exps @ seg.right_cache
        return out.reshape(np.shape(ys) + self.generator.shape)

    def value(self, ys) -> np.ndarray:
        """U(y), e^{-yA} times :meth:`propagated`, shaped as it."""
        prop = self.propagated(ys)
        back = exp_samples(self.generator, -np.clip(ys, 0.0, self.interval))
        return back.reshape(prop.shape) @ prop

    def corner(self) -> np.ndarray:
        """U(a) at the dilated right end a = d_1*l."""
        return self._corner

    def _rows(self, comp: np.ndarray, pts) -> np.ndarray:
        """Rows adj_row[c] e^{(y-L)(A+Y_j)} right_cache at y = d_c x."""
        out = np.empty((comp.size, self.state_dim), dtype=complex)
        for seg, at, exps in self._segments_at(self._dilated(comp, pts)):
            out[at] = (self.adj_row[comp[at], None, :] @ exps
                       @ seg.right_cache)[:, 0, :]
        return out

    def _cols(self, comp: np.ndarray, pts) -> np.ndarray:
        """Columns left_cache e^{-(z-L)(A+Y_j)} stack[:, c] at z = d_c t."""
        out = np.empty((self.state_dim, comp.size), dtype=complex)
        for seg, at, exps in self._segments_at(self._dilated(comp, pts),
                                               -1.0):
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

        Component-major: row i*len(xs) + a is left_row(i, xs[a]).  The
        points of all segments share one :func:`exp_samples` call.
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
    return branch_projectors(fund.corner()[None])[0]


def branch_projectors(
    corners: np.ndarray,
) -> List[Union[np.ndarray, SingularCornerReport]]:
    """:func:`branch_projector` of every corner in a stack of them.

    One stacked SVD of the blocks U22 gives the gate and the null bases;
    the projectors of all invertible corners are one guarded :func:`solve`.
    """
    n = corners.shape[-1] // 2
    u21 = corners[:, n:, :n]
    u22 = corners[:, n:, n:]
    scales = np.linalg.svd(corners, compute_uv=False)[:, 0]
    _, sv, vh = np.linalg.svd(u22)
    # Singular values are descending, so a corner fails the gate exactly
    # when its null basis below holds at least one vector.
    small = sv <= scales[:, None] * RCOND_MIN
    ok = ~small[:, -1]
    projs = np.zeros(corners.shape, dtype=complex)
    projs[ok, n:, :n] = solve(u22[ok], u21[ok])
    projs[:, n:, n:] = np.eye(n)
    out: List[Union[np.ndarray, SingularCornerReport]] = list(projs)
    for k in np.flatnonzero(~ok):
        rcond = float(sv[k, -1] / scales[k]) if scales[k] > 0 else 0.0
        out[k] = SingularCornerReport(rcond=rcond,
                                      null_basis=vh[k][small[k]].conj().T)
    return out


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


def null_basis_values(
    fund: FundamentalSolution,
    report: SingularCornerReport,
    xs,
) -> np.ndarray:
    """Null functions of the operator at the points ``xs`` of [0, l].

    Returns an (r, len(xs), p) array, one slice per basis vector g of
    Ker U22(a): entry [k, a, i] is [C(y) U(y) [0; g_k]]_i at y = d_i xs[a],
    the dilated-coordinate null function pulled back to the original
    interval.  C(y) is P(y) [theta2^H, theta1^H] e^{yA}, and P(y) keeps
    component i at y = d_i x for every x < l, so component i is the row
    factor of :meth:`FundamentalSolution.left_rows` times [0; g]; at x = l,
    where the segment lookup has moved past component i's last segment,
    that is its limit from the left.
    """
    xs = np.asarray(xs, dtype=float)
    basis = report.null_basis
    values = fund.left_rows(xs) @ np.vstack([np.zeros_like(basis), basis])
    return values.reshape(fund.realization.p, xs.size, -1).transpose(2, 1, 0)
