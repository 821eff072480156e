"""Midpoint-grid counterparts of the closed-form machinery.

The operator S and the inverse kernel are discretized by a midpoint
Nystrom rule, and the transfer matrix of the discrete system stands in for
the canonical system's matrizant.  ``dkinv verify`` runs its composition,
positivity and Weyl-inequality checks on these; the closed-form modules
never call into this one.

Discrete objects follow a component-major layout: a block vector sample f
on nodes x_0..x_{N-1} is flattened as f[i*N + a] = f_i(x_a), so operators
on L^2-valued p-vectors become (p*N) x (p*N) operators; neither is formed.
T_N (:class:`DiscreteOperator`) is applied by one prefix sum over the
sorted dilated nodes.  S_N is block-semiseparable
(:class:`SemiseparableOperator`): dense diagonal blocks plus rank-n
generators whose exponentials all run forward in time, so it is applied,
factored and solved in time linear in p*N.

Like the rest of the package it runs on numpy alone: block Cholesky
factors of S_N certify lambda_min by inertia, Lanczos solves its small
tridiagonal with ``np.linalg.eigh``, the transfer matrix takes one solve
with a factor and a vectorized scan for the midpoint resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .inversion import InverseKernel
from .kernels import Realization
# spectral_norm is read as discretization.spectral_norm by the benchmark's
# composition check.
from .linalg import (_start_vector, exchange_j, exp_samples, operator_norm,
                     spectral_norm)

__all__ = [
    "BlockCholesky",
    "DiscreteOperator",
    "SemiseparableOperator",
    "composition_residual",
    "discrete_matrizant",
    "discretize_inverse",
    "discretize_operator",
    "lanczos_minimum",
    "positivity_spectrum",
    "profile_samples",
]

# Krylov dimension after which lanczos_minimum stops.
LANCZOS_MAX_DIM = 300
# Lanczos tests convergence at every step up to this dimension, then at
# every 4th: each test is a dense O(k^3) eigh of the k x k tridiagonal.
LANCZOS_EVERY_STEP = 32
# Most sorted nodes in one diagonal block of S_N.
BLOCK_SIZE = 48


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The Nystrom T_N = I + h*T of an inverse kernel, applied matrix-free.

    Over the dilated nodes z, T(x, t) = -row(x) P col(t) plus row(x) col(t)
    where z_t <= z_x + tol (on-line points take the upper branch, as in
    :meth:`InverseKernel.block_values`).  So T v is -rows (P cols v) plus
    rows times the running sum of col(t) v(t) in the stable order of z, and
    T^H w runs the same sums in reverse order on the conjugate factors.
    """

    kernel: InverseKernel
    nodes: np.ndarray    # midpoint nodes, shape (N,)
    weight: float        # h
    tol: float           # ``line_tol`` of block_values
    rows: np.ndarray     # (p*N, 2n) left_rows
    cols: np.ndarray     # (2n, p*N) right_cols
    order: np.ndarray    # (p*N,) stable argsort of z
    upto: np.ndarray     # (p*N,) sorted index of the last z_t <= z_x + tol
    downto: np.ndarray   # reversed order: the last z_x >= z_t - tol

    def matvec(self, v, adjoint: bool = False) -> np.ndarray:
        """T_N v, or T_N^H v if ``adjoint``, for v of shape (p*N[, k])."""
        rows, cross, cols = self.rows, self.kernel.p_cross, self.cols
        order, last = self.order, self.upto
        if adjoint:
            rows, cross, cols = _adjoint(cols), _adjoint(cross), _adjoint(rows)
            order, last = order[::-1], self.downto
        x = np.reshape(v, (order.size, -1))
        sums = np.cumsum(cols.T[order, :, None] * x[order, None, :], axis=0)
        y = np.einsum("am,amk->ak", rows, sums[last]) \
            - rows @ (cross @ (cols @ x))
        return (x + self.weight * y).reshape(np.shape(v))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense T_N, I + h * block_values: for the references only."""
        matrix = self.kernel.block_values(self.nodes, self.nodes,
                                          line_tol=self.tol)
        matrix *= self.weight
        matrix[np.diag_indices(self.order.size)] += 1.0
        return matrix


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class SemiseparableOperator:
    """The Nystrom S_N = I + h*K from its block-semiseparable generators.

    With the dilated nodes z sorted and cut into blocks c = 0..B-1, z0_c
    the first node of block c and z0_B the last node of all, the lower
    block S_bc for b > c is h R_b E_{b-1} ... E_{c+1} C_c with

        R_c[u] = theta2^H e^{i (z_u - z0_c) beta^H}         (``rows``)
        C_c[v] = e^{i (z0_{c+1} - z_v) beta^H} theta1       (``cols``)
        E_c    = e^{i (z0_{c+1} - z0_c) beta^H}             (``steps``),

    the generator form of Eidelman and Gohberg.  Every exponent is a
    nonnegative time, so under the structure identity every factor is a
    contraction; the last block's column and step only ever meet zero
    states.  The upper blocks are the adjoints.  ``diag`` holds the dense
    diagonal blocks S_cc, and the block arrays are zero-padded to the
    largest block; ``slots`` maps each component-major index to its padded
    (block, offset) slot.
    """

    nodes: np.ndarray    # midpoint nodes, shape (N,)
    weight: float        # uniform quadrature weight h = l / N
    components: int      # p
    slots: np.ndarray    # (p*N,) block * width + offset of each index
    sizes: np.ndarray    # (B,) nodes per block
    diag: np.ndarray     # (B, width, width) diagonal blocks S_cc
    rows: np.ndarray     # (B, width, n) R_c
    cols: np.ndarray     # (B, n, width) C_c
    steps: np.ndarray    # (B, n, n) E_c

    @property
    def size(self) -> int:
        return self.slots.size

    def _pad(self, x: np.ndarray) -> np.ndarray:
        """Component-major (p*N, k) samples as padded blocks (B, width, k)."""
        blocks, width = self.diag.shape[:2]
        flat = np.zeros((blocks * width, x.shape[1]), dtype=complex)
        flat[self.slots] = x
        return flat.reshape(blocks, width, -1)

    def _unpad(self, blocks: np.ndarray, shape) -> np.ndarray:
        return blocks.reshape(-1, blocks.shape[-1])[self.slots].reshape(shape)

    def matvec(self, x) -> np.ndarray:
        """S_N x for a vector or a (p*N, k) block of vectors.

        A forward pass s_{c+1} = E_c s_c + C_c x_c carries the lower
        triangle from block to block, a backward pass
        t_{c-1} = E_c^H t_c + R_c^H x_c the upper; the diagonal blocks are
        one batched product.
        """
        x = np.asarray(x)
        xp = self._pad(x.reshape(self.size, -1))
        lower, upper = self.cols @ xp, _adjoint(self.rows) @ xp
        back = _adjoint(self.steps)
        s, t = np.zeros_like(lower), np.zeros_like(upper)
        for c in range(len(self.sizes) - 1):
            s[c + 1] = self.steps[c] @ s[c] + lower[c]
        for c in range(len(self.sizes) - 1, 0, -1):
            t[c - 1] = back[c] @ t[c] + upper[c]
        y = self.diag @ xp + self.weight * (self.rows @ s
                                            + _adjoint(self.cols) @ t)
        return self._unpad(y, x.shape)

    def factor(self, sigma: float) -> Optional["BlockCholesky"]:
        """Block Cholesky factor of S_N - sigma*I, or None where none exists.

        The generator-form recurrence of Eidelman and Gohberg (Integral
        Equations Operator Theory 34, 1999): with F = 0 to start, block c
        takes L_cc = chol(S_cc - sigma I - R_c F R_c^H), the generator
        G_c = (h C_c - E_c F R_c^H) L_cc^{-H} of its lower blocks
        L_bc = R_b E_{b-1} ... E_{c+1} G_c, and passes on
        F = E_c F E_c^H + G_c G_c^H.  The pivots are those of a dense
        Cholesky factor of the same matrix, so it fails where that one
        does; by Sylvester's law of inertia success proves that no
        eigenvalue of S_N lies below sigma.  A non-finite sigma raises.
        """
        if not np.isfinite(sigma):
            raise ValueError(f"shift sigma = {sigma} is not finite")
        state = np.zeros(self.steps.shape[1:], dtype=complex)
        # Padded slots keep an identity diagonal block and a zero generator.
        chols = np.zeros_like(self.diag) + np.eye(self.diag.shape[1])
        gens = np.zeros_like(self.cols)
        for c, m in enumerate(self.sizes):
            row, step = self.rows[c, :m], self.steps[c]
            fr = state @ row.conj().T
            pivot = self.diag[c, :m, :m] - row @ fr
            pivot[np.diag_indices(m)] -= sigma
            try:
                chol = np.linalg.cholesky(pivot)
            except np.linalg.LinAlgError:
                return None
            # G_c^H = L_cc^{-1} (h C_c - E_c F R_c^H)^H
            gen = _adjoint(np.linalg.solve(
                chol, _adjoint(self.weight * self.cols[c, :, :m] - step @ fr)))
            chols[c, :m, :m], gens[c, :, :m] = chol, gen
            state = step @ state @ step.conj().T + gen @ gen.conj().T
        return BlockCholesky(self, chols, gens)

    @cached_property
    def min_eig(self) -> float:
        """lambda_min(S_N) of either sign, certified by inertia; computed once.

        Lanczos proposes theta >= lambda_min; :meth:`factor`, which exists
        exactly when sigma < lambda_min, confirms theta by a factor at
        theta - delta, delta = 1e-10 max(1, |theta|), or else brackets
        lambda_min by doubling the gap below theta and bisects to delta,
        returning the bracket's top.  A non-finite theta, or no factor even
        below -||S_N||, raises ``LinAlgError``.
        """
        theta = lanczos_minimum(self.matvec, self.size)
        delta = 1e-10 * max(1.0, abs(theta))
        high, gap, norm = theta, delta, 0.0
        while not np.isfinite(theta) or self.factor(theta - gap) is None:
            norm = norm or operator_norm(self.matvec, self.matvec, self.size)
            if not theta - gap > -2.0 * norm - delta:
                raise np.linalg.LinAlgError(
                    f"no Cholesky factor of S_N - sigma I at sigma = "
                    f"{theta - gap:.6e}; Lanczos gave theta = {theta:.6e}")
            high, gap = theta - gap, 2.0 * gap
        # (theta - gap, high] has width gap / 2 after a failure; halving the
        # width, not subtracting the ends, keeps rounding from adding a factor.
        width = 0.5 * gap
        while width > delta:
            width *= 0.5
            if self.factor(high - width) is None:
                high -= width
        return high

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (p*N) x (p*N) S_N: S_N applied to the identity, with
        its lower triangle mirrored so that the result is exactly
        Hermitian.  Only the references and the benchmark's composition
        check read it."""
        dense = self.matvec(np.eye(self.size, dtype=complex))
        return np.tril(dense) + np.tril(dense, -1).conj().T


@dataclass(frozen=True, eq=False)
class BlockCholesky:
    """S_N - sigma*I = L L^H from :meth:`SemiseparableOperator.factor`.

    Padded like ``op``: ``chols`` holds the diagonal blocks L_cc
    (B, width, width), ``gens`` the generators G_c (B, n, width) of the
    lower blocks L_bc = R_b E_{b-1} ... E_{c+1} G_c.
    """

    op: SemiseparableOperator
    chols: np.ndarray
    gens: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """(S_N - sigma I)^{-1} rhs for a vector or a (p*N, k) block.

        Forward substitution with L carries E_c state + G_c y_c forward,
        back substitution with L^H carries E_c^H state + R_c^H x_c
        backward: the recurrences of the matvec.
        """
        op = self.op
        rhs = np.asarray(rhs)
        blocks = op._pad(rhs.reshape(op.size, -1))
        inverses = np.linalg.inv(self.chols)
        state = np.zeros((op.steps.shape[1], blocks.shape[2]), dtype=complex)
        for c in range(len(op.sizes)):
            blocks[c] = inverses[c] @ (blocks[c] - op.rows[c] @ state)
            state = op.steps[c] @ state + self.gens[c] @ blocks[c]
        inverses_h, gens_h = _adjoint(inverses), _adjoint(self.gens)
        rows_h, back = _adjoint(op.rows), _adjoint(op.steps)
        state = np.zeros_like(state)
        for c in range(len(op.sizes) - 1, -1, -1):
            blocks[c] = inverses_h[c] @ (blocks[c] - gens_h[c] @ state)
            state = back[c] @ state + rows_h[c] @ blocks[c]
        return op._unpad(blocks, rhs.shape)


def _dilated_grid(r: Realization, count: int):
    """The grid S_N and T_N share: midpoint nodes x_a of [0, l], weight h,
    dilated nodes d_i x_a (component-major), their stable sort order, the
    sorted nodes, and the tolerance within which two lie on one jump line."""
    if count < 8:
        raise ValueError("need at least 8 quadrature nodes")
    h = r.length / count
    xs = (np.arange(count) + 0.5) * h
    z = np.kron(r.diag.d, xs)
    order = np.argsort(z, kind="stable")
    return xs, h, z, order, z[order], 1e-13 * r.diag.d[0] * max(r.length, 1.0)


def _block_starts(z: np.ndarray, tol: float, reach: float) -> np.ndarray:
    """Starts of the blocks of the sorted nodes z, and len(z) last.

    A block ends after BLOCK_SIZE nodes, or earlier where its span would
    pass ``reach``; a cut never falls between two nodes within ``tol`` of
    each other, so a tie group that overruns those limits stays whole.
    """
    free = np.append(np.flatnonzero(np.diff(z) > tol) + 1, z.size)
    starts = [0]
    while starts[-1] < z.size:
        s = starts[-1]
        limit = min(s + BLOCK_SIZE,
                    int(np.searchsorted(z, z[s] + reach, side="right")))
        k = int(np.searchsorted(free, limit, side="right")) - 1
        if k < 0 or free[k] <= s:
            k = int(np.searchsorted(free, s, side="right"))
        starts.append(int(free[k]))
    return np.array(starts)


def discretize_operator(r: Realization, count: int) -> SemiseparableOperator:
    """Nystrom operator S = I + integral operator on [0, l], in generator form.

    The kernel block (i, j) is sampled at (d_i x_a - d_j x_b); values with
    positive argument come from the exponential form, negative ones from its
    Hermitian reflection, and near-collisions (within 1e-13 of the interval
    scale) are averaged so the operator is exactly Hermitian whenever the
    data produce a Hermitian kernel.  The p*N dilated nodes are sorted
    (stably) and cut into blocks of at most BLOCK_SIZE nodes, each of span
    at most 2 / ||beta - beta^H||_2, over which e^{-i y beta^H} grows by at
    most e.  A diagonal block is the rank-n product of rows
    theta2^H e^{i (z_u - z0) beta^H} and columns e^{-i (z_v - z0) beta^H}
    theta1 split at its first node z0, mirrored and averaged as above; the
    blocks off the diagonal take the generators of
    :class:`SemiseparableOperator`.  All exponentials come from one
    :func:`exp_samples` call.
    """
    xs, h, _, order, z, tol = _dilated_grid(r, count)
    comp = order // count
    growth = 0.5 * np.linalg.norm(r.beta - r.beta.conj().T, 2)
    reach = 1.0 / growth if growth > 0.0 else np.inf
    starts = _block_starts(z, tol, reach)
    sizes = np.diff(starts)
    blocks, width, size = sizes.size, int(sizes.max()), r.p * count

    # Block and offset of every sorted node; z0_c per block, z0_B last.
    block_of = np.repeat(np.arange(blocks), sizes)
    offset = np.arange(size) - starts[:-1][block_of]
    first = z[np.append(starts[:-1], size - 1)]
    gen = 1j * r.beta.conj().T
    exps = exp_samples(gen, np.concatenate([
        z - first[block_of],            # rows
        first[block_of + 1] - z,        # columns off the diagonal
        first[block_of] - z,            # columns of the diagonal blocks
        np.diff(first),                 # steps
    ]))
    row_exp, col_exp, diag_exp = np.split(exps[:3 * size], 3)

    def padded(values: np.ndarray) -> np.ndarray:
        out = np.zeros((blocks, width) + values.shape[1:], dtype=values.dtype)
        out[block_of, offset] = values
        return out

    rows = padded(np.einsum("av,avw->aw", r.theta2.conj().T[comp], row_exp))
    cols = padded(np.einsum("avw,aw->av", col_exp, r.theta1.T[comp]))
    diag_cols = padded(np.einsum("avw,aw->av", diag_exp, r.theta1.T[comp]))
    # Diagonal blocks: valid where z_u >= z_v, mirrored below, averaged at
    # near-collisions; padded entries stay zero.
    prod = rows @ diag_cols.swapaxes(1, 2)
    mirror = _adjoint(prod)
    zp = padded(z)
    diff = zp[:, :, None] - zp[:, None, :]
    diag = np.where(diff > tol, prod,
                    np.where(diff < -tol, mirror, 0.5 * (prod + mirror)))
    diag *= h
    occupied = np.arange(width)
    diag[:, occupied, occupied] += occupied < sizes[:, None]
    slots = np.empty(size, dtype=int)
    slots[order] = block_of * width + offset
    return SemiseparableOperator(
        nodes=xs, weight=h, components=r.p, slots=slots, sizes=sizes,
        diag=diag, rows=rows, cols=cols.swapaxes(1, 2), steps=exps[3 * size:])


def discretize_inverse(kernel: InverseKernel, count: int) -> DiscreteOperator:
    """Nystrom T_N of I + inverse kernel, on the same midpoint nodes; a
    non-invertible kernel raises :class:`SingularOperatorError` first."""
    xs, h, z, order, zs, tol = _dilated_grid(kernel.realization, count)
    kernel._require_invertible()
    rows = kernel.fund.left_rows(xs)
    return DiscreteOperator(
        kernel, xs, h, tol, rows, kernel.fund.columns(rows), order,
        upto=np.searchsorted(zs, z + tol, side="right") - 1,
        downto=z.size - 1 - np.searchsorted(zs, z - tol, side="left"))


def composition_residual(kernel: InverseKernel,
                         op: SemiseparableOperator) -> float:
    """||T_N S_N - I||_2 for S_N = ``op`` and T_N = I + inverse kernel.

    Power iteration on v -> T(Sv) - v and its adjoint w -> S(T^H w) - w
    (S_N is Hermitian): both enter through their matvecs, so no
    (p*N) x (p*N) array is formed.
    """
    t_n = discretize_inverse(kernel, op.nodes.size)
    return operator_norm(lambda v: t_n.matvec(op.matvec(v)) - v,
                         lambda w: op.matvec(t_n.matvec(w, True)) - w, op.size)


def lanczos_minimum(matvec: Callable[[np.ndarray], np.ndarray],
                    size: int) -> float:
    """Smallest Ritz value theta >= lambda_min of a Hermitian operator.

    ``matvec`` applies the operator to a vector of length ``size``.  Lanczos
    with full reorthogonalization from the start vector of
    :func:`spectral_norm` stops once the residual bound |beta_k y_k| of
    theta is at most 1e-12 max(1, |theta|), tested at every step up to
    LANCZOS_EVERY_STEP, then at every 4th, the last (LANCZOS_MAX_DIM) and on
    breakdown.  Ritz values interlace, so theta >= lambda_min either way;
    but a Krylov space that misses the lowest eigenvector converges to an
    inner eigenvalue, which :attr:`SemiseparableOperator.min_eig` catches.
    """
    steps = min(LANCZOS_MAX_DIM, size)
    basis = np.empty((steps, size), dtype=complex)  # Lanczos vectors as rows
    # The tridiagonal, lower triangle only; row k + 1 takes beta_k.
    tri = np.zeros((steps + 1, steps))
    q = _start_vector(size)
    for k in range(steps):
        basis[k] = q
        active = basis[:k + 1]
        w = matvec(q)
        coef = active.conj() @ w
        tri[k, k] = coef[k].real
        w -= coef @ active
        w -= (active.conj() @ w) @ active  # second pass: twice is enough
        beta = np.linalg.norm(w)
        if (k < LANCZOS_EVERY_STEP or k % 4 == 3 or k == steps - 1
                or beta == 0.0):
            theta, vecs = np.linalg.eigh(tri[:k + 1, :k + 1])
            if beta * abs(vecs[-1, 0]) <= 1e-12 * max(1.0, abs(theta[0])):
                break
        tri[k + 1, k] = beta
        q = w / beta
    return float(theta[0])


def positivity_spectrum(op: SemiseparableOperator) -> float:
    """Certified lambda_min(S_N): :attr:`SemiseparableOperator.min_eig`."""
    return op.min_eig


def profile_samples(r: Realization, xs: np.ndarray) -> np.ndarray:
    """Component-major samples of the block profile [Phi1(x), indicator].

    Row (i, a) holds [Phi1(x_a)[i, :], e_i^T]; this (p*N) x 2p matrix is the
    discrete stand-in for the pair of profiles that generate both the
    operator identity and the transfer function below.  Phi1 is
    :meth:`Realization.edge_profile` at all nodes, in the same layout.
    """
    xs = np.asarray(xs, dtype=float)
    return np.hstack([r.edge_profile(xs),
                      np.repeat(np.eye(r.p), xs.size, axis=0)])


def _midpoint_resolvents(samples: np.ndarray, d: np.ndarray, h: float,
                         lams: np.ndarray) -> np.ndarray:
    """(I - lambda A)^{-1} samples for every lambda, A = i*D (x) tri.

    ``samples`` is component-major, (p*N) x m; tri = h (L + I/2), with L
    the strictly lower all-ones matrix, is the midpoint rule for
    f -> integral_0^x f.  Block i, with c = i*lambda*d_i*h, solves
    (1 - c/2) y_a - c s_a = f_a for the running sum s_a = y_0 + ... +
    y_{a-1}: forward substitution, run as one scan over the nodes for every
    lambda and component at once.  Returns shape (len(lams), p*N, m).
    """
    p = d.size
    count = samples.shape[0] // p
    coef = 1j * h * np.multiply.outer(lams, d)[:, :, None]  # (L, p, 1)
    alpha = 1.0 - 0.5 * coef
    kappa = coef / alpha
    # ys[a, k, i] is row a of block i for lams[k]; it starts as f_a / alpha.
    ys = samples.reshape(p, count, -1).transpose(1, 0, 2)[:, None] / alpha
    total = np.zeros_like(ys[0])
    for row in ys:
        row += kappa * total
        total += row
    return ys.transpose(1, 2, 0, 3).reshape(lams.size, p * count, -1)


def discrete_matrizant(r: Realization, op: SemiseparableOperator,
                       lams: Sequence[complex]) -> np.ndarray:
    """Transfer-function values of the discrete system, one per lambda.

    W_N = I + i*lambda*h * J Pi^H S^{-1} (I - lambda A)^{-1} Pi, the exact
    matrizant of the discretized problem; it converges to the canonical
    system's matrizant at the right endpoint as the grid refines.  ``op`` is
    the Nystrom operator S of ``r``.  Pi^H S^{-1} = X^H for S X = Pi (S is
    Hermitian), one solve for all lambdas with the block Cholesky factor of
    S, refused (``LinAlgError``) unless ``op.min_eig`` certifies S > 0.
    A = i*D (x) tri is block-diagonal in the component-major layout, and
    :func:`_midpoint_resolvents` applies (I - lambda A)^{-1}.  Returns shape
    (len(lams), 2p, 2p).
    """
    lams = np.asarray(lams, dtype=complex)
    low = op.min_eig
    if not low > 1e-10 * max(1.0, abs(low)):
        raise np.linalg.LinAlgError(
            f"S_N is not certified positive definite: lambda_min = {low:.6e}")
    pi = profile_samples(r, op.nodes)
    j_pi_s = exchange_j(r.p) @ op.factor(0.0).solve(pi).conj().T
    resolvents = _midpoint_resolvents(pi, r.diag.d, op.weight, lams)
    return np.eye(2 * r.p) \
        + 1j * op.weight * lams[:, None, None] * (j_pi_s @ resolvents)
