"""Midpoint-grid counterparts of the closed-form machinery.

The operator S and the inverse kernel are discretized by a midpoint
Nystrom rule, and the transfer matrix of the discrete system stands in for
the canonical system's matrizant.  ``dkinv verify`` runs its composition,
positivity and Weyl-inequality checks on these; the closed-form modules
never call into this one.

Discrete objects follow a component-major layout: a block vector sample f
on nodes x_0..x_{N-1} is flattened as f[i*N + a] = f_i(x_a), so operators
on L^2-valued p-vectors become (p*N) x (p*N) matrices.  T_N is held dense.
S_N is held as a block-semiseparable operator
(:class:`SemiseparableOperator`): over the sorted dilated nodes it is dense
diagonal blocks plus rank-n generators whose exponentials all run forward
in time, so it is applied, factored and solved in time linear in p*N
without ever being formed.

Like the rest of the package it runs on numpy alone: the positivity
certificate is a block Cholesky factor of S_N, Lanczos solves its small
tridiagonal with ``np.linalg.eigh``, the transfer matrix takes one solve
with that factor and a vectorized scan for the midpoint resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

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
    "lanczos_extremes",
    "positivity_spectrum",
    "profile_samples",
]

# Krylov dimension after which lanczos_extremes gives up.
LANCZOS_MAX_DIM = 300
# Lanczos tests convergence at every step up to this dimension, then at
# every 4th: each test is a dense O(k^3) eigh of the k x k tridiagonal.
LANCZOS_EVERY_STEP = 32
# Most sorted nodes in one diagonal block of S_N.
BLOCK_SIZE = 48


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Midpoint-rule matrix I + h*K on component-major node samples."""

    nodes: np.ndarray    # midpoint nodes, shape (N,)
    weight: float        # uniform quadrature weight h = l / N
    matrix: np.ndarray   # (p*N) x (p*N)
    components: int      # p

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class SemiseparableOperator:
    """The Nystrom S_N = I + h*K from its block-semiseparable generators.

    With the dilated nodes z sorted and cut into blocks c, block c holds
    its first node z0_c and last node z1_c, and for b > c the lower block
    is S_bc = h R_b Phi_{b-1} E_{b-1} ... E_{c+1} Phi_c C_c with

        R_c[u] = theta2^H e^{i (z_u - z0_c) beta^H}      (``rows``)
        C_c[v] = e^{i (z1_c - z_v) beta^H} theta1        (``cols``)
        E_c    = e^{i (z1_c - z0_c) beta^H}              (``spans``)
        Phi_c  = e^{i (z0_{c+1} - z1_c) beta^H}          (``steps``);

    every exponent is a nonnegative time, so under the structure identity
    every factor is a contraction.  The upper blocks are the adjoints.
    ``diag`` holds the dense diagonal blocks S_cc, and the block arrays are
    zero-padded to the largest block; ``slots`` maps each component-major
    index to its padded (block, offset) slot.
    """

    nodes: np.ndarray    # midpoint nodes, shape (N,)
    weight: float        # uniform quadrature weight h = l / N
    components: int      # p
    slots: np.ndarray    # (p*N,) block * width + offset of each index
    sizes: np.ndarray    # (B,) nodes per block
    diag: np.ndarray     # (B, width, width) diagonal blocks S_cc
    rows: np.ndarray     # (B, width, n) R_c
    cols: np.ndarray     # (B, n, width) C_c
    spans: np.ndarray    # (B, n, n) E_c
    steps: np.ndarray    # (B - 1, n, n) Phi_c

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

        One forward pass carries sum_{c<b} Phi_{b-1} E_{b-1} ... Phi_c C_c
        x_c from block to block for the lower triangle, one backward pass
        its adjoint for the upper; the diagonal blocks are one batched
        product.
        """
        x = np.asarray(x)
        xp = self._pad(x.reshape(self.size, -1))
        lower = self.steps @ (self.cols[:-1] @ xp[:-1])     # Phi_c C_c x_c
        upper = _adjoint(self.steps) @ (_adjoint(self.rows[1:]) @ xp[1:])
        fwd = self.steps @ self.spans[:-1]                  # Phi_c E_c
        bwd = _adjoint(self.spans[1:] @ self.steps)         # (E_c Phi_{c-1})^H
        s = np.zeros((len(self.sizes),) + lower.shape[1:], dtype=complex)
        t = np.zeros_like(s)
        for c in range(len(self.sizes) - 1):
            s[c + 1] = fwd[c] @ s[c] + lower[c]
        for c in range(len(self.sizes) - 1, 0, -1):
            t[c - 1] = bwd[c - 1] @ t[c] + upper[c - 1]
        y = self.diag @ xp + self.weight * (self.rows @ s
                                            + _adjoint(self.cols) @ t)
        return self._unpad(y, x.shape)

    def factor(self, sigma: float) -> Optional["BlockCholesky"]:
        """Block Cholesky factor of S_N - sigma*I, or None where none exists.

        The generator-form recurrence of Eidelman and Gohberg (Integral
        Equations Operator Theory 34, 1999): with F = 0 to start, block c
        takes L_cc = chol(S_cc - sigma I - R_c F R_c^H), the generator
        G_c = (h C_c - E_c F R_c^H) L_cc^{-H} of its lower blocks
        L_bc = R_b Phi_{b-1} ... Phi_c G_c, and passes on
        F = Phi_c (E_c F E_c^H + G_c G_c^H) Phi_c^H.  The pivots are those
        of a dense Cholesky factor of the same matrix, so it fails where
        that one does; by Sylvester's law of inertia success proves that
        no eigenvalue of S_N lies below sigma.
        """
        h = self.weight
        state = np.zeros(self.spans.shape[1:], dtype=complex)
        # Padded slots keep an identity diagonal block and a zero generator.
        chols = np.zeros_like(self.diag)
        chols[:, np.arange(chols.shape[1]), np.arange(chols.shape[1])] = 1.0
        gens = np.zeros_like(self.cols)
        for c, m in enumerate(self.sizes):
            row, span = self.rows[c, :m], self.spans[c]
            fr = state @ row.conj().T
            pivot = self.diag[c, :m, :m] - row @ fr
            pivot[np.diag_indices(m)] -= sigma
            try:
                chol = np.linalg.cholesky(pivot)
            except np.linalg.LinAlgError:
                return None
            # G_c^H = L_cc^{-1} (h C_c - E_c F R_c^H)^H
            gen = np.linalg.solve(
                chol, (h * self.cols[c, :, :m] - span @ fr).conj().T)
            gen = gen.conj().T
            chols[c, :m, :m], gens[c, :, :m] = chol, gen
            if c < len(self.steps):
                step = self.steps[c]
                state = step @ (span @ state @ span.conj().T
                                + gen @ gen.conj().T) @ step.conj().T
        return BlockCholesky(self, chols, gens)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (p*N) x (p*N) S_N: S_N applied to the identity, with
        its lower triangle mirrored so that the result is exactly
        Hermitian.  Only the eigvalsh fallback of
        :func:`positivity_spectrum` and the references need it."""
        dense = self.matvec(np.eye(self.size, dtype=complex))
        return np.tril(dense) + np.tril(dense, -1).conj().T


@dataclass(frozen=True, eq=False)
class BlockCholesky:
    """S_N - sigma*I = L L^H from :meth:`SemiseparableOperator.factor`.

    Padded like ``op``: ``chols`` holds the diagonal blocks L_cc
    (B, width, width), ``gens`` the generators G_c (B, n, width) of the
    lower blocks L_bc = R_b Phi_{b-1} E_{b-1} ... Phi_c G_c.
    """

    op: SemiseparableOperator
    chols: np.ndarray
    gens: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """(S_N - sigma I)^{-1} rhs for a vector or a (p*N, k) block.

        Forward substitution with L carries sum_{c<b} Phi_{b-1} ... Phi_c
        G_c y_c forward, back substitution with L^H carries its adjoint
        backward: the recurrences of the matvec.
        """
        op = self.op
        rhs = np.asarray(rhs)
        blocks = op._pad(rhs.reshape(op.size, -1))
        inverses = np.linalg.inv(self.chols)
        state = np.zeros((op.spans.shape[1], blocks.shape[2]), dtype=complex)
        for c in range(len(op.sizes)):
            blocks[c] = inverses[c] @ (blocks[c] - op.rows[c] @ state)
            if c < len(op.steps):
                state = op.steps[c] @ (op.spans[c] @ state
                                       + self.gens[c] @ blocks[c])
        inverses_h, gens_h = _adjoint(inverses), _adjoint(self.gens)
        rows_h, back = _adjoint(op.rows), _adjoint(op.spans[1:] @ op.steps)
        state = np.zeros_like(state)
        for c in range(len(op.sizes) - 1, -1, -1):
            blocks[c] = inverses_h[c] @ (blocks[c] - gens_h[c] @ state)
            if c > 0:
                # Phi_{c-1}^H (E_c^H t + R_c^H x_c)
                state = back[c - 1] @ state \
                    + op.steps[c - 1].conj().T @ (rows_h[c] @ blocks[c])
        return op._unpad(blocks, rhs.shape)


def _midpoint_nodes(length: float, count: int) -> Tuple[np.ndarray, float]:
    h = length / count
    return (np.arange(count) + 0.5) * h, h


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
    if count < 8:
        raise ValueError("need at least 8 quadrature nodes")
    xs, h = _midpoint_nodes(r.length, count)
    p, d = r.p, r.diag.d
    coords = np.kron(d, xs)
    order = np.argsort(coords, kind="stable")
    z = coords[order]
    comp = order // count
    tol = 1e-13 * d[0] * max(r.length, 1.0)
    growth = 0.5 * np.linalg.norm(r.beta - r.beta.conj().T, 2)
    reach = 1.0 / growth if growth > 0.0 else np.inf
    starts = _block_starts(z, tol, reach)
    sizes = np.diff(starts)
    blocks, width, size = sizes.size, int(sizes.max()), p * count

    # Block and offset of every sorted node; z0, z1 per block.
    block_of = np.repeat(np.arange(blocks), sizes)
    offset = np.arange(size) - starts[:-1][block_of]
    first, last = z[starts[:-1]], z[starts[1:] - 1]
    gen = 1j * r.beta.conj().T
    exps = exp_samples(gen, np.concatenate([
        z - first[block_of],            # rows
        last[block_of] - z,             # columns off the diagonal
        first[block_of] - z,            # columns of the diagonal blocks
        last - first,                   # spans
        first[1:] - last[:-1],          # steps
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
        nodes=xs, weight=h, components=p, slots=slots, sizes=sizes,
        diag=diag, rows=rows, cols=cols.swapaxes(1, 2),
        spans=exps[3 * size:3 * size + blocks], steps=exps[3 * size + blocks:])


def discretize_inverse(kernel: InverseKernel, count: int) -> DiscreteOperator:
    """Nystrom matrix of I + inverse kernel, on the same midpoint nodes."""
    if count < 8:
        raise ValueError("need at least 8 quadrature nodes")
    r = kernel.realization
    xs, h = _midpoint_nodes(r.length, count)
    tol = 1e-13 * r.diag.d[0] * max(r.length, 1.0)
    matrix = kernel.block_values(xs, xs, line_tol=tol)
    matrix *= h
    matrix[np.diag_indices(r.p * count)] += 1.0
    return DiscreteOperator(nodes=xs, weight=h, matrix=matrix,
                            components=r.p)


def composition_residual(kernel: InverseKernel,
                         op: SemiseparableOperator) -> float:
    """||T_N S_N - I||_2 for S_N = ``op`` and T_N = I + inverse kernel.

    T_N is built dense on the nodes of ``op`` and lives only for this call;
    S_N enters through its matvec.  The norm comes from power iteration on
    v -> T(Sv) - v and its adjoint w -> S(conj(conj(w) T)) - w (S_N is
    Hermitian), so neither the product nor a conjugate transpose of T_N is
    formed.
    """
    t_mat = discretize_inverse(kernel, op.nodes.size).matrix
    return operator_norm(lambda v: t_mat @ op.matvec(v) - v,
                         lambda w: op.matvec((w.conj() @ t_mat).conj()) - w,
                         op.size)


def lanczos_extremes(matvec: Callable[[np.ndarray], np.ndarray],
                     size: int) -> Optional[Tuple[float, float]]:
    """Extreme Ritz values (theta_min, theta_max) of a Hermitian operator.

    ``matvec`` applies the operator to a vector of length ``size``.
    Lanczos with full reorthogonalization from the start vector of
    :func:`spectral_norm`, stopping once the residual bound |beta_k y_k| of
    both extreme Ritz values is at most 1e-12 max(1, |theta|).  Returns None
    when that does not happen within LANCZOS_MAX_DIM steps.  Ritz values
    interlace, theta_min >= lambda_min and theta_max <= lambda_max, and a
    converged one lies within its bound of some eigenvalue; but a Krylov
    space that misses the extreme eigenvectors converges to inner
    eigenvalues, so a caller that needs the true minimum must certify it.
    The test runs at every step up to LANCZOS_EVERY_STEP, then at every 4th
    step, the last one and on breakdown (beta_k = 0).
    """
    steps = min(LANCZOS_MAX_DIM, size)
    basis = np.empty((steps, size), dtype=complex)  # Lanczos vectors as rows
    # The tridiagonal, lower triangle only; row k + 1 takes beta_k.
    tri = np.zeros((steps + 1, steps))
    ends = [0, -1]
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
            bound = beta * np.abs(vecs[-1, ends])
            if np.all(bound <= 1e-12 * np.maximum(1.0, np.abs(theta[ends]))):
                return float(theta[0]), float(theta[-1])
        tri[k + 1, k] = beta
        q = w / beta
    return None


def positivity_spectrum(op: SemiseparableOperator) -> Tuple[float, float]:
    """Extreme eigenvalues of the Hermitian S_N.

    The extremes come from Lanczos on the matvec
    (:func:`lanczos_extremes`).  The minimum theta is certified by a block
    Cholesky factor of S_N - (theta - delta) I with
    delta = 1e-10 max(1, |theta|), so the true minimum lies in
    [theta - delta, theta]; the maximum is a Ritz value, a lower bound on
    the true maximum.
    A dense ``eigvalsh`` of the assembled matrix answers instead when
    Lanczos does not converge, the certificate fails, or theta <= delta:
    near a singular or indefinite operator the sign of the minimum is
    rounding noise.
    """
    ritz = lanczos_extremes(op.matvec, op.size)
    if ritz is not None:
        low, high = ritz
        delta = 1e-10 * max(1.0, abs(low))
        if low > delta and op.factor(low - delta) is not None:
            return low, high
    evals = np.linalg.eigvalsh(op.matrix)
    return float(evals[0]), float(evals[-1])


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
    S; an S without one (not positive definite) raises ``LinAlgError``.
    A = i*D (x) tri is block-diagonal in the component-major layout, and
    :func:`_midpoint_resolvents` applies (I - lambda A)^{-1}.  Returns shape
    (len(lams), 2p, 2p).
    """
    lams = np.asarray(lams, dtype=complex)
    chol = op.factor(0.0)
    if chol is None:
        raise np.linalg.LinAlgError(
            "S_N is not positive definite: it has no Cholesky factor")
    pi = profile_samples(r, op.nodes)
    j_pi_s = exchange_j(r.p) @ chol.solve(pi).conj().T
    resolvents = _midpoint_resolvents(pi, r.diag.d, op.weight, lams)
    return np.eye(2 * r.p) \
        + 1j * op.weight * lams[:, None, None] * (j_pi_s @ resolvents)
